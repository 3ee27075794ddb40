#!/usr/bin/env python3
"""Checks bench summaries against the one bench-gate table.

    python3 tools/bench_gate.py BENCH_chain.json [BENCH_halo.json ...]

Each BENCH_<name>.json (written by bench::write_bench_json) is checked
against the rows of THRESHOLDS[<name>]. A row is (metric, op, bound, what):
`bound` is a number or the name of another metric of the same file. Every
row is printed with its value; the exit status is 1 if any row fails, a
metric is missing, or a file is unreadable or names no table entry.
"""
import json
import operator
import sys

OPS = {
    "==": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">=": operator.ge,
}

# The bench exit statuses gate the same conditions; this table makes the
# floors visible in one place and in the CI log.
THRESHOLDS = {
    "chain": [
        ("serial_bit_identical", "==", 1.0, "serial chained != unchained"),
        ("dist_bit_identical", "==", 1.0, "distributed chained != unchained"),
        ("lat_bit_identical", "==", 1.0, "latency-regime chained != unchained"),
        ("halo_msgs_chained", "<", "halo_msgs_unchained",
         "fused epochs did not reduce halo message count"),
        ("chain_speedup", ">=", 1.2,
         "latency-dominated chained speedup below 1.2x (CI floor; local target 1.5x)"),
    ],
    "krylov": [
        ("implicit_reached", "==", 1.0, "implicit march missed the residual target"),
        ("outer_reduction", ">=", 2.0,
         "implicit path below the 2x outer-iteration-reduction floor"),
    ],
    "serve": [
        ("failures", "==", 0.0, "bench_serve internal checks failed"),
        ("warm_speedup", ">=", 5.0, "warm session setup below 5x floor"),
        ("chaos_hung", "==", 0.0, "chaos storm left hung jobs"),
    ],
    "shard": [
        ("failures", "==", 0.0, "bench_shard internal checks failed"),
        ("shard_mem_ratio_r4", "<=", 0.6, "4-rank shard memory above 0.6x floor"),
        ("proj_all_fit_index_t", "==", 1.0, "a modeled shard window overflowed"),
    ],
    "halo": [
        ("gate_failures", "==", 0.0, "bench transport gates failed"),
        ("bw_frac_of_memcpy", ">=", 0.68,
         "bandwidth-regime halo bytes/s below 0.68x of in-run memcpy"),
        ("steady_site_allocs", "==", 0.0, "steady-state halo path allocated"),
        ("steady_copies_avoided", "==", "steady_msgs",
         "a steady-state message copied its payload"),
        ("bit_identical", "==", 1.0, "coupled-rig state differs between layouts"),
    ],
    "layout": [
        ("direct_soa_speedup_vs_aos", ">=", 1.3, "SoA direct speedup below 1.3x"),
        ("indirect_worst_vs_aos", ">=", 0.95, "indirect regression exceeds 5%"),
    ],
}


def check(path):
    """Prints every row for one BENCH file; returns the number of failures."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"FAIL {path}: {e}")
        return 1
    name = doc.get("name")
    rows = THRESHOLDS.get(name)
    if rows is None:
        print(f"FAIL {path}: no thresholds for bench '{name}'")
        return 1
    metrics = doc.get("metrics", {})
    failures = 0
    for metric, op, bound, what in rows:
        if metric not in metrics or (isinstance(bound, str) and bound not in metrics):
            print(f"FAIL {name}.{metric}: missing metric ({what})")
            failures += 1
            continue
        value = metrics[metric]
        limit = metrics[bound] if isinstance(bound, str) else bound
        shown = f"{bound} = {limit:g}" if isinstance(bound, str) else f"{limit:g}"
        ok = OPS[op](value, limit)
        print(f"{'ok  ' if ok else 'FAIL'} {name}.{metric} = {value:g} {op} {shown}"
              + ("" if ok else f"  ({what})"))
        failures += 0 if ok else 1
    return failures


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip())
        return 2
    failures = sum(check(path) for path in argv[1:])
    if failures:
        print(f"{failures} bench gate(s) FAILED")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
