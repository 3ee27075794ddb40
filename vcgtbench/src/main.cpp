// vcgt_bench — the repository's end-to-end benchmark driver (README.md).
//
//   vcgt_bench --workload <rig_coupled|duct_implicit|serve_storm>
//              --seed <n> --seconds <s> --trace <0|1>
//
// Prints the machine context, then one JSON object as the last stdout line:
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits non-zero when a correctness check fails.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "report.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "vcgt_bench: " << why
            << "\nusage: vcgt_bench --workload <rig_coupled|duct_implicit|serve_storm> "
               "--seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(2);
}

vcgtbench::Options parse(int argc, char** argv) {
  vcgtbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if (opt.workload != "rig_coupled" && opt.workload != "duct_implicit" &&
      opt.workload != "serve_storm") {
    usage("unknown workload '" + opt.workload + "'");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const vcgtbench::Options opt = parse(argc, argv);
  std::cout << "machine: " << vcgtbench::machine_context_json() << "\n";
  const double steal0 = vcgtbench::steal_seconds();
  vcgtbench::Result res;
  try {
    // Every CPU stays busy for the whole run, the way busy-polling MPI keeps
    // its cores; see IdleSpinners.
    const vcgtbench::IdleSpinners spin(
        0, static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
    if (opt.workload == "rig_coupled") {
      res = vcgtbench::run_rig_coupled(opt);
    } else if (opt.workload == "duct_implicit") {
      res = vcgtbench::run_duct_implicit(opt);
    } else {
      res = vcgtbench::run_serve_storm(opt);
    }
  } catch (const std::exception& e) {
    std::cerr << "vcgt_bench: " << opt.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  res.check(res.attempted > 0, "at least one operation attempted");
  // Time the host took from this guest's CPUs during the run (all CPUs,
  // all processes): a run that lost much of it is slowed for reasons
  // outside the program.
  std::cout << "host_steal_s: " << vcgtbench::steal_seconds() - steal0 << "\n";
  vcgtbench::print_result(res, opt.trace);
  return res.correct ? 0 : 1;
}
