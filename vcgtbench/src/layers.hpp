#pragma once
// The per-layer metric set. Every traced run reports every field, so all
// workloads print the same names; a field that does not apply to a
// workload stays 0 (README.md lists which workload moves which field).
// Times and counts marked "/step" are divided by the workload's step unit:
// a physical step (rig_coupled), an outer iteration (duct_implicit) or a
// session step (serve_storm).
#include <array>
#include <cstdint>

#include "report.hpp"
#include "selftime.hpp"
#include "src/jm76/coupled.hpp"
#include "src/op2/op2.hpp"

namespace vcgtbench {

/// The op2 par_loops reported one by one (names after the row prefix).
inline constexpr std::array<const char*, 4> kLoops = {"flux_face", "ws_face", "blade_force",
                                                      "rk_update"};

struct LayerReport {
  // rig
  double rig_mesh_s = 0.0;
  // op2
  double op2_partition_s = 0.0;
  std::array<double, 4> loop_s{};
  std::array<double, 4> loop_elems_per_s{};
  double chain_epoch_s = 0.0;
  double halo_s = 0.0;
  double halo_msgs = 0.0;
  double halo_bytes = 0.0;
  double plancache_hit_frac = 0.0;
  double plancache_misses = 0.0;
  double plancache_evictions = 0.0;
  double plancache_bytes = 0.0;
  // minimpi
  double mpi_msgs = 0.0;
  double mpi_bytes = 0.0;
  double mpi_recv_wait_self_s = 0.0;
  double mpi_rank_wait_max_s = 0.0;
  double mpi_send_retries = 0.0;
  // hydra
  double hydra_inner_iter_p50_s = 0.0;
  double hydra_monitor_p50_s = 0.0;
  double hydra_busy_s = 0.0;
  double hydra_outer_iters = 0.0;
  // krylov
  double krylov_iters_per_outer = 0.0;
  double krylov_loop_s = 0.0;
  double krylov_dot_s = 0.0;
  // jm76
  double jm76_search_s = 0.0;
  double jm76_candidates = 0.0;
  double jm76_search_efficiency = 0.0;
  double jm76_coupler_wait_s = 0.0;
  double jm76_cu_busy_frac = 0.0;
  // serve
  double serve_setup_cold_p50_ms = 0.0;
  double serve_setup_warm_p50_ms = 0.0;
  double serve_run_p50_ms = 0.0;
  double serve_queue_p50_ms = 0.0;
  double serve_queue_p99_ms = 0.0;
  double serve_latency_p99_ms = 0.0;
  double serve_warm_frac = 0.0;
  double serve_reject_frac = 0.0;
  double serve_slo_misses = 0.0;
  double serve_submit_p99_us = 0.0;
  // harness
  double step_p90_s = 0.0;      ///< tail of step_s (not bounded: host noise)
  double latency_p90_ms = 0.0;  ///< tail of latency_ms
  double gen_late_p99_ms = 0.0;
  double gen_late_max_ms = 0.0;
  double unattributed_frac = 0.0;
  double trace_overhead_frac = 0.0;
  double trace_dropped = 0.0;
  /// Self-time share of the measured window per layer (op2, minimpi,
  /// hydra, krylov, jm76); with unattributed_frac they sum to 1.
  std::array<double, 5> self_frac{};
};

/// Element counts one rank iterates per invocation of a face or cell loop.
struct LoopSizes {
  double faces = 0.0;
  double cells = 0.0;
};

/// Set-up layer timings, taken outside the measured run: rig::generate_row_mesh
/// over every row of `cfg`, and op2::Context::partition of row 0 on a
/// serial context; each the median of `reps` repetitions.
struct SetupTimes {
  double mesh_s = 0.0;
  double partition_s = 0.0;
  LoopSizes sizes;  ///< row 0's faces and cells
};
SetupTimes time_mesh_and_partition(const vcgt::jm76::CoupledConfig& cfg, int reps);

/// Bytes held by every dat and map of `ctx`: one rank's computed working set.
std::uint64_t working_set_bytes(const vcgt::op2::Context& ctx);

/// Fills the span-derived fields: per-loop self time and rate, chain epoch,
/// halo and receive-wait self time, krylov times and iteration ratio,
/// hydra inner-iteration p50, layer shares and the unattributed share.
/// `steps` is the workload's step count in the traced window; `outer` the
/// outer iterations krylov.iters_per_outer divides by (0: not a krylov
/// workload).
void fill_from_trace(LayerReport& lr, const SelfTimes& st, double steps, const LoopSizes& sizes,
                     double outer);

/// Adds every per-layer metric to `r`, in a fixed order.
void emit_layers(Result& r, const LayerReport& lr);

}  // namespace vcgtbench
