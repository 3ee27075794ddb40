// duct_implicit: the stiff throttled duct (steady, p_back_ratio 1.05)
// marched with implicit dual time (CG + Jacobi) to a 1e-3 residual drop,
// 9,216 cells RCB-split over 3 rank threads. Each solve builds a fresh
// context and solver, so every solve also yields one set-up sample.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <mutex>

#include "layers.hpp"
#include "src/hydra/solver.hpp"
#include "src/minimpi/minimpi.hpp"
#include "src/op2/op2.hpp"
#include "src/rig/annulus.hpp"
#include "src/rig/rowspec.hpp"
#include "src/util/timer.hpp"
#include "src/util/trace.hpp"
#include "workloads.hpp"

namespace vcgtbench {

namespace {

using namespace vcgt;

constexpr int kRanks = 3;
constexpr rig::MeshResolution kRes{16, 12, 48};  // 9,216 cells
constexpr double kDrop = 1e-3;
constexpr int kCap = 400;              // outer-iteration cap per solve
constexpr double kSolveLimitS = 5.0;   // stated time-to-solution limit
constexpr const char* kDotLoop = "B:ksolve:dot_pq";

/// Seeded operating points with their recorded exact counts: outer
/// iterations to the target and krylov dot_pq invocations (CG iterations)
/// per solve. Reductions are root-independent, so the counts repeat
/// exactly on every run.
struct OperatingPoint {
  double u_axial_in;
  int outer_iters;
  int cg_iters;
};
constexpr OperatingPoint kPoints[] = {
    {79.4, 69, 848},
    {79.6, 69, 849},
    {79.8, 69, 849},
    {80.0, 69, 849},
    {80.2, 69, 849},
    {80.4, 69, 849},
    {80.6, 69, 850},
    {80.8, 69, 849},
};

rig::RowSpec duct_row() {
  rig::RowSpec row;
  row.name = "B";
  row.rotor = false;
  row.x_min = 0.0;
  row.x_max = 0.1;
  row.r_hub = 0.3;
  row.r_casing = 0.5;
  return row;
}

hydra::FlowConfig duct_flow(double u_axial_in) {
  hydra::FlowConfig cfg;
  cfg.steady = true;
  cfg.p_back_ratio = 1.05;
  cfg.u_axial_in = u_axial_in;
  cfg.implicit_dual_time = true;
  cfg.implicit_max_iters = 120;
  cfg.implicit_rtol = 1e-5;
  return cfg;
}

/// One solve, as seen from world rank 0.
struct Solve {
  bool traced = false;
  double setup_s = 0.0;
  double partition_s = 0.0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  int iters = 0;
  bool reached = false;
  bool finite = true;
  std::uint64_t cg_iters = 0;
  std::vector<double> iter_s;     // inner_iteration + residual_rms
  std::vector<double> inner_s;    // inner_iteration alone
  std::vector<double> monitor_s;  // residual_rms alone
  minimpi::TrafficStats traffic;
  double halo_s = 0.0;            // rank 0
  std::uint64_t halo_msgs = 0;    // all ranks
  std::uint64_t halo_bytes = 0;

  [[nodiscard]] double seconds() const { return static_cast<double>(t1 - t0) * 1e-9; }
};

}  // namespace

Result run_duct_implicit(const Options& opt) {
  Result res;
  const OperatingPoint point = kPoints[opt.seed % std::size(kPoints)];
  const rig::RowSpec row = duct_row();
  const hydra::FlowConfig flow = duct_flow(point.u_axial_in);

  std::vector<double> mesh_s;
  rig::AnnulusMesh mesh;
  for (int rep = 0; rep < 3; ++rep) {
    const util::Timer t;
    mesh = rig::generate_row_mesh(row, kRes);
    mesh_s.push_back(t.elapsed());
  }

  std::vector<Solve> solves;
  std::mutex mu;  // guards the halo sums every rank adds into solves.back()
  std::uint64_t working_set = 0;
  const std::int64_t start = trace::now_ns();
  const auto budget_ns = static_cast<std::int64_t>(opt.seconds * 1e9);

  minimpi::World::run(kRanks, [&](minimpi::Comm& world) {
    const bool root = world.rank() == 0;
    bind_to_cpus(rank_cpu(world.rank()));
    for (bool more = true; more;) {
      Solve sv;
      // A traced run traces the solves of the second half of the budget.
      sv.traced = opt.trace && trace::now_ns() - start >= budget_ns / 2;
      world.barrier();
      const std::int64_t t_setup = trace::now_ns();
      op2::Context ctx(world);
      hydra::RowSolver solver(ctx, mesh, row, /*omega=*/0.0, flow);
      const util::Timer tp;
      ctx.partition(op2::Partitioner::Rcb, solver.cell_center());
      sv.partition_s = tp.elapsed();
      solver.initialize();
      ctx.reset_stats();
      world.barrier();
      if (root) {
        sv.setup_s = static_cast<double>(trace::now_ns() - t_setup) * 1e-9;
        world.reset_traffic();
        if (sv.traced && !trace::enabled()) trace::enable(std::size_t{1} << 20);
        sv.t0 = trace::now_ns();
      }
      world.barrier();
      double rms0 = 0.0;
      while (sv.iters < kCap) {
        const util::Timer ti;
        solver.inner_iteration();
        const double inner = ti.elapsed();
        const util::Timer tm;
        const double rms = solver.residual_rms();
        sv.monitor_s.push_back(tm.elapsed());
        sv.inner_s.push_back(inner);
        sv.iter_s.push_back(ti.elapsed());
        if (sv.iters++ == 0) rms0 = rms;
        if (!std::isfinite(rms)) {
          sv.finite = false;
          break;
        }
        if (rms <= kDrop * rms0) {
          sv.reached = true;
          break;
        }
      }
      world.barrier();
      const auto totals = ctx.total_stats();
      if (root) {
        sv.t1 = trace::now_ns();
        sv.traffic = world.traffic();
        sv.halo_s = totals.halo_seconds;
        for (const auto& l : ctx.loop_stats()) {
          if (l.name == kDotLoop) sv.cg_iters = l.invocations;
        }
        working_set = working_set_bytes(ctx);
        const std::scoped_lock lock(mu);
        solves.push_back(std::move(sv));
      }
      world.barrier();
      {
        const std::scoped_lock lock(mu);
        solves.back().halo_msgs += totals.halo_msgs;
        solves.back().halo_bytes += totals.halo_bytes;
      }
      int go = 0;
      if (root) {
        const Solve& last = solves.back();
        const auto next_end = trace::now_ns() + (last.t1 - last.t0) +
                              static_cast<std::int64_t>(last.setup_s * 1e9);
        go = next_end - start <= budget_ns || solves.size() < (opt.trace ? 5u : 3u);
      }
      more = world.bcast_value(go, 0) != 0;
    }
    if (root && trace::enabled()) trace::disable();
  });

  std::cout << "workload: {\"name\": \"duct_implicit\", \"cells\": " << mesh.ncell
            << ", \"working_set_bytes_rank0\": " << working_set
            << ", \"note\": \"computed from dat and map sizes; elems_per_s figures are "
               "cache-resident when this fits the last-level cache\"}\n";

  res.attempted = static_cast<long>(solves.size());
  for (const Solve& sv : solves) {
    std::cerr << "duct_implicit: solve iters " << sv.iters << " cg " << sv.cg_iters
              << " reached " << sv.reached << " seconds " << sv.seconds() << "\n";
    const bool ok = sv.finite && sv.reached && sv.iters == point.outer_iters &&
                    sv.cg_iters == static_cast<std::uint64_t>(point.cg_iters);
    if (!ok) ++res.failed;
    res.check(ok, "duct_implicit: reached the " + std::to_string(kDrop) +
                      " residual drop within " + std::to_string(kCap) +
                      " iterations in exactly " + std::to_string(point.outer_iters) +
                      " outer and " + std::to_string(point.cg_iters) +
                      " CG iterations (got " + std::to_string(sv.iters) + " and " +
                      std::to_string(sv.cg_iters) + ")");
  }

  // The first solve warms caches and the allocator; it is checked but not
  // measured.
  std::vector<const Solve*> measured;
  for (std::size_t i = 1; i < solves.size(); ++i) {
    if (solves[i].traced == opt.trace) measured.push_back(&solves[i]);
  }
  std::vector<double> setup_s, solve_s, iter_s, inner_s, monitor_s, part_s, rate, ops;
  long met = 0;
  for (const Solve* sv : measured) {
    setup_s.push_back(sv->setup_s);
    solve_s.push_back(sv->seconds());
    part_s.push_back(sv->partition_s);
    iter_s.insert(iter_s.end(), sv->iter_s.begin(), sv->iter_s.end());
    inner_s.insert(inner_s.end(), sv->inner_s.begin(), sv->inner_s.end());
    monitor_s.insert(monitor_s.end(), sv->monitor_s.begin(), sv->monitor_s.end());
    rate.push_back(static_cast<double>(mesh.ncell) * sv->iters / sv->seconds());
    ops.push_back(1.0 / (sv->setup_s + sv->seconds()));
    if (sv->reached && sv->seconds() <= kSolveLimitS) ++met;
  }
  if (!opt.trace) {
    res.e2e("setup_s", median(setup_s), "s");
    res.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    res.e2e("step_s.p50", median(iter_s), "s");
    res.e2e("cell_updates_per_s", median(rate), "1/s");
    res.e2e("solve_s", median(solve_s), "s");
    res.e2e("latency_ms.p50", median(iter_s) * 1e3, "ms");
    res.e2e("slo_met_frac",
            safe_div(static_cast<double>(met), static_cast<double>(measured.size())), "ratio");
    res.e2e("ops_per_s", median(ops), "1/s");
    return res;
  }

  // --- traced run: per-layer metrics of the traced solves -----------------
  LayerReport lr;
  lr.rig_mesh_s = median(mesh_s);
  lr.op2_partition_s = median(part_s);
  std::vector<Window> windows;
  double outer = 0.0;
  double msgs = 0.0, bytes = 0.0, halo_msgs = 0.0, halo_bytes = 0.0, rank_wait = 0.0;
  double retries = 0.0, busy = 0.0;
  for (const Solve* sv : measured) {
    windows.push_back({sv->t0, sv->t1});
    outer += sv->iters;
    msgs += static_cast<double>(sv->traffic.messages);
    bytes += static_cast<double>(sv->traffic.bytes);
    rank_wait += sv->traffic.max_rank_wait;
    retries += static_cast<double>(sv->traffic.send_retries);
    halo_msgs += static_cast<double>(sv->halo_msgs);
    halo_bytes += static_cast<double>(sv->halo_bytes);
    double inner = 0.0;
    for (const double s : sv->inner_s) inner += s;
    busy += inner - sv->halo_s;
  }
  const auto events = trace::snapshot();
  lr.trace_dropped = static_cast<double>(trace::dropped());
  const SelfTimes st = self_times(events, {0, 1, 2}, windows);
  const double per_rank = 1.0 / kRanks;
  // Every rank records its own span per loop invocation.
  fill_from_trace(lr, st, outer,
                  {static_cast<double>(mesh.nface) * per_rank,
                   static_cast<double>(mesh.ncell) * per_rank},
                  outer * kRanks);
  lr.halo_msgs = halo_msgs / outer;
  lr.halo_bytes = halo_bytes / outer;
  lr.mpi_msgs = msgs / outer;
  lr.mpi_bytes = bytes / outer;
  lr.mpi_rank_wait_max_s = rank_wait / outer;
  lr.mpi_send_retries = retries;
  lr.hydra_inner_iter_p50_s = median(inner_s);
  lr.hydra_monitor_p50_s = median(monitor_s);
  lr.hydra_busy_s = busy / outer;
  lr.hydra_outer_iters = outer / static_cast<double>(measured.size());
  std::vector<double> untraced_s;
  for (std::size_t i = 1; i < solves.size(); ++i) {
    if (!solves[i].traced) untraced_s.push_back(solves[i].seconds());
  }
  lr.trace_overhead_frac = safe_div(median(solve_s), median(untraced_s)) - 1.0;
  lr.step_p90_s = quantile(iter_s, 0.9);
  lr.latency_p90_ms = lr.step_p90_s * 1e3;
  emit_layers(res, lr);
  return res;
}

}  // namespace vcgtbench
