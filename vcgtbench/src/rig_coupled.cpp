// rig_coupled: the paper's flagship configuration, shrunk — IGV and R1
// coupled through a pipelined ADT sliding plane with donor-cell
// interpolation, one HS rank per row plus one coupler unit (3 rank
// threads). Step time is stamped in the on_step callback of world rank 0.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <memory>
#include <random>

#include "layers.hpp"
#include "src/hydra/monitors.hpp"
#include "src/jm76/coupled.hpp"
#include "src/minimpi/minimpi.hpp"
#include "src/rig/annulus.hpp"
#include "src/rig/rowspec.hpp"
#include "src/util/timer.hpp"
#include "src/util/trace.hpp"
#include "workloads.hpp"

namespace vcgtbench {

namespace {

using namespace vcgt;

constexpr rig::MeshResolution kRes{4, 12, 192};  // 9,216 cells per row
constexpr int kInner = 3;
constexpr double kDtPhys = 5e-5;
constexpr int kSetups = 40;
constexpr int kWarmSteps = 10;
constexpr int kBlock = 10;          // steps per solve_s block
// Steps between monitor samples: rare enough that sampled steps stay above
// the p90 step time.
constexpr int kMonitorEvery = 25;
constexpr double kStepLimitS = 0.25;  // stated per-step latency limit
// Correctness bands on every monitor sample of both rows. From the uniform
// initial state the rows pass a start-up transient: the relative mass
// imbalance peaks near 0.31 (R1) and settles towards 0.1, mean p/p_in peaks
// near 1.10 and settles near 1.02 over all seeds. A diverging or NaN state
// leaves the band.
constexpr double kMaxMassImbalance = 0.4;
constexpr double kMinPRatio = 0.95;
constexpr double kMaxPRatio = 1.15;

jm76::CoupledConfig make_config(std::uint64_t seed) {
  // The seed perturbs the operating point by up to +-1% (shaft speed and
  // inflow velocity); mesh sizes and iteration counts do not change.
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-0.01, 0.01);
  jm76::CoupledConfig cfg;
  cfg.rig = rig::rig250_spec(2, 11000.0 * (1.0 + u(rng)));
  cfg.res = kRes;
  cfg.flow.inner_iters = kInner;
  cfg.flow.dt_phys = kDtPhys;
  cfg.flow.u_axial_in *= 1.0 + u(rng);
  cfg.hs_ranks = {1, 1};
  cfg.cus_per_interface = 1;
  cfg.search = jm76::SearchKind::Adt;
  cfg.interp = jm76::InterpKind::DonorCell;
  cfg.pipelined = true;
  return cfg;
}

/// One measured segment, as seen from world rank 0.
struct Phase {
  int nsteps = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::vector<std::int64_t> step_end;
  std::vector<jm76::RankStats> stats;
  minimpi::TrafficStats traffic;

  [[nodiscard]] std::vector<double> step_s() const {
    std::vector<double> out;
    std::int64_t prev = t0;
    for (const auto t : step_end) {
      out.push_back(static_cast<double>(t - prev) * 1e-9);
      prev = t;
    }
    return out;
  }
  [[nodiscard]] std::vector<double> block_s() const {
    std::vector<double> out;
    for (std::size_t b = kBlock; b <= step_end.size(); b += kBlock) {
      const std::int64_t start = b == kBlock ? t0 : step_end[b - kBlock - 1];
      out.push_back(static_cast<double>(step_end[b - 1] - start) * 1e-9);
    }
    return out;
  }
};

/// Monitor samples of one row, written by that row's HS rank.
struct RowMonitor {
  std::vector<double> sample_s;
  long samples = 0;
  long failed_steps = 0;
  double last_imbalance = 0.0;
  double last_p_ratio = 0.0;
};

}  // namespace

Result run_rig_coupled(const Options& opt) {
  Result res;
  const auto cfg = make_config(opt.seed);
  const double p_in = cfg.flow.p_in;

  std::vector<double> setup_s;
  std::vector<Phase> phases;
  RowMonitor monitors[2];
  std::atomic<std::uint64_t> working_set{0};
  std::uint64_t cells_total = 0;

  minimpi::World::run(cfg.layout().world_size(), [&](minimpi::Comm& world) {
    const bool root = world.rank() == 0;
    bind_to_cpus(rank_cpu(world.rank()));
    std::unique_ptr<jm76::CoupledRig> rig;
    for (int s = 0; s < kSetups; ++s) {
      rig.reset();
      world.barrier();
      const std::int64_t t0 = trace::now_ns();
      rig = std::make_unique<jm76::CoupledRig>(world, cfg);
      world.barrier();
      if (root) setup_s.push_back(static_cast<double>(trace::now_ns() - t0) * 1e-9);
    }
    const bool hs = rig->solver() != nullptr;
    if (hs) working_set += working_set_bytes(*rig->context());
    const int row = hs ? rig->role().row : -1;
    std::unique_ptr<hydra::MonitorRecorder> rec;
    if (hs) rec = std::make_unique<hydra::MonitorRecorder>(*rig->solver());

    Phase* cur = nullptr;
    int cur_steps = 0;
    const auto on_step = [&](int t) {
      if (root) cur->step_end.push_back(trace::now_ns());
      if ((t + 1) % kMonitorEvery != 0 && t != cur_steps - 1) return;
      RowMonitor& mon = monitors[row];
      const util::Timer tm;
      const auto& r = rec->sample(t);
      mon.sample_s.push_back(tm.elapsed());
      mon.last_imbalance = rec->mass_imbalance();
      mon.last_p_ratio = r.mean_p / p_in;
      const bool ok = std::isfinite(r.rms) && std::isfinite(r.mean_p) &&
                      std::isfinite(r.mdot_in) && std::isfinite(r.mdot_out) &&
                      mon.last_imbalance <= kMaxMassImbalance &&
                      mon.last_p_ratio >= kMinPRatio && mon.last_p_ratio <= kMaxPRatio;
      const long since = (t + 1) % kMonitorEvery == 0 ? kMonitorEvery : (t + 1) % kMonitorEvery;
      if (!ok) mon.failed_steps += since;
      ++mon.samples;
    };

    const auto run_phase = [&](int nsteps, bool traced) {
      Phase ph;
      ph.nsteps = nsteps;
      cur = &ph;
      cur_steps = nsteps;
      rig->reset_stats();
      world.barrier();
      if (root) {
        world.reset_traffic();
        if (traced) trace::enable(std::size_t{1} << 20);
        ph.t0 = trace::now_ns();
      }
      world.barrier();
      rig->run(nsteps, -1, on_step);
      world.barrier();
      if (root) {
        ph.t1 = trace::now_ns();
        if (traced) trace::disable();
        ph.traffic = world.traffic();
      }
      world.barrier();
      ph.stats = jm76::CoupledRig::collect(world, rig->stats());
      if (root) phases.push_back(std::move(ph));
    };

    // Warm-up: plan builds, ADT construction and pipeline fill.
    run_phase(kWarmSteps, false);
    int nsteps = 0;
    if (root) {
      auto warm = phases.back().step_s();
      warm.erase(warm.begin());  // plan builds and ADT construction
      const double per_step = std::max(median(warm), 1e-4);
      nsteps = static_cast<int>(std::clamp(opt.seconds / per_step, 2.0 * kBlock, 1e5));
    }
    nsteps = world.bcast_value(nsteps, 0);
    if (opt.trace) {
      run_phase(nsteps / 2, false);
      run_phase(nsteps / 2, true);
    } else {
      run_phase(nsteps, false);
    }
  });

  for (const auto& s : phases.back().stats) {
    if (!s.is_cu) cells_total += s.owned_cells;
  }
  std::cout << "workload: {\"name\": \"rig_coupled\", \"cells\": " << cells_total
            << ", \"working_set_bytes\": " << working_set.load()
            << ", \"note\": \"computed from dat and map sizes; elems_per_s figures are "
               "cache-resident when this fits the last-level cache\"}\n";

  // Warm-up steps are not operations of the run; the measured ones are.
  for (std::size_t p = 1; p < phases.size(); ++p) res.attempted += phases[p].nsteps;
  for (const auto& mon : monitors) {
    res.failed = std::min(res.attempted, res.failed + mon.failed_steps);
    res.check(mon.samples > 0, "rig_coupled: monitors sampled");
    res.check(mon.failed_steps == 0,
              "rig_coupled: finite state, mass imbalance <= " +
                  std::to_string(kMaxMassImbalance) + " and mean p/p_in in [" +
                  std::to_string(kMinPRatio) + ", " + std::to_string(kMaxPRatio) +
                  "] (last imbalance " + std::to_string(mon.last_imbalance) + ", p ratio " +
                  std::to_string(mon.last_p_ratio) + ")");
  }

  const Phase& timed = phases.back();  // the traced half in a traced run
  const auto steps = timed.step_s();
  const auto blocks = timed.block_s();
  if (!opt.trace) {
    // Rates come from the median block.
    const double block = median(blocks);
    const auto within = std::count_if(steps.begin(), steps.end(),
                                      [](double s) { return s <= kStepLimitS; });
    res.e2e("setup_s", median(setup_s), "s");
    res.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    res.e2e("step_s.p50", median(steps), "s");
    res.e2e("cell_updates_per_s",
            safe_div(static_cast<double>(cells_total) * kInner * kBlock, block), "1/s");
    res.e2e("solve_s", block, "s");
    res.e2e("latency_ms.p50", median(steps) * 1e3, "ms");
    res.e2e("slo_met_frac",
            safe_div(static_cast<double>(within), static_cast<double>(steps.size())), "ratio");
    res.e2e("ops_per_s", safe_div(kBlock, block), "1/s");
    return res;
  }

  // --- traced run: per-layer metrics of the traced half -------------------
  LayerReport lr;
  const double n = timed.nsteps;
  const SetupTimes setup = time_mesh_and_partition(cfg, 3);
  lr.rig_mesh_s = setup.mesh_s;
  lr.op2_partition_s = setup.partition_s;
  const auto events = trace::snapshot();
  lr.trace_dropped = static_cast<double>(trace::dropped());
  const std::vector<int> tracks = {0, 1, 2};
  const SelfTimes st = self_times(events, tracks, {{timed.t0, timed.t1}});
  fill_from_trace(lr, st, n, setup.sizes, 0.0);

  double coupler_wait = 0.0;
  double busy = 0.0;
  double halo_msgs = 0.0;
  double halo_bytes = 0.0;
  double search = 0.0;
  double idle = 0.0;
  double candidates = 0.0;
  for (const auto& s : timed.stats) {
    if (s.is_cu) {
      search += s.search_seconds;
      idle += s.cu_idle_seconds;
      candidates += static_cast<double>(s.candidates);
    } else {
      coupler_wait = std::max(coupler_wait, s.coupler_wait);
      busy = std::max(busy, s.step_seconds - s.coupler_wait - s.halo_seconds);
      halo_msgs += static_cast<double>(s.halo_msgs);
      halo_bytes += static_cast<double>(s.halo_bytes);
    }
  }
  lr.halo_msgs = halo_msgs / n;
  lr.halo_bytes = halo_bytes / n;
  lr.mpi_msgs = static_cast<double>(timed.traffic.messages) / n;
  lr.mpi_bytes = static_cast<double>(timed.traffic.bytes) / n;
  lr.mpi_rank_wait_max_s = timed.traffic.max_rank_wait / n;
  lr.mpi_send_retries = static_cast<double>(timed.traffic.send_retries);
  std::vector<double> monitor_s = monitors[0].sample_s;
  monitor_s.insert(monitor_s.end(), monitors[1].sample_s.begin(), monitors[1].sample_s.end());
  lr.hydra_monitor_p50_s = median(monitor_s);
  lr.hydra_busy_s = busy / n;
  lr.jm76_search_s = search / n;
  lr.jm76_candidates = candidates / n;
  // Each coupling interpolates every interface face in both directions; a
  // pipelined segment of n steps couples n - 1 times.
  const double targets = 2.0 * kRes.nr * kRes.ntheta * (n - 1.0);
  lr.jm76_search_efficiency = safe_div(targets, candidates);
  lr.jm76_coupler_wait_s = coupler_wait / n;
  lr.jm76_cu_busy_frac = safe_div(search, search + idle);
  const Phase& untraced = phases[phases.size() - 2];
  lr.trace_overhead_frac = safe_div(median(steps), median(untraced.step_s())) - 1.0;
  lr.step_p90_s = quantile(steps, 0.9);
  lr.latency_p90_ms = lr.step_p90_s * 1e3;
  emit_layers(res, lr);
  return res;
}

}  // namespace vcgtbench
