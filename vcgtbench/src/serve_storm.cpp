// serve_storm: an open-loop, seeded Poisson stream of small 2-row sessions
// ("coarse" tier) at a fixed offered rate, then a closed-loop capacity phase
// with a fixed number of sessions outstanding. The driver is single-threaded.
//
// A run is a series of rounds, each on a fresh server: set-up (worker world
// start and the first cold session, timed on several fresh servers), the
// open loop, the closed loop. Session figures are medians over the sessions
// of all rounds and the closed-loop rate is the median over rounds, so one
// round that the host slowed does not move the result.
//
// Latency is timed from each session's *scheduled* arrival, not from the
// moment it was submitted, so a generator that falls behind charges its
// delay to the sessions it delayed. (serve::run_storm stamps arrivals at
// the actual submit time, which hides generator stalls — coordinated
// omission; see README.md.)
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <deque>
#include <filesystem>
#include <iostream>
#include <memory>
#include <random>
#include <thread>

#include "layers.hpp"
#include "src/op2/op2.hpp"
#include "src/rig/annulus.hpp"
#include "src/serve/server.hpp"
#include "src/serve/session_spec.hpp"
#include "src/util/timer.hpp"
#include "src/util/trace.hpp"
#include "workloads.hpp"

namespace vcgtbench {

namespace {

using namespace vcgt;

constexpr const char* kTier = "coarse";     // mesh tier of every session
constexpr double kRateHz = 15.0;            // offered rate of the open loop
constexpr double kOpenShare = 0.6;          // round share of the open loop
constexpr int kOutstanding = 4;             // closed-loop sessions in flight
constexpr double kLatencyLimitMs = 100.0;   // stated session latency limit
constexpr double kRoundSeconds = 1.0;       // measured time per round
constexpr int kMinRounds = 3;
constexpr int kSetupsPerRound = 3;          // fresh servers timed per round
constexpr int kSteps = 2;
constexpr int kInner = 4;
// Spec mix per block of 20 sessions, shuffled by the seed: the hot spec
// (warm reuse), three specs in turn (cold, fed from the plan cache) and
// one unique spec (plan-cache inserts).
constexpr int kBlock = 20;
constexpr int kHotPerBlock = 15;
constexpr int kCyclePerBlock = 4;
constexpr double kHotRpm = 11000.0;
constexpr double kCycleRpm[] = {10000.0, 10500.0, 11500.0};
constexpr int kDriverTrack = 1000;  // keeps driver spans off the rank tracks

serve::SessionSpec spec_with_rpm(double rpm) {
  serve::SessionSpec spec;
  spec.nrows = 2;
  spec.rpm = rpm;
  spec.tier = kTier;
  spec.hs_ranks = {1, 1};
  spec.cus_per_interface = 1;
  spec.nsteps = kSteps;
  spec.flow.inner_iters = kInner;
  return spec;
}

/// The seeded session stream: spec kinds in shuffled blocks (75% hot, 20%
/// cycling, 5% unique) and exponential inter-arrival gaps.
class SpecMix {
 public:
  explicit SpecMix(std::uint64_t seed) : rng_(seed), base_rpm_(9000.0 + (seed % 1000)) {}

  serve::SessionSpec next() {
    if (pos_ == kBlock) {
      for (int i = 0; i < kBlock; ++i) {
        kinds_[i] = i < kHotPerBlock ? 0 : i < kHotPerBlock + kCyclePerBlock ? 1 : 2;
      }
      std::shuffle(kinds_.begin(), kinds_.end(), rng_);
      pos_ = 0;
    }
    switch (kinds_[pos_++]) {
      case 0: return spec_with_rpm(kHotRpm);
      case 1: return spec_with_rpm(kCycleRpm[cycle_++ % 3]);
      default: return spec_with_rpm(base_rpm_ + 0.25 * static_cast<double>(++unique_));
    }
  }
  double gap_s() { return std::exponential_distribution<double>(kRateHz)(rng_); }

 private:
  std::mt19937_64 rng_;
  double base_rpm_;
  std::array<int, kBlock> kinds_{};
  int pos_ = kBlock;
  int cycle_ = 0;
  int unique_ = 0;
};

/// One submitted session.
struct Session {
  std::int64_t due_ns = 0;
  std::int64_t submit_ns = 0;
  double submit_us = 0.0;
  std::uint64_t setup_hash = 0;
  serve::Server::Ticket ticket;
  serve::Server::JobOutcome outcome;
  bool ok = false;  // accepted, succeeded and passed the output checks

  [[nodiscard]] double latency_ms() const {
    return static_cast<double>(outcome.done_ns - due_ns) * 1e-6;
  }
};

struct PhaseData {
  std::vector<Session> open;      // open-loop sessions
  std::vector<Session> capacity;  // closed-loop sessions
  double capacity_s = 0.0;
  long capacity_done = 0;
  op2::PlanCache::Stats cache0, cache1;
};

void submit(serve::Server& server, SpecMix& mix, Session& s) {
  const auto spec = mix.next();
  s.setup_hash = spec.setup_hash();
  s.submit_ns = trace::now_ns();
  s.ticket = server.submit(spec);
  s.submit_us = static_cast<double>(trace::now_ns() - s.submit_ns) * 1e-3;
}

/// Claims an accepted session's result and checks its output.
void claim(serve::Server& server, Session& s) {
  if (!s.ticket.accepted) return;
  s.outcome = server.wait(s.ticket.job_id);
  bool ok = s.outcome.ok && s.outcome.frames.size() == static_cast<std::size_t>(kSteps);
  for (const auto& f : s.outcome.frames) ok = ok && std::isfinite(f.rms);
  s.ok = ok;
}

PhaseData run_phases(serve::Server& server, SpecMix& mix, double seconds) {
  PhaseData pd;
  pd.cache0 = server.plan_cache().stats();

  // Open loop: sleep to each scheduled arrival, never to a completion;
  // results are claimed only after the last arrival.
  const std::int64_t t_start = trace::now_ns();
  const auto t_end = t_start + static_cast<std::int64_t>(seconds * kOpenShare * 1e9);
  for (std::int64_t due = t_start; due < t_end;
       due += static_cast<std::int64_t>(mix.gap_s() * 1e9)) {
    const std::int64_t now = trace::now_ns();
    if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    Session s;
    s.due_ns = due;
    submit(server, mix, s);
    pd.open.push_back(std::move(s));
  }
  for (auto& s : pd.open) claim(server, s);

  // Closed loop: keep kOutstanding sessions in flight for the rest of the
  // budget; sessions run in FIFO order on the one worker world.
  const std::int64_t c0 = trace::now_ns();
  const auto c_end = c0 + static_cast<std::int64_t>(seconds * (1.0 - kOpenShare) * 1e9);
  std::deque<std::size_t> inflight;
  const auto add = [&] {
    Session s;
    s.due_ns = trace::now_ns();
    submit(server, mix, s);
    pd.capacity.push_back(std::move(s));
    inflight.push_back(pd.capacity.size() - 1);
  };
  for (int i = 0; i < kOutstanding; ++i) add();
  std::int64_t last_done = c0;
  while (!inflight.empty()) {
    Session& s = pd.capacity[inflight.front()];
    inflight.pop_front();
    claim(server, s);
    if (s.ok && s.outcome.done_ns <= c_end) {
      ++pd.capacity_done;
      last_done = std::max(last_done, s.outcome.done_ns);
    }
    if (trace::now_ns() < c_end) add();
  }
  pd.capacity_s = static_cast<double>(last_done - c0) * 1e-9;
  pd.cache1 = server.plan_cache().stats();
  return pd;
}

/// Kernel thread ids of this process's threads.
std::vector<int> thread_ids() {
  std::vector<int> out;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    out.push_back(std::stoi(e.path().filename().string()));
  }
  return out;
}

/// Starts a server with default options and runs its first (cold) session;
/// returns whether that session succeeded. The worker world starts from the
/// driver thread on the CPUs rank threads use in the other workloads, and
/// each worker thread gets a CPU of its own as soon as the first submit has
/// created it (by kernel thread id, since the pool creates them inside
/// src/). The driver then moves to CPU 0.
bool start_server(std::unique_ptr<serve::Server>& server) {
  const int ncpu = std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  bind_to_cpus(rank_cpu(0), ncpu - 1);
  const auto before = thread_ids();
  server = std::make_unique<serve::Server>();
  const auto ticket = server->submit(spec_with_rpm(kHotRpm));
  int i = 0;
  for (const int tid : thread_ids()) {
    if (std::find(before.begin(), before.end(), tid) == before.end()) {
      bind_thread_id(tid, rank_cpu(i++ % (ncpu - 1)));
    }
  }
  bind_to_cpus(0);
  return ticket.accepted && server->wait(ticket.job_id).ok;
}

struct Round {
  bool traced = false;
  std::vector<double> setup_s;  // one per fresh server
  long setups_ok = 0;
  PhaseData pd;
};

/// One round: kSetupsPerRound fresh servers are started and timed, and the
/// last one serves the measured phases.
Round run_round(SpecMix& mix, double seconds, bool traced) {
  Round rd;
  rd.traced = traced;
  std::unique_ptr<serve::Server> server;
  for (int k = 0; k < kSetupsPerRound; ++k) {
    server.reset();
    const util::Timer t;
    const bool ok = start_server(server);
    rd.setup_s.push_back(t.elapsed());
    if (ok) ++rd.setups_ok;
  }
  rd.pd = run_phases(*server, mix, seconds);
  return rd;
}

/// End-to-end figures of a set of rounds: open-loop sessions pooled over
/// the rounds, the closed-loop rate one value per round.
struct Figures {
  std::vector<double> step_s, service_s, latency_ms;
  long met = 0, offered = 0;
  std::vector<double> capacity;  // sessions/s of each round's closed loop
};

void add_round(Figures& f, const PhaseData& pd) {
  for (const Session& s : pd.open) {
    ++f.offered;
    if (!s.ok) continue;
    f.latency_ms.push_back(s.latency_ms());
    f.step_s.push_back(s.outcome.run_seconds / kSteps);
    f.service_s.push_back(s.outcome.setup_seconds + s.outcome.run_seconds);
    if (s.latency_ms() <= kLatencyLimitMs) ++f.met;
  }
  f.capacity.push_back(safe_div(static_cast<double>(pd.capacity_done), pd.capacity_s));
}

}  // namespace

Result run_serve_storm(const Options& opt) {
  Result res;
  trace::set_track(kDriverTrack);
  SpecMix mix(opt.seed);
  const int nrounds =
      std::max(kMinRounds, static_cast<int>(std::lround(opt.seconds / kRoundSeconds)));
  const double round_s = opt.seconds / nrounds;

  // The first server of the process pays one-off costs (thread arenas,
  // first page faults of the pool); it is started once, untimed.
  {
    std::unique_ptr<serve::Server> warm;
    const bool ok = start_server(warm);
    ++res.attempted;
    if (!ok) ++res.failed;
    res.check(ok, "serve_storm: warm-up session completed");
  }

  // A traced run traces the second half of its rounds.
  std::vector<Round> rounds;
  const int first_traced = opt.trace ? nrounds / 2 : nrounds;
  for (int r = 0; r < nrounds; ++r) {
    if (r == first_traced) trace::enable(std::size_t{1} << 20);
    rounds.push_back(run_round(mix, round_s, r >= first_traced));
  }
  if (opt.trace) trace::disable();

  const auto mesh = rig::resolution_tier(kTier);
  const double cells = 2.0 * mesh.nx * mesh.nr * mesh.ntheta;  // two rows
  std::cout << "workload: {\"name\": \"serve_storm\", \"cells_per_session\": " << cells
            << ", \"rate_hz\": " << kRateHz << ", \"latency_limit_ms\": " << kLatencyLimitMs
            << ", \"rounds\": " << nrounds << "}\n";

  long failed_jobs = 0;
  for (const Round& rd : rounds) {
    const auto setups = static_cast<long>(rd.setup_s.size());
    res.attempted += setups;
    res.failed += setups - rd.setups_ok;
    res.check(rd.setups_ok == setups, "serve_storm: every set-up session completed");
    for (const auto* list : {&rd.pd.open, &rd.pd.capacity}) {
      for (const Session& s : *list) {
        ++res.attempted;
        if (!s.ticket.accepted) {
          ++res.failed;
        } else if (!s.ok) {
          ++failed_jobs;
          ++res.failed;
        }
      }
    }
  }
  res.check(failed_jobs == 0, "serve_storm: every accepted session ok with " +
                                  std::to_string(kSteps) + " finite StepFrames (" +
                                  std::to_string(failed_jobs) + " not)");

  Figures fig;
  std::vector<double> setup_s;
  for (const Round& rd : rounds) {
    if (rd.traced != opt.trace) continue;
    add_round(fig, rd.pd);
    setup_s.insert(setup_s.end(), rd.setup_s.begin(), rd.setup_s.end());
  }
  if (!opt.trace) {
    res.e2e("setup_s", median(setup_s), "s");
    res.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    const double capacity = median(fig.capacity);
    res.e2e("step_s.p50", median(fig.step_s), "s");
    res.e2e("cell_updates_per_s", cells * kSteps * kInner * capacity, "1/s");
    res.e2e("solve_s", median(fig.service_s), "s");
    res.e2e("latency_ms.p50", median(fig.latency_ms), "ms");
    res.e2e("slo_met_frac",
            safe_div(static_cast<double>(fig.met), static_cast<double>(fig.offered)), "ratio");
    res.e2e("ops_per_s", capacity, "1/s");
    return res;
  }

  // --- traced run: per-layer metrics of the traced rounds -----------------
  LayerReport lr;
  const SetupTimes setup = time_mesh_and_partition(spec_with_rpm(kHotRpm).coupled_config(), 5);
  lr.rig_mesh_s = setup.mesh_s;
  lr.op2_partition_s = setup.partition_s;

  std::vector<double> cold_ms, warm_ms, run_ms, untraced_run_ms, queue_ms, latency_ms,
      submit_us, late_ms;
  std::vector<Window> windows;
  long reuse_chances = 0, reused = 0, slo_misses = 0, submitted = 0, refused = 0;
  double hits = 0.0, misses = 0.0, evictions = 0.0, cache_bytes = 0.0;
  for (const Round& rd : rounds) {
    const PhaseData& pd = rd.pd;
    if (!rd.traced) {
      for (const auto* list : {&pd.open, &pd.capacity}) {
        for (const Session& s : *list) {
          if (s.ok) untraced_run_ms.push_back(s.outcome.run_seconds * 1e3);
        }
      }
      continue;
    }
    hits += static_cast<double>(pd.cache1.hits - pd.cache0.hits);
    misses += static_cast<double>(pd.cache1.misses - pd.cache0.misses);
    evictions += static_cast<double>(pd.cache1.evictions - pd.cache0.evictions);
    cache_bytes = std::max(cache_bytes, static_cast<double>(pd.cache1.bytes));
    std::uint64_t prev_hash = spec_with_rpm(kHotRpm).setup_hash();  // the set-up session
    for (const auto* list : {&pd.open, &pd.capacity}) {
      for (const Session& s : *list) {
        ++submitted;
        submit_us.push_back(s.submit_us);
        const bool open = list == &pd.open;
        if (open) {
          late_ms.push_back(static_cast<double>(s.submit_ns - s.due_ns) * 1e-6);
          if (!s.ok || s.latency_ms() > kLatencyLimitMs) ++slo_misses;
        }
        if (!s.ticket.accepted) {
          ++refused;
          continue;
        }
        const auto& oc = s.outcome;
        (oc.warm ? warm_ms : cold_ms).push_back(oc.setup_seconds * 1e3);
        run_ms.push_back(oc.run_seconds * 1e3);
        if (open) {
          latency_ms.push_back(s.latency_ms());
          queue_ms.push_back(s.latency_ms() - (oc.setup_seconds + oc.run_seconds) * 1e3);
        }
        // The worker world runs sessions in submission order and keeps the
        // last one parked: a repeat of the previous setup can be served warm.
        if (s.setup_hash == prev_hash) {
          ++reuse_chances;
          if (oc.warm) ++reused;
        }
        prev_hash = s.setup_hash;
        const double service = oc.setup_seconds + oc.run_seconds;
        windows.push_back({oc.done_ns - static_cast<std::int64_t>(service * 1e9), oc.done_ns});
      }
    }
  }
  const auto events = trace::snapshot();
  lr.trace_dropped = static_cast<double>(trace::dropped());
  const SelfTimes st = self_times(events, {0, 1, 2}, windows);
  const double session_steps = static_cast<double>(run_ms.size()) * kSteps;
  fill_from_trace(lr, st, session_steps, setup.sizes, 0.0);
  lr.jm76_search_s = safe_div(st.prefix_s("cu:search_interp"), session_steps);
  lr.jm76_coupler_wait_s = safe_div(st.prefix_s("coupler:recv_ghosts"), session_steps);
  lr.plancache_hit_frac = safe_div(hits, hits + misses);
  lr.plancache_misses = misses;
  lr.plancache_evictions = evictions;
  lr.plancache_bytes = cache_bytes;
  lr.serve_setup_cold_p50_ms = median(cold_ms);
  lr.serve_setup_warm_p50_ms = median(warm_ms);
  lr.serve_run_p50_ms = median(run_ms);
  lr.serve_queue_p50_ms = quantile(queue_ms, 0.5);
  lr.serve_queue_p99_ms = quantile(queue_ms, 0.99);
  lr.serve_latency_p99_ms = quantile(latency_ms, 0.99);
  lr.serve_warm_frac = safe_div(static_cast<double>(reused), static_cast<double>(reuse_chances));
  lr.serve_reject_frac = safe_div(static_cast<double>(refused), static_cast<double>(submitted));
  lr.serve_slo_misses = static_cast<double>(slo_misses);
  lr.serve_submit_p99_us = quantile(submit_us, 0.99);
  lr.gen_late_p99_ms = quantile(late_ms, 0.99);
  lr.gen_late_max_ms = late_ms.empty() ? 0.0 : *std::max_element(late_ms.begin(), late_ms.end());
  lr.trace_overhead_frac = safe_div(median(run_ms), median(untraced_run_ms)) - 1.0;
  lr.step_p90_s = quantile(fig.step_s, 0.9);
  lr.latency_p90_ms = quantile(latency_ms, 0.9);
  emit_layers(res, lr);
  return res;
}

}  // namespace vcgtbench
