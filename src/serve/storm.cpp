#include "src/serve/storm.hpp"

#include <algorithm>
#include <chrono>
#include <random>
#include <stdexcept>
#include <thread>

#include "src/util/stats.hpp"

namespace vcgt::serve {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

StormResult run_storm(Server& server, const StormConfig& cfg) {
  if (cfg.specs.empty()) {
    throw std::invalid_argument("serve::run_storm: no specs");
  }
  if (cfg.rate_hz <= 0.0) {
    throw std::invalid_argument("serve::run_storm: rate_hz must be positive");
  }
  std::mt19937_64 rng(cfg.seed);
  std::exponential_distribution<double> gap(cfg.rate_hz);

  StormResult res;
  struct Accepted {
    std::uint64_t job_id = 0;
    std::int64_t arrival_ns = 0;
  };
  std::vector<Accepted> accepted;
  accepted.reserve(static_cast<std::size_t>(cfg.jobs));

  const std::int64_t t_start = steady_ns();
  std::int64_t next_arrival = t_start;
  for (int i = 0; i < cfg.jobs; ++i) {
    // Open loop: sleep to the scheduled arrival, never to a completion.
    // Latency runs from the *scheduled* arrival, so time the generator
    // spends late (oversleep, a slow previous submit) counts against the
    // server like any other client-visible wait.
    const std::int64_t now = steady_ns();
    if (next_arrival > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(next_arrival - now));
    }
    const std::int64_t arrival = next_arrival;
    const SessionSpec& spec =
        cfg.specs[static_cast<std::size_t>(i) % cfg.specs.size()];
    const Server::Ticket t = server.submit(spec);
    ++res.submitted;
    if (t.accepted) {
      ++res.accepted;
      accepted.push_back({t.job_id, arrival});
    } else {
      ++res.rejected;
    }
    next_arrival += static_cast<std::int64_t>(gap(rng) * 1e9);
  }

  // Claim results in submission order; each job's latency uses its own
  // completion stamp, so this order does not distort the quantiles.
  std::vector<double> latencies_ms;
  latencies_ms.reserve(accepted.size());
  std::int64_t last_done = t_start;
  for (const Accepted& a : accepted) {
    const Server::JobOutcome oc = server.wait(a.job_id);
    const std::int64_t done = oc.done_ns != 0 ? oc.done_ns : steady_ns();
    if (oc.done_ns == 0 && !oc.ok && oc.error.empty()) {
      // No result, no error, no completion stamp: the job hung. The pool
      // watchdog should make this impossible; count it loudly.
      ++res.hung;
      continue;
    }
    latencies_ms.push_back(static_cast<double>(done - a.arrival_ns) * 1e-6);
    last_done = std::max(last_done, done);
    if (oc.ok) {
      ++res.completed;
    } else {
      ++res.failed;
      res.errors.push_back(oc.error);
      if (oc.world_rebuilt) ++res.rebuilt;
    }
  }

  res.elapsed_seconds = static_cast<double>(last_done - t_start) * 1e-9;
  if (res.elapsed_seconds > 0.0 && res.completed > 0) {
    res.sessions_per_second = res.completed / res.elapsed_seconds;
  }
  if (!latencies_ms.empty()) {
    res.p50_ms = util::quantile(latencies_ms, 0.50);
    res.p99_ms = util::quantile(latencies_ms, 0.99);
  }
  return res;
}

}  // namespace vcgt::serve
