#pragma once
// vcgt::serve client storm — a synthetic open-loop load driver.
//
// Open loop means arrivals are scheduled by a clock, not by completions: a
// client that wants a session at t_i submits at t_i whether or not earlier
// sessions finished, which is what exposes real queueing behaviour
// (closed-loop drivers self-throttle and hide it). Arrivals are a seeded
// Poisson process at `rate_hz`; each arrival submits the next spec from
// the round-robin list and takes the server's admission verdict as final
// (a rejected open-loop client walks away — that's the backpressure
// working). Latency is measured per accepted job from its scheduled
// arrival time (not the moment the generator got round to submitting it)
// to the job body's completion stamp, so out-of-order completions across
// worlds are timed correctly even though results are claimed in
// submission order.
#include <cstdint>
#include <vector>

#include "src/serve/server.hpp"
#include "src/serve/session_spec.hpp"

namespace vcgt::serve {

struct StormConfig {
  int jobs = 32;          ///< total arrivals
  double rate_hz = 20.0;  ///< mean arrival rate (Poisson)
  std::uint64_t seed = 1; ///< arrival-process seed
  /// Specs cycled round-robin across arrivals (must be non-empty).
  std::vector<SessionSpec> specs;
};

struct StormResult {
  int submitted = 0;
  int accepted = 0;
  int rejected = 0;
  int completed = 0;  ///< accepted jobs that finished ok
  int failed = 0;     ///< accepted jobs that finished with a structured error
  int rebuilt = 0;    ///< failures that rebuilt their world
  int hung = 0;       ///< accepted jobs that never produced a result (must be 0)
  double elapsed_seconds = 0.0;      ///< first arrival → last completion
  double sessions_per_second = 0.0;  ///< completed / elapsed
  double p50_ms = 0.0;               ///< completion latency quantiles
  double p99_ms = 0.0;
  /// Errors of failed jobs (one entry per failure, first-rank message).
  std::vector<std::string> errors;
};

/// Runs one storm against a live server. Blocking; single caller thread.
StormResult run_storm(Server& server, const StormConfig& cfg);

}  // namespace vcgt::serve
