#pragma once
// Exclusive (self) time per span and per layer, computed from the spans the
// program already records (vcgt::trace::snapshot()). A span's self time is
// its duration minus the durations of its direct children on the same
// track, so self times over a track add up to the time its root spans
// cover. The rest of the measured window is reported as unattributed.
//
// Parent lookup uses the recorded nesting depth: a span of depth d belongs
// to the latest-starting span of depth d-1 on its track whose interval
// contains the child's start. This also places the per-member events a
// fused LoopChain emits (recorded at the chain's start with the member's
// accumulated busy time as duration) under their chain span.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/trace.hpp"

namespace vcgtbench {

/// Layer (module in src/) a span belongs to, from its name: "mpi:" ->
/// minimpi; "hydra:" -> hydra; "hs:", "cu:", "coupler:" -> jm76; "halo:"
/// and "chain:" (executor and fused halo epochs, also of krylov chains) ->
/// op2; other names containing "ksolve" (krylov's loops) -> krylov; any
/// other "<row>:<loop>" -> op2. Anything else -> "other".
std::string layer_of(const std::string& span_name);

struct SelfTimes {
  std::map<std::string, double> layer_s;  ///< self seconds per layer
  std::map<std::string, double> name_s;   ///< self seconds per span name
  std::map<std::string, std::vector<double>> name_dur_s;  ///< inclusive durations
  double attributed_s = 0.0;  ///< sum of all self times
  double window_s = 0.0;      ///< window length times the number of tracks

  /// Self seconds over every span name ending in `suffix`.
  [[nodiscard]] double suffix_s(const std::string& suffix) const;
  /// Count of spans whose name ends in `suffix`.
  [[nodiscard]] std::uint64_t suffix_count(const std::string& suffix) const;
  /// Self seconds over every span name starting with `prefix`.
  [[nodiscard]] double prefix_s(const std::string& prefix) const;
  /// Inclusive durations of every span named exactly `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// 1 - attributed / window.
  [[nodiscard]] double unattributed_frac() const;
};

/// A measured interval [t0_ns, t1_ns] on the trace timebase.
struct Window {
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

/// Accounts every complete span on one of `tracks` that lies inside one of
/// `windows`. The denominator of unattributed_frac() is the summed window
/// length times the number of tracks.
SelfTimes self_times(const std::vector<vcgt::trace::Event>& events,
                     const std::vector<int>& tracks, const std::vector<Window>& windows);

}  // namespace vcgtbench
