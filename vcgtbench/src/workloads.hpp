#pragma once
// The three benchmark workloads (README.md gives the rationale of each).
// Each runs its set-up, warms up, measures for opt.seconds and checks its
// outputs; a traced run measures an untraced and a traced half and reports
// the per-layer metrics of the traced half.
#include "report.hpp"

namespace vcgtbench {

Result run_rig_coupled(const Options& opt);
Result run_duct_implicit(const Options& opt);
Result run_serve_storm(const Options& opt);

}  // namespace vcgtbench
