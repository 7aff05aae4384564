// Derived sweep reports: JSON blocks computed from a sweep's finished
// points, beyond any one point's result. A sweep spec entry selects them by
// name ("reports": ["reference"], see harness/sweep_spec.h); each name is
// the top-level member the report adds to the merged sweep document:
//
//   reference       the Didona et al. lower bound on cross-region commit
//                   latency per region count, and each point's p99 distance
//                   from its own topology's bound
//   recovery_panel  per point: durability lag, recovery time, availability
//                   after the schedule's last crash, entries lost
//   meta_summary    the meta point's throughput against the best and worst
//                   static point, plus its switch count
//
// A report sees every successful point of the entries that select it, in
// declaration order, under its declared name, with the result of its
// base-seed run — so a --repeat sweep reports exactly what a single run
// would.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "harness/sweep_runner.h"

namespace lion {

/// OK iff `name` is a known report; kInvalidArgument listing the known
/// names otherwise.
Status CheckSweepReport(const std::string& name);

/// Runs each named report over the points that select it. `points` are the
/// declared points (after any filter), `outcomes` their runs as expanded by
/// ExpandRepeat(points, repeat). Returns (member name, JSON value) pairs in
/// `reports` order; a report whose points all failed or were filtered out
/// still emits its (empty) block.
std::vector<std::pair<std::string, std::string>> RunSweepReports(
    const std::vector<std::string>& reports,
    const std::vector<SweepPoint>& points,
    const std::vector<SweepOutcome>& outcomes, int repeat);

}  // namespace lion
