// Front-end pieces of lion_bench_cli --sweep, the one runner for every
// figure spec: repeat expansion with derived seeds, a TTY progress/ETA
// line, and per-point summary reporting with medians. The derived blocks a
// spec selects are computed by harness/sweep_reports.h.
#pragma once

#include <cstdio>
#include <vector>

#include "harness/sweep_runner.h"

namespace lion {

/// True when stderr is an interactive terminal — progress/ETA lines are
/// suppressed otherwise (CI logs, redirects).
bool StderrIsTty();

/// Replicates every point `repeat` times in place (point i's runs stay
/// consecutive): run k is named "<name>/rep=k" and carries the derived seed
/// `base_seed + k`, so repeats sample independent executions while staying
/// fully deterministic. `repeat <= 1` returns the points unchanged.
std::vector<SweepPoint> ExpandRepeat(std::vector<SweepPoint> points,
                                     int repeat);

/// Returns an on_progress hook that rewrites one stderr status line:
///   [12/40 done, ~84s left] Fig7a/Lion/cross=50
/// ETA extrapolates mean wall time per completed run over the remainder.
/// Pass enabled=false (not a TTY, --json mode) for a no-op hook.
SweepOptions::ProgressFn MakeSweepProgress(bool enabled, size_t total);

/// Merged sweep JSON with repeat runs aggregated per point. With
/// `repeat <= 1` this is exactly SweepRunner::MergeJson. Otherwise each
/// declared point becomes one record carrying per-metric "median"/"min"/
/// "max" blocks over its successful runs (element-wise across the scalar
/// result fields; series are omitted — they live in individual-run mode):
///   {"sweep_size":N,"repeat":R,"runs":[
///     {"name":"Fig7a/Lion/cross=50","status":"OK","runs_ok":5,
///      "protocol":"Lion","workload":"ycsb","seed_base":1,
///      "median":{"throughput_txn_s":...,...},"min":{...},"max":{...}}]}
/// A point whose runs all failed reports the first failure's status/error.
/// Aggregation is order-deterministic, so the threads=1 vs threads=N
/// byte-identity guarantee of MergeJson carries over.
std::string MergeRepeatJson(const std::vector<SweepOutcome>& outcomes,
                            int repeat);

/// Prints one summary line per declared point, in declaration order. With
/// repeat > 1 the line reports the per-metric median across that point's
/// runs plus the throughput min/max spread:
///   name: ktxn/s=102.4 [98.1..104.0] p50_us=870 p95_us=2410 dist_pct=4.2
///     (median of 5)
/// Failed runs print their status instead. Returns true when every run
/// succeeded.
bool PrintSweepSummaries(std::FILE* out,
                         const std::vector<SweepOutcome>& outcomes,
                         int repeat);

}  // namespace lion
