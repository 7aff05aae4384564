// End-to-end benchmark of the Lion simulator: workload table, span tracer
// with registry decorators, and the per-layer replay. See README.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "harness/experiment.h"

namespace lionbench {

// --- workloads (workloads.cc) ------------------------------------------------

struct Workload {
  const char* name;
  /// Sub-runs pooled into one run's sim_* metrics, each with its own seed
  /// derived from --seed (see SubSeed). Rare adaptation events (remasters,
  /// migrations, distributed fallbacks) vary by seed; pooling steadies them.
  int sub_runs;
  lion::ExperimentConfig (*make)(uint64_t seed);
};

const Workload* FindWorkload(const std::string& name);
std::string WorkloadNames();
uint64_t SubSeed(uint64_t seed, int index);

// --- tracing (trace.cc) ------------------------------------------------------

enum class SpanKind : uint8_t {
  kNext,    // WorkloadGenerator::Next
  kSubmit,  // Protocol::Submit
  kOnTxn,   // PredictorInterface::OnTxn
  kRound,   // per-planning-round predictor calls
};
inline constexpr int kNumSpanKinds = 4;

/// Per-kind aggregate of a recorded span set.
struct SpanTotals {
  uint64_t calls[kNumSpanKinds] = {};
  int64_t total_ns[kNumSpanKinds] = {};  // inclusive
  int64_t self_ns[kNumSpanKinds] = {};   // minus child spans
  int64_t top_level_ns = 0;              // spans without a parent
};

/// Process-wide switches for the decorators registered by
/// RegisterDecorators: span recording and per-call busy-wait injection.
struct TraceOptions {
  bool record = false;
  int64_t spin_next_ns = 0;   // added to every WorkloadGenerator::Next
  int64_t spin_ontxn_ns = 0;  // added to every PredictorInterface::OnTxn
};

void SetTraceOptions(const TraceOptions& options);
bool DecoratorsNeeded();
/// Registers "traced:<name>" wrappers for the protocols, workloads and
/// predictors the benchmark workloads use. Idempotent.
void RegisterDecorators();
/// Rewrites `cfg` to resolve through the traced wrappers.
void UseDecorators(lion::ExperimentConfig* cfg);
/// Unwraps a traced protocol/predictor to the real instance (identity for
/// undecorated ones).
lion::Protocol* Undecorated(lion::Protocol* protocol);
lion::PredictorInterface* Undecorated(lion::PredictorInterface* predictor);

SpanTotals SummarizeSpans();
/// Writes every recorded span as fixed-size binary records; false on error.
bool WriteSpans(const std::string& path);

// --- layer replay (replay.cc) ------------------------------------------------

/// Times the public functions of each layer on a stream drawn from the
/// workload's own generator, against a freshly built cluster of `cfg`.
/// Keys are the per-layer metric names.
std::map<std::string, double> RunLayerReplay(const lion::ExperimentConfig& cfg,
                                             bool lion_layers);

}  // namespace lionbench
