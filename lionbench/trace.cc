// Span tracer and the registry decorators that feed it.
//
// The decorators wrap the real factories under "traced:<name>" and delegate
// every call unchanged, so a decorated run simulates exactly what the plain
// run does; main.cc checks that its sim_* metrics are identical. Spans stay
// in memory until the run ends.
#include <chrono>
#include <cstdio>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/predictor_interface.h"
#include "harness/registry.h"
#include "protocols/protocol.h"
#include "workload/workload.h"

namespace lionbench {

namespace {

constexpr const char* kPrefix = "traced:";

/// One timed call. `parent` is the index + 1 of the enclosing span (0: none).
/// WriteSpans dumps these records as they are (see README.md).
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t parent = 0;
  SpanKind kind = SpanKind::kNext;
};

TraceOptions g_options;
std::deque<Span> g_spans;
std::vector<uint32_t> g_open;  // ids (index + 1) of the open spans

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Spin(int64_t ns) {
  if (ns <= 0) return;
  const int64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) {
    if (!g_options.record) return;
    g_spans.push_back(Span{NowNs(), 0, g_open.empty() ? 0 : g_open.back(), kind});
    id_ = static_cast<uint32_t>(g_spans.size());
    g_open.push_back(id_);
  }
  ~ScopedSpan() {
    if (id_ == 0) return;
    g_spans[id_ - 1].end_ns = NowNs();
    g_open.pop_back();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint32_t id_ = 0;
};

class TracedWorkload : public lion::WorkloadGenerator {
 public:
  explicit TracedWorkload(std::unique_ptr<lion::WorkloadGenerator> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  lion::TxnPtr Next(lion::TxnId id, lion::SimTime now, lion::Rng* rng) override {
    ScopedSpan span(SpanKind::kNext);
    Spin(g_options.spin_next_ns);
    return inner_->Next(id, now, rng);
  }

 private:
  std::unique_ptr<lion::WorkloadGenerator> inner_;
};

class TracedPredictor : public lion::PredictorInterface {
 public:
  explicit TracedPredictor(std::unique_ptr<lion::PredictorInterface> inner)
      : inner_(std::move(inner)) {}

  void OnTxn(const std::vector<lion::PartitionId>& parts,
             lion::SimTime now) override {
    ScopedSpan span(SpanKind::kOnTxn);
    Spin(g_options.spin_ontxn_ns);
    inner_->OnTxn(parts, now);
  }
  void AugmentGraph(lion::HeatGraph* graph, lion::SimTime now) override {
    ScopedSpan span(SpanKind::kRound);
    inner_->AugmentGraph(graph, now);
  }
  double WorkloadVariation(lion::SimTime now) override {
    ScopedSpan span(SpanKind::kRound);
    return inner_->WorkloadVariation(now);
  }
  void ForecastPartitions(lion::SimTime now, int horizon,
                          std::vector<double>* out) override {
    ScopedSpan span(SpanKind::kRound);
    inner_->ForecastPartitions(now, horizon, out);
  }

  lion::PredictorInterface* inner() { return inner_.get(); }

 private:
  std::unique_ptr<lion::PredictorInterface> inner_;
};

/// Forwards everything to the wrapped protocol. Its own epoch timer never
/// starts and its own chaos gate stays disarmed: the inner protocol runs
/// both exactly once.
class TracedProtocol : public lion::Protocol {
 public:
  explicit TracedProtocol(std::unique_ptr<lion::Protocol> inner)
      : lion::Protocol(inner->cluster(), inner->metrics()),
        inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void Start() override { inner_->Start(); }
  void Stop() override {
    lion::Protocol::Stop();
    inner_->Stop();
  }
  void EnableDegradation(const lion::ChaosConfig* config) override {
    inner_->EnableDegradation(config);
  }
  const lion::GeoPlacement* geo_placement() const override {
    return inner_->geo_placement();
  }

  lion::Protocol* inner() { return inner_.get(); }

 protected:
  void SubmitTxn(lion::TxnPtr txn, lion::TxnDoneFn done) override {
    ScopedSpan span(SpanKind::kSubmit);
    inner_->Submit(std::move(txn), std::move(done));
  }

 private:
  std::unique_ptr<lion::Protocol> inner_;
};

bool IsTraced(const std::string& name) { return name.rfind(kPrefix, 0) == 0; }

}  // namespace

void SetTraceOptions(const TraceOptions& options) { g_options = options; }

bool DecoratorsNeeded() {
  return g_options.record || g_options.spin_next_ns > 0 ||
         g_options.spin_ontxn_ns > 0;
}

void RegisterDecorators() {
  auto& protocols = lion::ProtocolRegistry::Global();
  for (const std::string& name : protocols.Names()) {
    if (IsTraced(name) || protocols.Contains(kPrefix + name)) continue;
    lion::ExecutionMode mode = lion::ExecutionMode::kStandard;
    (void)protocols.Mode(name, &mode);
    (void)protocols.Register(
        kPrefix + name, mode,
        [name](const lion::ProtocolContext& ctx) -> std::unique_ptr<lion::Protocol> {
          std::unique_ptr<lion::Protocol> inner;
          if (!lion::ProtocolRegistry::Global().Create(name, ctx, &inner).ok())
            return nullptr;
          return std::make_unique<TracedProtocol>(std::move(inner));
        });
  }
  auto& workloads = lion::WorkloadRegistry::Global();
  for (const std::string& name : workloads.Names()) {
    if (IsTraced(name) || workloads.Contains(kPrefix + name)) continue;
    (void)workloads.Register(
        kPrefix + name,
        [name](const lion::WorkloadContext& ctx)
            -> std::unique_ptr<lion::WorkloadGenerator> {
          std::unique_ptr<lion::WorkloadGenerator> inner;
          if (!lion::WorkloadRegistry::Global().Create(name, ctx, &inner).ok())
            return nullptr;
          return std::make_unique<TracedWorkload>(std::move(inner));
        });
  }
  auto& predictors = lion::PredictorRegistry::Global();
  for (const std::string& name : predictors.Names()) {
    if (IsTraced(name) || predictors.Contains(kPrefix + name)) continue;
    (void)predictors.Register(
        kPrefix + name,
        [name](const lion::PredictorContext& ctx)
            -> std::unique_ptr<lion::PredictorInterface> {
          std::unique_ptr<lion::PredictorInterface> inner;
          if (!lion::PredictorRegistry::Global().Create(name, ctx, &inner).ok())
            return nullptr;
          return std::make_unique<TracedPredictor>(std::move(inner));
        });
  }
}

void UseDecorators(lion::ExperimentConfig* cfg) {
  cfg->protocol = kPrefix + cfg->protocol;
  cfg->workload = kPrefix + cfg->workload;
  if (cfg->predictor.kind != lion::kPredictorOff) {
    cfg->predictor.kind = kPrefix + cfg->predictor.kind;
  }
}

lion::Protocol* Undecorated(lion::Protocol* protocol) {
  auto* traced = dynamic_cast<TracedProtocol*>(protocol);
  return traced != nullptr ? traced->inner() : protocol;
}

lion::PredictorInterface* Undecorated(lion::PredictorInterface* predictor) {
  auto* traced = dynamic_cast<TracedPredictor*>(predictor);
  return traced != nullptr ? traced->inner() : predictor;
}

SpanTotals SummarizeSpans() {
  SpanTotals totals;
  std::vector<int64_t> child_ns(g_spans.size(), 0);
  for (size_t i = 0; i < g_spans.size(); ++i) {
    const Span& s = g_spans[i];
    if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < g_spans.size(); ++i) {
    const Span& s = g_spans[i];
    const int k = static_cast<int>(s.kind);
    const int64_t duration = s.end_ns - s.start_ns;
    totals.calls[k]++;
    totals.total_ns[k] += duration;
    totals.self_ns[k] += duration - child_ns[i];
    if (s.parent == 0) totals.top_level_ns += duration;
  }
  return totals;
}

bool WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = true;
  for (const Span& s : g_spans) {
    ok = ok && std::fwrite(&s, sizeof(s), 1, f) == 1;
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace lionbench
