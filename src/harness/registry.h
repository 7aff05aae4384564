// Self-registering factories for protocols, workloads, and predictors.
//
// Each protocol/workload/predictor .cc file places a file-scope registrar
// stanza:
//
//   namespace {
//   const ProtocolRegistrar kRegisterTwoPc(
//       "2PC", ExecutionMode::kStandard,
//       [](const ProtocolContext& ctx) -> std::unique_ptr<Protocol> {
//         return std::make_unique<TwoPcProtocol>(ctx.cluster, ctx.metrics);
//       });
//   }  // namespace
//
// so adding a protocol or workload is a one-file operation: no harness
// edits, no string switch to extend. Lookup failures surface as Status
// (kNotFound), never as crashes.
//
// All three registries share one RegistryBase template: the map, the
// Register/Unregister/Create/CheckExists plumbing, and the exact error
// message shapes live in one place, parameterized by the registry's kind
// noun ("protocol"/"workload"/"predictor") and an optional per-entry
// payload (the protocol registry stores each entry's ExecutionMode there).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "harness/experiment_config.h"

namespace lion {

class Cluster;
class MetricsCollector;
class PredictorInterface;
class Protocol;
class WorkloadGenerator;

/// Whether a protocol buffers transactions into epochs (batch) or executes
/// each as it arrives (standard). Drives the default closed-loop window.
enum class ExecutionMode { kStandard, kBatch };

/// Joins names with ", " for error messages and listings.
std::string JoinRegistryNames(const std::vector<std::string>& names);

/// Payload type for registries whose entries carry nothing beyond the
/// factory.
struct NoPayload {};

/// Common machinery behind the three registries. `Product` is the abstract
/// type the factories build, `Context` the argument they receive, and
/// `Payload` any per-entry metadata a concrete registry wants alongside the
/// factory. Error messages are parameterized by `kind` (a singular noun)
/// and an optional suffix appended inside the kNotFound listing's closing
/// parenthesis — the predictor registry uses it to mention its "off"
/// sentinel.
template <typename Product, typename Context, typename Payload = NoPayload>
class RegistryBase {
 public:
  using Factory = std::function<std::unique_ptr<Product>(const Context&)>;

  /// Registers `name`; kAlreadyExists if the name is taken.
  Status Register(const std::string& name, Payload payload, Factory factory) {
    if (name.empty()) return Status::InvalidArgument("empty " + kind_ + " name");
    if (factory == nullptr)
      return Status::InvalidArgument("null factory for " + kind_ + " " + name);
    auto [it, inserted] =
        entries_.emplace(name, Entry{std::move(payload), std::move(factory)});
    if (!inserted)
      return Status::AlreadyExists(kind_ + " already registered: " + name);
    return Status::OK();
  }

  /// Removes `name` (test support); kNotFound if absent.
  Status Unregister(const std::string& name) {
    if (entries_.erase(name) == 0)
      return Status::NotFound(kind_ + " not registered: " + name);
    return Status::OK();
  }

  /// OK iff `name` is registered; otherwise the canonical kNotFound
  /// listing the known names (the same status Create would return).
  Status CheckExists(const std::string& name) const {
    if (entries_.count(name) > 0) return Status::OK();
    return Status::NotFound("unknown " + kind_ + " \"" + name +
                            "\" (known: " + JoinedNames() + not_found_hint_ +
                            ")");
  }

  /// Instantiates `name` against `ctx`. kNotFound lists the known names.
  Status Create(const std::string& name, const Context& ctx,
                std::unique_ptr<Product>* out) const {
    Status exists = CheckExists(name);
    if (!exists.ok()) return exists;
    auto it = entries_.find(name);
    std::unique_ptr<Product> product = it->second.factory(ctx);
    if (product == nullptr)
      return Status::Internal("factory for " + kind_ + " " + name +
                              " returned null");
    *out = std::move(product);
    return Status::OK();
  }

  bool Contains(const std::string& name) const {
    return entries_.count(name) > 0;
  }

  /// All registered names, sorted.
  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) names.push_back(name);
    return names;  // std::map iterates sorted
  }

  /// Comma-joined Names(), for error messages and listings.
  std::string JoinedNames() const { return JoinRegistryNames(Names()); }

  size_t size() const { return entries_.size(); }

 protected:
  struct Entry {
    Payload payload;
    Factory factory;
  };

  RegistryBase(std::string kind, std::string not_found_hint)
      : kind_(std::move(kind)), not_found_hint_(std::move(not_found_hint)) {}

  std::map<std::string, Entry> entries_;

 private:
  std::string kind_;
  // Appended before the closing ")" of the kNotFound known-names listing.
  std::string not_found_hint_;
};

/// Everything a protocol factory may need: the full experiment config (each
/// factory reads its own slice) plus the cluster substrate and metrics sink
/// the instance will run against.
struct ProtocolContext {
  const ExperimentConfig& config;
  Cluster* cluster = nullptr;
  MetricsCollector* metrics = nullptr;
};

using ProtocolFactory =
    std::function<std::unique_ptr<Protocol>(const ProtocolContext&)>;

class ProtocolRegistry
    : public RegistryBase<Protocol, ProtocolContext, ExecutionMode> {
 public:
  /// The process-wide registry all registrar stanzas feed.
  static ProtocolRegistry& Global();

  using RegistryBase::Register;  // (name, mode, factory)

  /// Execution mode of `name`; kNotFound if unregistered.
  Status Mode(const std::string& name, ExecutionMode* out) const;

  /// Convenience trait query: true iff `name` is registered as batch.
  bool IsBatch(const std::string& name) const;

 private:
  ProtocolRegistry() : RegistryBase("protocol", "") {}
};

/// Context handed to workload factories. `cluster` is live so workloads
/// that preload storage (TPC-C) can do so inside their factory.
struct WorkloadContext {
  const ExperimentConfig& config;
  Cluster* cluster = nullptr;
};

using WorkloadFactory =
    std::function<std::unique_ptr<WorkloadGenerator>(const WorkloadContext&)>;

class WorkloadRegistry : public RegistryBase<WorkloadGenerator, WorkloadContext> {
 public:
  static WorkloadRegistry& Global();

  Status Register(const std::string& name, WorkloadFactory factory) {
    return RegistryBase::Register(name, NoPayload{}, std::move(factory));
  }

 private:
  WorkloadRegistry() : RegistryBase("workload", "") {}
};

/// The `predictor.kind` value that disables workload prediction without
/// unregistering anything: protocol factories skip predictor construction
/// entirely. Not a registry name — the registries only hold real
/// implementations.
inline constexpr const char* kPredictorOff = "off";

/// Context handed to predictor factories: the predictor's own config slice
/// plus the already-derived seed (the protocol factory offsets the
/// experiment seed so predictor RNG streams never alias workload streams).
struct PredictorContext {
  const PredictorConfig& config;
  uint64_t seed = 0;
};

using PredictorFactory =
    std::function<std::unique_ptr<PredictorInterface>(const PredictorContext&)>;

class PredictorRegistry
    : public RegistryBase<PredictorInterface, PredictorContext> {
 public:
  static PredictorRegistry& Global();

  /// Registers `name`; rejects the reserved "off" sentinel.
  Status Register(const std::string& name, PredictorFactory factory) {
    if (name == kPredictorOff)
      return Status::InvalidArgument(
          "\"off\" is reserved (disables prediction), not a predictor name");
    return RegistryBase::Register(name, NoPayload{}, std::move(factory));
  }

 private:
  PredictorRegistry()
      : RegistryBase("predictor", "; \"off\" disables prediction") {}
};

/// File-scope registration helpers. Construction registers into the global
/// registry; a duplicate name aborts at startup (a duplicate registrar is
/// a programming error, caught before any experiment runs).
struct ProtocolRegistrar {
  ProtocolRegistrar(const std::string& name, ExecutionMode mode,
                    ProtocolFactory factory);
};

struct WorkloadRegistrar {
  WorkloadRegistrar(const std::string& name, WorkloadFactory factory);
};

struct PredictorRegistrar {
  PredictorRegistrar(const std::string& name, PredictorFactory factory);
};

}  // namespace lion
