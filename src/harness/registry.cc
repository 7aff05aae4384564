#include "harness/registry.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "core/predictor_interface.h"
#include "protocols/protocol.h"
#include "workload/workload.h"

namespace lion {

namespace {

// Registrar stanzas run before main(); a failed registration is a
// programming error (duplicate or malformed name) and aborts immediately.
void DieOnRegisterError(const Status& s) {
  if (!s.ok()) {
    std::fprintf(stderr, "fatal: %s\n", s.ToString().c_str());
    std::abort();
  }
}

}  // namespace

std::string JoinRegistryNames(const std::vector<std::string>& names) {
  std::string joined;
  for (const std::string& n : names) {
    if (!joined.empty()) joined += ", ";
    joined += n;
  }
  return joined;
}

ProtocolRegistry& ProtocolRegistry::Global() {
  static ProtocolRegistry* registry = new ProtocolRegistry();
  return *registry;
}

Status ProtocolRegistry::Mode(const std::string& name,
                              ExecutionMode* out) const {
  auto it = entries_.find(name);
  if (it == entries_.end())
    return Status::NotFound("unknown protocol: " + name);
  *out = it->second.payload;
  return Status::OK();
}

bool ProtocolRegistry::IsBatch(const std::string& name) const {
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.payload == ExecutionMode::kBatch;
}

WorkloadRegistry& WorkloadRegistry::Global() {
  static WorkloadRegistry* registry = new WorkloadRegistry();
  return *registry;
}

PredictorRegistry& PredictorRegistry::Global() {
  static PredictorRegistry* registry = new PredictorRegistry();
  return *registry;
}

ProtocolRegistrar::ProtocolRegistrar(const std::string& name,
                                     ExecutionMode mode,
                                     ProtocolFactory factory) {
  DieOnRegisterError(
      ProtocolRegistry::Global().Register(name, mode, std::move(factory)));
}

WorkloadRegistrar::WorkloadRegistrar(const std::string& name,
                                     WorkloadFactory factory) {
  DieOnRegisterError(
      WorkloadRegistry::Global().Register(name, std::move(factory)));
}

PredictorRegistrar::PredictorRegistrar(const std::string& name,
                                       PredictorFactory factory) {
  DieOnRegisterError(
      PredictorRegistry::Global().Register(name, std::move(factory)));
}

}  // namespace lion
