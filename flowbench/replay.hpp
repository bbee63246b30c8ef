// The traced replay: flow::run's composition rebuilt from the library's
// public calls, one span around each call, so per-layer time is measured
// from outside the program.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "circuit/compiled.hpp"
#include "circuit/netlist.hpp"
#include "fault/fault_list.hpp"

namespace flowbench {

/// Per-layer sums over traced specs: span self times in ms under their
/// span names ("analyze.gate", ...) plus counters ("n.specs", ...).
struct LayerSums {
  std::map<std::string, double> values;

  void add(const std::string& key, double value) { values[key] += value; }
  [[nodiscard]] double get(const std::string& key) const {
    const auto it = values.find(key);
    return it == values.end() ? 0.0 : it->second;
  }
  void merge(const LayerSums& other) {
    for (const auto& [key, value] : other.values) values[key] += value;
  }
};

/// The replay's artifact cache: the same (circuit, model) key and
/// build-under-lock policy as flow::ArtifactCache, but built from the
/// three public calls so each gets its own span.
class ReplayCache {
 public:
  struct Artifacts {
    std::unique_ptr<const lsiq::circuit::Circuit> circuit;
    std::unique_ptr<const lsiq::fault::FaultList> faults;
    std::shared_ptr<const lsiq::circuit::CompiledCircuit> compiled;
  };
  std::mutex mutex;
  std::map<std::pair<std::string, int>, std::shared_ptr<const Artifacts>>
      entries;
};

/// Replay one spec file: returns the same record flow::run_spec_with_retry
/// would, adds its spans and counters to `sums` and its traced wall time
/// (the root span, report excluded) to `*spec_ms`.
lsiq::flow::BatchRecord replay_spec(const std::string& path,
                                    ReplayCache& cache, LayerSums& sums,
                                    double* spec_ms);

}  // namespace flowbench
