// Fault-range sharding over the PPSFP grading core.
//
// The collapsed-class range is embarrassingly parallel: per-class detect
// words are pure functions of the pattern set, so any contiguous split of
// [0, class_count) can be graded independently — different engines,
// different thread counts, different machines — and the per-shard
// first_detection vectors folded back into a result bit-identical to one
// simulate_ppsfp call over the whole range. ShardPlan owns the split,
// fold_shards the recombination, and simulate_sharded runs the whole
// in-process loop: shard -> grade (one chunked grade_class_range pass per
// shard, on num_threads lanes) -> fold -> finalize. This is the seam a
// later MPI or GPU backend drops into — replace the in-process grade call
// per shard, keep the plan and the fold.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/compiled.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "fault/strobe.hpp"
#include "sim/pattern.hpp"

namespace lsiq::fault {

/// One shard's half-open collapsed-class range.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
  friend bool operator==(const ShardRange&, const ShardRange&) = default;
};

/// A balanced contiguous split of the collapsed-class range into K shards.
class ShardPlan {
 public:
  /// Split `class_count` classes into `shard_count` contiguous ranges
  /// whose sizes differ by at most one (the first class_count %
  /// shard_count shards carry the extra class). shard_count must be >= 1;
  /// when it exceeds class_count the surplus shards are empty — legal,
  /// they simply grade nothing.
  static ShardPlan split(std::size_t class_count, std::size_t shard_count);

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return ranges_.size();
  }
  [[nodiscard]] std::size_t class_count() const noexcept {
    return class_count_;
  }
  [[nodiscard]] const ShardRange& shard(std::size_t i) const {
    return ranges_.at(i);
  }
  [[nodiscard]] const std::vector<ShardRange>& shards() const noexcept {
    return ranges_;
  }

 private:
  std::size_t class_count_ = 0;
  std::vector<ShardRange> ranges_;
};

/// Fold per-shard first-detection vectors into one full-range vector:
/// shard i contributes exactly its range's entries. Each per_shard[i]
/// must be class_count long (entries outside shard i's range are
/// ignored). The fold is a pure scatter, so the result is byte-identical
/// to grading the whole range in one call — the property the shard tests
/// pin.
std::vector<std::int64_t> fold_shards(
    const ShardPlan& plan,
    const std::vector<std::vector<std::int64_t>>& per_shard);

struct ShardedOptions {
  /// Number of shards; 0 = util::resolve_worker_count(0), one per
  /// hardware thread.
  std::size_t shards = 0;
  /// Must be 1 (anything else is a ContractViolation). Exists only until
  /// flowbench/replay.cpp stops passing EngineSpec::grade_width (ROADMAP,
  /// engine collapse).
  std::size_t width = 1;
  /// Grading lanes per shard (util::resolve_worker_count; 0 = hardware
  /// threads): 1 grades each shard on the calling thread alone.
  std::size_t num_threads = 1;
};

/// Sharded grading: split the collapsed-class range, grade each shard
/// independently through grade_class_range, fold, finalize. Bit-identical
/// first_detection to simulate_ppsfp for every shard count and thread
/// count. `compiled` as in simulate_ppsfp.
FaultSimResult simulate_sharded(
    const FaultList& faults, const sim::PatternSet& patterns,
    const StrobeSchedule* schedule = nullptr,
    const ShardedOptions& options = {},
    std::shared_ptr<const circuit::CompiledCircuit> compiled = nullptr);

}  // namespace lsiq::fault
