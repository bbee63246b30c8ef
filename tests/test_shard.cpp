// Shard-fold property tests: the balanced split, the pure-scatter fold,
// and the headline guarantee — simulate_sharded's first_detection is
// byte-identical to simulate_ppsfp for every shard count, fault model, and
// a pattern program ending in a partial 64-pattern block.
#include "fault/shard.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "circuit/generators.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "fault_model/universe.hpp"
#include "sim/pattern.hpp"
#include "tpg/lfsr.hpp"
#include "util/error.hpp"

namespace lsiq::fault {
namespace {

using circuit::Circuit;
using fault_model::FaultModel;
using sim::PatternSet;

// ---- ShardPlan ----

TEST(ShardPlan, SplitIsBalancedContiguousAndCovering) {
  for (const std::size_t classes : {std::size_t{1}, std::size_t{22},
                                    std::size_t{97}, std::size_t{100}}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{7}, std::size_t{16}}) {
      const ShardPlan plan = ShardPlan::split(classes, shards);
      ASSERT_EQ(plan.shard_count(), shards);
      EXPECT_EQ(plan.class_count(), classes);
      std::size_t covered = 0;
      std::size_t min_size = classes;
      std::size_t max_size = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const ShardRange& range = plan.shard(s);
        EXPECT_EQ(range.begin, covered) << "shards must be contiguous";
        EXPECT_LE(range.begin, range.end);
        covered = range.end;
        min_size = std::min(min_size, range.size());
        max_size = std::max(max_size, range.size());
      }
      EXPECT_EQ(covered, classes) << "shards must cover every class";
      EXPECT_LE(max_size - min_size, 1u) << "sizes differ by at most one";
    }
  }
}

TEST(ShardPlan, MoreShardsThanClassesLeavesSurplusShardsEmpty) {
  const ShardPlan plan = ShardPlan::split(3, 7);
  ASSERT_EQ(plan.shard_count(), 7u);
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(plan.shard(s).size(), 1u);
  for (std::size_t s = 3; s < 7; ++s) EXPECT_EQ(plan.shard(s).size(), 0u);
}

TEST(ShardPlan, ZeroShardsIsAContractViolation) {
  EXPECT_THROW((void)ShardPlan::split(10, 0), ContractViolation);
}

TEST(ShardPlan, FoldScattersEachShardsRange) {
  const ShardPlan plan = ShardPlan::split(5, 2);  // [0,3) and [3,5)
  std::vector<std::vector<std::int64_t>> per_shard(2);
  // Entries outside a shard's own range must be ignored by the fold.
  per_shard[0] = {10, 11, 12, -7, -7};
  per_shard[1] = {-7, -7, -7, 13, -1};
  const std::vector<std::int64_t> folded = fold_shards(plan, per_shard);
  EXPECT_EQ(folded, (std::vector<std::int64_t>{10, 11, 12, 13, -1}));

  EXPECT_THROW((void)fold_shards(plan, {per_shard[0]}), ContractViolation);
  per_shard[1].pop_back();
  EXPECT_THROW((void)fold_shards(plan, per_shard), ContractViolation);
}

// ---- the fold guarantee on real universes ----

/// mult16 with a program whose final block is partial (300 = 4 full
/// 64-pattern blocks + 44 lanes), so the fold must preserve the
/// partial-block mask semantics too.
class ShardFold : public ::testing::Test {
 protected:
  ShardFold() : circuit_(circuit::make_array_multiplier(16)) {}

  void expect_fold_identical(FaultModel model) {
    const FaultList faults = fault_model::universe(circuit_, model);
    const PatternSet patterns =
        tpg::lfsr_patterns(circuit_.pattern_inputs().size(), 300, 1981);
    const FaultSimResult unsharded = simulate_ppsfp(faults, patterns);

    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{7}}) {
      ShardedOptions options;
      options.shards = shards;
      const FaultSimResult sharded =
          simulate_sharded(faults, patterns, nullptr, options);
      // Byte-identical, not merely equal coverage: the whole
      // first_detection vector is the contract.
      EXPECT_EQ(unsharded.first_detection, sharded.first_detection)
          << shards << " shards";
      EXPECT_EQ(unsharded.covered_faults, sharded.covered_faults);
      EXPECT_EQ(unsharded.detected_classes, sharded.detected_classes);
      EXPECT_DOUBLE_EQ(unsharded.coverage, sharded.coverage);
    }
  }

  Circuit circuit_;
};

TEST_F(ShardFold, StuckAtUniverseFoldsByteIdentical) {
  expect_fold_identical(FaultModel::kStuckAt);
}

TEST_F(ShardFold, TransitionUniverseFoldsByteIdentical) {
  expect_fold_identical(FaultModel::kTransition);
}

TEST_F(ShardFold, BoundaryInsideACollapsedClassFaultRangeIsSafe) {
  // A collapsed class owns a contiguous run of member faults; a shard
  // boundary at an arbitrary class index lands between two classes whose
  // fault ranges abut, so one class's members are never divided. Force
  // boundaries at every "awkward" position by grading with shard counts
  // that do not divide the class count, including class_count - 1 (one
  // shard of 2 classes, the rest singletons).
  const FaultList faults =
      fault_model::universe(circuit_, FaultModel::kStuckAt);
  const PatternSet patterns =
      tpg::lfsr_patterns(circuit_.pattern_inputs().size(), 100, 7);
  const FaultSimResult unsharded = simulate_ppsfp(faults, patterns);
  const std::size_t classes = faults.class_count();
  ASSERT_GT(classes, 2u);
  for (const std::size_t shards : {classes - 1, classes, classes + 5}) {
    ShardedOptions options;
    options.shards = shards;
    const FaultSimResult sharded =
        simulate_sharded(faults, patterns, nullptr, options);
    EXPECT_EQ(unsharded.first_detection, sharded.first_detection)
        << shards << " shards over " << classes << " classes";
  }
}

TEST_F(ShardFold, MultiThreadedShardsFoldByteIdentical) {
  const FaultList faults =
      fault_model::universe(circuit_, FaultModel::kStuckAt);
  const PatternSet patterns =
      tpg::lfsr_patterns(circuit_.pattern_inputs().size(), 300, 3);
  const FaultSimResult unsharded = simulate_ppsfp(faults, patterns);
  ShardedOptions options;
  options.shards = 3;
  options.num_threads = 4;  // MT engine inside each shard
  const FaultSimResult sharded =
      simulate_sharded(faults, patterns, nullptr, options);
  EXPECT_EQ(unsharded.first_detection, sharded.first_detection);
}

TEST(ShardSim, RejectsUnsupportedWidth) {
  // Grading is 64-lane only: every width but 1 is a contract violation on
  // every engine.
  const Circuit c = circuit::make_c17();
  const FaultList faults = fault_model::universe(c, FaultModel::kStuckAt);
  const PatternSet patterns =
      tpg::lfsr_patterns(c.pattern_inputs().size(), 64, 1);
  for (const std::size_t width : {std::size_t{3}, std::size_t{4},
                                  std::size_t{8}}) {
    ShardedOptions options;
    options.width = width;
    EXPECT_THROW((void)simulate_sharded(faults, patterns, nullptr, options),
                 ContractViolation)
        << width;
    EXPECT_THROW(
        (void)simulate_ppsfp(faults, patterns, nullptr, nullptr, width),
        ContractViolation)
        << width;
    EXPECT_THROW(
        (void)simulate_ppsfp_mt(faults, patterns, nullptr, 2, nullptr, width),
        ContractViolation)
        << width;
  }
}

}  // namespace
}  // namespace lsiq::fault
