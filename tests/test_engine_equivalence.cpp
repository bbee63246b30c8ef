// Randomized cross-engine equivalence harness.
//
// The engine matrix — serial / PPSFP / multi-threaded PPSFP / sharded,
// plus BIST signature grading, crossed with stuck-at / transition —
// promises one contract: bit-identical detection for any engine and any
// thread count. The unit suites pin that on hand-picked golden circuits;
// this harness hammers it with random combinational netlists and random
// pattern programs, so a divergence in any kernel (stem-region grading
// vs full serial resimulation, launch carry at block boundaries, chunked
// multi-lane partitioning) surfaces as a first_detection mismatch long
// before it could corrupt a quality figure. The serial engine is the
// oracle: its transition launch word is derived independently of
// fault_model::launch_mask.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bist/session.hpp"
#include "circuit/bench_io.hpp"
#include "circuit/compiled.hpp"
#include "circuit/generators.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "fault/shard.hpp"
#include "fault/strobe.hpp"
#include "fault_model/universe.hpp"
#include "sim/pattern.hpp"
#include "tpg/atpg.hpp"
#include "util/rng.hpp"

namespace lsiq::fault {
namespace {

using circuit::Circuit;
using fault_model::FaultModel;
using sim::PatternSet;

/// One randomized scenario: a circuit recipe plus a pattern-program
/// length chosen to cross the 64-pattern block boundary in most cases
/// (the launch-window carry and partial-block masks are where
/// engine-specific bookkeeping lives).
struct Scenario {
  const char* name;
  int inputs;
  int gates;
  int max_fanin;
  double inverter_fraction;
  std::uint64_t seed;
  std::size_t pattern_count;
};

const Scenario kScenarios[] = {
    {"small-dense", 8, 60, 4, 0.15, 101, 48},
    {"one-block-exact", 10, 90, 3, 0.10, 202, 64},
    {"boundary-plus-one", 10, 90, 3, 0.10, 303, 65},
    {"two-blocks", 12, 140, 4, 0.20, 404, 128},
    {"partial-tail", 12, 140, 5, 0.25, 505, 100},
    {"wide-shallow", 24, 120, 2, 0.05, 606, 96},
    {"inverter-heavy", 9, 110, 4, 0.45, 707, 80},
    {"three-blocks", 16, 200, 4, 0.15, 808, 192},
};

PatternSet random_program(std::size_t input_count, std::size_t count,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  PatternSet patterns(input_count);
  patterns.append_random(count, rng);
  return patterns;
}

/// Run every engine over one (universe, program) pair and require
/// bit-identical results. `threads` deliberately includes a worker count
/// far above the live-fault count so idle lanes are exercised too.
void expect_engines_agree(const FaultList& faults, const PatternSet& patterns,
                          const StrobeSchedule* schedule = nullptr) {
  const FaultSimResult serial = simulate_serial(faults, patterns, schedule);
  const FaultSimResult ppsfp = simulate_ppsfp(faults, patterns, schedule);
  EXPECT_EQ(serial.first_detection, ppsfp.first_detection)
      << "ppsfp diverges from the serial oracle";
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{13}}) {
    const FaultSimResult mt =
        simulate_ppsfp_mt(faults, patterns, schedule, threads);
    EXPECT_EQ(serial.first_detection, mt.first_detection)
        << "ppsfp_mt with " << threads << " threads diverges";
    EXPECT_EQ(serial.covered_faults, mt.covered_faults);
    EXPECT_EQ(serial.detected_classes, mt.detected_classes);
  }
  // BIST signature grading runs the same stem-region kernel on its own
  // lanes with no fault dropping; under full observation its first error
  // is the first detection.
  if (schedule == nullptr) {
    bist::BistConfig config;
    config.misr_width = 8;
    const bist::BistSession session(faults, patterns, config);
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{4},
                                    std::size_t{13}}) {
      EXPECT_EQ(serial.first_detection,
                session.run(lanes).first_error_pattern)
          << "BIST with " << lanes << " lanes diverges";
    }
  }
  // The sharded engine must fold per-shard vectors back to the identical
  // result for any shard count (7 leaves some shards nearly empty on the
  // smaller universes).
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{7}}) {
    ShardedOptions options;
    options.shards = shards;
    const FaultSimResult sharded =
        simulate_sharded(faults, patterns, schedule, options);
    EXPECT_EQ(serial.first_detection, sharded.first_detection)
        << "sharded engine with " << shards << " shards diverges";
    EXPECT_EQ(serial.covered_faults, sharded.covered_faults);
    EXPECT_EQ(serial.detected_classes, sharded.detected_classes);
  }
}

class EngineEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(EngineEquivalence, RandomDagBothModelsAllEngines) {
  const Scenario& s = GetParam();
  circuit::RandomDagSpec dag;
  dag.inputs = s.inputs;
  dag.gates = s.gates;
  dag.max_fanin = s.max_fanin;
  dag.inverter_fraction = s.inverter_fraction;
  dag.seed = s.seed;
  const Circuit c = circuit::make_random_dag(dag);
  const PatternSet patterns = random_program(
      c.pattern_inputs().size(), s.pattern_count, s.seed * 7919);

  for (const FaultModel model : {FaultModel::kStuckAt,
                                 FaultModel::kTransition}) {
    SCOPED_TRACE(model == FaultModel::kStuckAt ? "stuck_at" : "transition");
    const FaultList faults = fault_model::universe(c, model);
    expect_engines_agree(faults, patterns);
  }
}

TEST_P(EngineEquivalence, RandomDagUnderProgressiveStrobes) {
  // Strobe masking intersects the detect words per block; the lane masks
  // must land identically in every engine (including launch-gated
  // transition detection, where the strobe mask applies to the capture).
  const Scenario& s = GetParam();
  circuit::RandomDagSpec dag;
  dag.inputs = s.inputs;
  dag.gates = s.gates;
  dag.max_fanin = s.max_fanin;
  dag.inverter_fraction = s.inverter_fraction;
  dag.seed = s.seed ^ 0xabcdULL;
  const Circuit c = circuit::make_random_dag(dag);
  const PatternSet patterns = random_program(
      c.pattern_inputs().size(), s.pattern_count, s.seed * 104729);
  const StrobeSchedule schedule = StrobeSchedule::progressive(
      c.observed_points().size(), /*strobe_step=*/5);

  for (const FaultModel model : {FaultModel::kStuckAt,
                                 FaultModel::kTransition}) {
    SCOPED_TRACE(model == FaultModel::kStuckAt ? "stuck_at" : "transition");
    const FaultList faults = fault_model::universe(c, model);
    expect_engines_agree(faults, patterns, &schedule);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomNetlists, EngineEquivalence, ::testing::ValuesIn(kScenarios),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      std::string name = info.param.name;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(EngineEquivalence, ScanCircuitBothModelsAllEngines) {
  // The random DAGs are purely combinational; the scan accumulator adds
  // DFF pseudo-PI/PO paths (scan captures, the DFF D-pin special case in
  // every kernel) to the same engine matrix.
  const Circuit c = circuit::make_scan_accumulator(6);
  const PatternSet patterns =
      random_program(c.pattern_inputs().size(), 96, 424242);
  for (const FaultModel model : {FaultModel::kStuckAt,
                                 FaultModel::kTransition}) {
    SCOPED_TRACE(model == FaultModel::kStuckAt ? "stuck_at" : "transition");
    const FaultList faults = fault_model::universe(c, model);
    expect_engines_agree(faults, patterns);
  }
}

TEST(EngineEquivalence, AtpgProgramsGradeIdenticallyOnEveryEngine) {
  // The deterministic two-pattern programs the new transition ATPG emits
  // are exactly the adjacency-sensitive inputs the engines must agree on:
  // grade a generated (launch, capture) program with the full matrix.
  const Circuit c = circuit::make_carry_select_adder(8, 4);
  for (const FaultModel model : {FaultModel::kStuckAt,
                                 FaultModel::kTransition}) {
    SCOPED_TRACE(model == FaultModel::kStuckAt ? "stuck_at" : "transition");
    const FaultList faults = fault_model::universe(c, model);
    tpg::AtpgOptions options;
    options.random_patterns = 64;
    options.seed = 9;
    const tpg::AtpgResult generated = tpg::generate_tests(faults, options);
    ASSERT_GE(generated.patterns.size(), 2u);
    expect_engines_agree(faults, generated.patterns);
  }
}

// Every fanout-free-region boundary the stem-region kernel has to get
// right, one per labelled block: each gate comment names the FFR fact it
// pins.
constexpr const char* kStemRegionEdgeCases = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
INPUT(f)
OUTPUT(po)
OUTPUT(z)
OUTPUT(y)
# g1 is read twice by one reader: a stem, though it has one reader.
g1 = NAND(a, b)
twice = AND(g1, g1)
# po is a primary output that also drives one gate: a stem.
po = OR(c, d)
h = XOR(po, twice)
# dnet has one fanout, a DFF D pin: a stem. Input e sits inside its FFR.
dnet = NOR(h, e)
q = DFF(dnet)
# s fans out to q2's D pin and to t: a DFF D-pin branch fault. Inside s's
# FFR sit the flip-flop source q and input f.
s = AND(q, f)
q2 = DFF(s)
t = OR(s, b)
# A constant-fed site at the bottom of a three-gate region rooted at z.
one = CONST1()
k = AND(one, q2)
m = NAND(k, t)
z = NOT(m)
y = XNOR(t, a)
)";

TEST(EngineEquivalence, StemRegionEdgeCases) {
  const Circuit c = circuit::read_bench_string(kStemRegionEdgeCases,
                                               "stem_region_edges");
  const circuit::CompiledCircuit compiled(c);
  const auto stem_of = [&](const char* name) {
    return compiled.ffr_stem(c.find(name));
  };
  EXPECT_EQ(stem_of("g1"), c.find("g1"));
  EXPECT_EQ(stem_of("po"), c.find("po"));
  EXPECT_EQ(stem_of("dnet"), c.find("dnet"));
  EXPECT_EQ(stem_of("e"), c.find("dnet"));
  EXPECT_EQ(stem_of("q"), c.find("s"));
  EXPECT_EQ(stem_of("f"), c.find("s"));
  EXPECT_EQ(stem_of("one"), c.find("z"));
  EXPECT_EQ(stem_of("k"), c.find("z"));

  const StrobeSchedule progressive =
      StrobeSchedule::progressive(c.observed_points().size(), 3);
  const PatternSet patterns =
      random_program(c.pattern_inputs().size(), 150, 31337);
  for (const FaultModel model : {FaultModel::kStuckAt,
                                 FaultModel::kTransition}) {
    SCOPED_TRACE(model == FaultModel::kStuckAt ? "stuck_at" : "transition");
    const FaultList faults = fault_model::universe(c, model);
    for (const StrobeSchedule* schedule :
         {static_cast<const StrobeSchedule*>(nullptr), &progressive}) {
      SCOPED_TRACE(schedule == nullptr ? "full" : "progressive");
      const FaultSimResult serial =
          simulate_serial(faults, patterns, schedule);
      EXPECT_EQ(serial.first_detection,
                simulate_ppsfp(faults, patterns, schedule).first_detection);
      for (const std::size_t lanes : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{13}}) {
        EXPECT_EQ(serial.first_detection,
                  simulate_ppsfp_mt(faults, patterns, schedule, lanes)
                      .first_detection)
            << lanes << " lanes";
      }
      for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                       std::size_t{7}}) {
        ShardedOptions options;
        options.shards = shards;
        EXPECT_EQ(serial.first_detection,
                  simulate_sharded(faults, patterns, schedule, options)
                      .first_detection)
            << shards << " shards";
      }
    }
  }
}

/// serial vs every chunked lane count, byte for byte.
void expect_lanes_match_serial(const FaultList& faults,
                               const PatternSet& patterns,
                               const StrobeSchedule* schedule = nullptr) {
  const FaultSimResult serial = simulate_serial(faults, patterns, schedule);
  EXPECT_EQ(serial.first_detection,
            simulate_ppsfp(faults, patterns, schedule).first_detection);
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{4},
                                  std::size_t{13}}) {
    EXPECT_EQ(serial.first_detection,
              simulate_ppsfp_mt(faults, patterns, schedule, lanes)
                  .first_detection)
        << lanes << " lanes";
  }
}

TEST(EngineEquivalence, ChunkingWithFewerClassesThanLanes) {
  // Three classes, thirteen lanes asked for: one chunk, one lane.
  const Circuit c = circuit::read_bench_string(
      "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n", "inverter");
  for (const FaultModel model : {FaultModel::kStuckAt,
                                 FaultModel::kTransition}) {
    const FaultList faults = fault_model::universe(c, model);
    ASSERT_LT(faults.class_count(), 13u);
    expect_lanes_match_serial(
        faults, random_program(c.pattern_inputs().size(), 70, 5));
  }
}

TEST(EngineEquivalence, ChunkingWithOneStemGroupLargerThanAChunk) {
  // A 64-input XOR tree is a single fanout-free region: every class
  // shares the output stem, so the whole universe is one stem group,
  // longer than a chunk and never split between lanes.
  const Circuit c = circuit::make_parity_tree(64);
  const circuit::CompiledCircuit compiled(c);
  for (const FaultModel model : {FaultModel::kStuckAt,
                                 FaultModel::kTransition}) {
    const FaultList faults = fault_model::universe(c, model);
    std::size_t largest_group = 0;
    std::vector<std::size_t> group(compiled.ffr_count(), 0);
    for (const Fault& rep : faults.representatives()) {
      largest_group =
          std::max(largest_group, ++group[compiled.ffr_rank(rep.gate)]);
    }
    ASSERT_GT(largest_group, 64u);
    expect_lanes_match_serial(
        faults, random_program(c.pattern_inputs().size(), 150, 11));
  }
}

TEST(EngineEquivalence, ChunkingTransitionUnderProgressiveStrobes) {
  // Many chunks over a multi-block transition program with progressive
  // strobes: launch masks read the stored previous block at every block
  // boundary of every chunk.
  const Circuit c = circuit::make_array_multiplier(6);
  const FaultList faults =
      fault_model::universe(c, FaultModel::kTransition);
  const StrobeSchedule schedule =
      StrobeSchedule::progressive(c.observed_points().size(), 9);
  expect_lanes_match_serial(
      faults, random_program(c.pattern_inputs().size(), 300, 23),
      &schedule);
}

TEST(EngineEquivalence, ChunkingAcrossGoodMachineWindows) {
  // Programs longer than 4096 patterns grade in windows of 64 blocks.
  // Nothing is strobed before pattern 4096, so first detections land on
  // the window boundary, where a transition launch reads the previous
  // window's last block.
  const Circuit c = circuit::make_ripple_carry_adder(4);
  const PatternSet patterns =
      random_program(c.pattern_inputs().size(), 4200, 77);
  const StrobeSchedule late = StrobeSchedule::from_start_patterns(
      std::vector<std::size_t>(c.observed_points().size(), 4096));
  for (const FaultModel model : {FaultModel::kStuckAt,
                                 FaultModel::kTransition}) {
    SCOPED_TRACE(model == FaultModel::kStuckAt ? "stuck_at" : "transition");
    const FaultList faults = fault_model::universe(c, model);
    expect_lanes_match_serial(faults, patterns, &late);
    const FaultSimResult result =
        simulate_ppsfp_mt(faults, patterns, &late, 2);
    EXPECT_NE(std::find(result.first_detection.begin(),
                        result.first_detection.end(), 4096),
              result.first_detection.end());
  }
}

}  // namespace
}  // namespace lsiq::fault
