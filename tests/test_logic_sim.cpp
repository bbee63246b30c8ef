// Tests for the parallel-pattern logic simulator, including a cross-check
// against the five-valued simulator PODEM evaluates with — an independent
// code path (pointer-per-pin netlist, topological pass, no compiled view).
#include <gtest/gtest.h>

#include "circuit/generators.hpp"
#include "sim/five_value_sim.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/pattern.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lsiq::sim {
namespace {

using circuit::Circuit;
using circuit::GateId;
using circuit::GateType;

TEST(ParallelSim, EvaluatesEveryGateTypeWordwise) {
  Circuit c("alltypes");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId g_and = c.add_gate(GateType::kAnd, {a, b}, "and");
  const GateId g_nand = c.add_gate(GateType::kNand, {a, b}, "nand");
  const GateId g_or = c.add_gate(GateType::kOr, {a, b}, "or");
  const GateId g_nor = c.add_gate(GateType::kNor, {a, b}, "nor");
  const GateId g_xor = c.add_gate(GateType::kXor, {a, b}, "xor");
  const GateId g_xnor = c.add_gate(GateType::kXnor, {a, b}, "xnor");
  const GateId g_not = c.add_gate(GateType::kNot, {a}, "not");
  const GateId g_buf = c.add_gate(GateType::kBuf, {b}, "buf");
  const GateId zero = c.add_gate(GateType::kConst0, {}, "zero");
  const GateId one = c.add_gate(GateType::kConst1, {}, "one");
  for (const GateId g :
       {g_and, g_nand, g_or, g_nor, g_xor, g_xnor, g_not, g_buf, zero, one}) {
    c.mark_output(g);
  }
  c.finalize();

  ParallelSimulator sim(c);
  const std::uint64_t wa = 0b0101;
  const std::uint64_t wb = 0b0011;
  sim.simulate_block({wa, wb});
  EXPECT_EQ(sim.value(g_and) & 0xF, (wa & wb) & 0xF);
  EXPECT_EQ(sim.value(g_nand) & 0xF, ~(wa & wb) & 0xF);
  EXPECT_EQ(sim.value(g_or) & 0xF, (wa | wb) & 0xF);
  EXPECT_EQ(sim.value(g_nor) & 0xF, ~(wa | wb) & 0xF);
  EXPECT_EQ(sim.value(g_xor) & 0xF, (wa ^ wb) & 0xF);
  EXPECT_EQ(sim.value(g_xnor) & 0xF, ~(wa ^ wb) & 0xF);
  EXPECT_EQ(sim.value(g_not) & 0xF, ~wa & 0xF);
  EXPECT_EQ(sim.value(g_buf) & 0xF, wb & 0xF);
  EXPECT_EQ(sim.value(zero), 0u);
  EXPECT_EQ(sim.value(one), ~0ULL);
}

TEST(ParallelSim, SixtyFourLanesAreIndependent) {
  // Feed each lane a different (a, b) pair and check the AND lane by lane.
  Circuit c;
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId y = c.add_gate(GateType::kAnd, {a, b}, "y");
  c.mark_output(y);
  c.finalize();

  util::Rng rng(3);
  const std::uint64_t wa = rng.next_u64();
  const std::uint64_t wb = rng.next_u64();
  ParallelSimulator sim(c);
  sim.simulate_block({wa, wb});
  for (int lane = 0; lane < 64; ++lane) {
    const bool expect = ((wa >> lane) & 1) && ((wb >> lane) & 1);
    EXPECT_EQ(((sim.value(y) >> lane) & 1) != 0, expect) << "lane " << lane;
  }
}

TEST(ParallelSim, SimulateSingleMatchesBlockLane0) {
  const Circuit c = circuit::make_c17();
  ParallelSimulator sim(c);
  for (std::uint64_t x = 0; x < 32; ++x) {
    std::vector<bool> in(5);
    for (int i = 0; i < 5; ++i) in[i] = ((x >> i) & 1) != 0;
    const std::vector<bool> single = sim.simulate_single(in);

    std::vector<std::uint64_t> words(5);
    for (int i = 0; i < 5; ++i) words[i] = in[i] ? 1 : 0;
    sim.simulate_block(words);
    const auto observed = sim.observed_values();
    for (std::size_t o = 0; o < observed.size(); ++o) {
      EXPECT_EQ((observed[o] & 1) != 0, single[o]);
    }
  }
}

TEST(ParallelSim, DffOutputIsPatternControlled) {
  Circuit c("seq");
  const GateId a = c.add_input("a");
  const GateId ff = c.add_dff("ff");
  const GateId x = c.add_gate(GateType::kXor, {a, ff}, "x");
  c.connect_dff(ff, x);
  c.mark_output(x);
  c.finalize();

  ParallelSimulator sim(c);
  // Pattern inputs are [a, ff]; XOR truth table across four lanes.
  sim.simulate_block({0b0101, 0b0011});
  EXPECT_EQ(sim.value(x) & 0xF, 0b0110u);
  // Observed points: PO x and the D input of ff (also x).
  const auto observed = sim.observed_values();
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], observed[1]);
}

TEST(ParallelSim, RejectsWrongInputWordCount) {
  const Circuit c = circuit::make_c17();
  ParallelSimulator sim(c);
  EXPECT_THROW(sim.simulate_block({0, 0}), ContractViolation);
}

/// The five-valued simulator only implies with a fault injected, but its
/// good rail never reads the fault: with any stem fault that rail is the
/// fault-free machine.
FiveValueSimulator good_rail_simulator(const Circuit& c) {
  FiveValueSimulator fsim(c);
  fsim.set_fault(c.pattern_inputs().front(), -1, false);
  return fsim;
}

/// Every gate's lane-0 value from `psim` after one fully specified pattern
/// must equal the good rail of the five-valued simulator.
void expect_matches_five_value(const Circuit& c, ParallelSimulator& psim,
                               FiveValueSimulator& fsim,
                               const std::vector<bool>& in) {
  std::vector<std::uint64_t> words(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    words[i] = in[i] ? 1 : 0;
    fsim.assign_input(i, in[i] ? Tri::kOne : Tri::kZero);
  }
  psim.simulate_block(words);
  fsim.imply();
  for (GateId g = 0; g < c.gate_count(); ++g) {
    const Tri expect = (psim.value(g) & 1) != 0 ? Tri::kOne : Tri::kZero;
    EXPECT_TRUE(fsim.value(g).good == expect) << "gate " << c.gate(g).name;
  }
}

TEST(ParallelSim, MatchesFiveValueOnC17Exhaustively) {
  const Circuit c = circuit::make_c17();
  ParallelSimulator psim(c);
  FiveValueSimulator fsim = good_rail_simulator(c);
  for (std::uint64_t x = 0; x < 32; ++x) {
    std::vector<bool> in(5);
    for (int i = 0; i < 5; ++i) in[i] = ((x >> i) & 1) != 0;
    SCOPED_TRACE("x=" + std::to_string(x));
    expect_matches_five_value(c, psim, fsim, in);
  }
}

class EngineCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineCrossCheck, RandomDagsAgreeOnRandomStimuli) {
  circuit::RandomDagSpec spec;
  spec.inputs = 14;
  spec.gates = 220;
  spec.seed = GetParam();
  const Circuit c = make_random_dag(spec);

  ParallelSimulator psim(c);
  FiveValueSimulator fsim = good_rail_simulator(c);
  util::Rng rng(GetParam() * 7919 + 1);
  std::vector<bool> in(c.pattern_inputs().size());
  for (int step = 0; step < 50; ++step) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = rng.bernoulli(0.5);
    }
    expect_matches_five_value(c, psim, fsim, in);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineCrossCheck,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(PatternBlocks, WholePatternSetThroughBlockInterface) {
  const Circuit c = circuit::make_ripple_carry_adder(4);
  util::Rng rng(21);
  PatternSet patterns(c.pattern_inputs().size());
  patterns.append_random(150, rng);  // spans three blocks, last partial

  ParallelSimulator sim(c);
  for (std::size_t b = 0; b < patterns.block_count(); ++b) {
    sim.simulate_block(patterns.block_words(b));
    const std::uint64_t mask = patterns.block_mask(b);
    for (std::size_t lane = 0; lane < 64; ++lane) {
      if (((mask >> lane) & 1) == 0) continue;
      const std::size_t p = b * 64 + lane;
      const std::vector<bool> expect =
          ParallelSimulator(c).simulate_single(patterns.pattern(p));
      const auto observed = sim.observed_values();
      for (std::size_t o = 0; o < observed.size(); ++o) {
        EXPECT_EQ(((observed[o] >> lane) & 1) != 0, expect[o]);
      }
    }
  }
}

}  // namespace
}  // namespace lsiq::sim
