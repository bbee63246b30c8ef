// PODEM tests: every generated test is confirmed by the independent fault
// simulator, redundancy proofs are checked on circuits with known redundant
// faults, and the full c17 fault set is closed deterministically.
#include "tpg/podem.hpp"

#include <gtest/gtest.h>

#include "circuit/generators.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "fault_model/fault_model.hpp"
#include "reference_oracle.hpp"
#include "sim/parallel_sim.hpp"
#include "tpg/scoap.hpp"

namespace lsiq::tpg {
namespace {

using circuit::Circuit;
using circuit::GateId;
using circuit::GateType;
using fault::Fault;
using fault::FaultList;

/// Confirm a PODEM pattern with the reference engine's full faulty-block
/// resimulation (independent of PODEM and of the stem-region kernel).
bool pattern_detects(const Circuit& c, const Fault& f,
                     const std::vector<bool>& pattern) {
  sim::ParallelSimulator good(c);
  std::vector<std::uint64_t> words(pattern.size());
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    words[i] = pattern[i] ? 1ULL : 0ULL;
  }
  good.simulate_block(words);
  return (fault::reference::detect_word(c, f, words, good.values()) &
          1ULL) != 0;
}

TEST(Podem, DetectsSimpleStemFault) {
  Circuit c("and2");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId y = c.add_gate(GateType::kAnd, {a, b}, "y");
  c.mark_output(y);
  c.finalize();

  const PodemResult r = generate_test(c, Fault{y, -1, false});
  ASSERT_EQ(r.status, TestStatus::kDetected);
  // The only test for y s-a-0 is a=b=1.
  EXPECT_TRUE(r.pattern[0]);
  EXPECT_TRUE(r.pattern[1]);
  EXPECT_TRUE(pattern_detects(c, Fault{y, -1, false}, r.pattern));
}

TEST(Podem, EveryC17FaultClosedAndConfirmed) {
  const Circuit c = circuit::make_c17();
  const FaultList faults = FaultList::full_universe(c);
  for (const Fault& f : faults.representatives()) {
    const PodemResult r = generate_test(c, f);
    ASSERT_EQ(r.status, TestStatus::kDetected)
        << fault_name(c, f) << " should be testable in c17";
    EXPECT_TRUE(pattern_detects(c, f, r.pattern)) << fault_name(c, f);
  }
}

class PodemOnGeneratedCircuits : public ::testing::TestWithParam<int> {};

TEST_P(PodemOnGeneratedCircuits, AllVerdictsConfirmedByFaultSim) {
  Circuit c = [&]() -> Circuit {
    switch (GetParam()) {
      case 0: return circuit::make_ripple_carry_adder(4);
      case 1: return circuit::make_parity_tree(8);
      case 2: return circuit::make_mux_tree(3);
      case 3: return circuit::make_comparator(3);
      default: return circuit::make_majority(5);
    }
  }();
  const FaultList faults = FaultList::full_universe(c);
  std::size_t detected = 0;
  for (const Fault& f : faults.representatives()) {
    const PodemResult r = generate_test(c, f);
    if (r.status == TestStatus::kDetected) {
      ++detected;
      EXPECT_TRUE(pattern_detects(c, f, r.pattern)) << fault_name(c, f);
    }
    EXPECT_NE(r.status, TestStatus::kAborted) << fault_name(c, f);
  }
  // These textbook structures are fully testable.
  EXPECT_EQ(detected, faults.class_count());
}

INSTANTIATE_TEST_SUITE_P(Circuits, PodemOnGeneratedCircuits,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(Podem, ProvesRedundancyInConstantDrivenLogic) {
  // y = OR(a, 1): y s-a-1 is undetectable; PODEM must exhaust and say so.
  Circuit c("red");
  const GateId a = c.add_input("a");
  const GateId one = c.add_gate(GateType::kConst1, {}, "one");
  const GateId y = c.add_gate(GateType::kOr, {a, one}, "y");
  c.mark_output(y);
  c.finalize();
  const PodemResult r = generate_test(c, Fault{y, -1, true});
  EXPECT_EQ(r.status, TestStatus::kUntestable);
}

TEST(Podem, ProvesRedundancyFromReconvergentMasking) {
  // Classic redundant structure: y = OR(AND(a, b), AND(a, NOT(b))) equals
  // a; the s-a-0 on either AND output is testable, but an s-a-1 on the OR
  // output is equivalent to a s-a-1... use the known-redundant fault:
  // z = AND(a, OR(a, b)) == a. The OR gate's b-pin s-a-1 never changes z.
  Circuit c("mask");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId o = c.add_gate(GateType::kOr, {a, b}, "o");
  const GateId z = c.add_gate(GateType::kAnd, {a, o}, "z");
  c.mark_output(z);
  c.finalize();
  const PodemResult r = generate_test(c, Fault{o, 1, true});
  EXPECT_EQ(r.status, TestStatus::kUntestable);
}

TEST(Podem, CubeMarksOnlyRequiredInputs) {
  // Detecting a s-a-0 on one leaf of a wide AND forces every input.
  Circuit c("and4");
  std::vector<GateId> ins;
  for (int i = 0; i < 4; ++i) {
    ins.push_back(c.add_input("x" + std::to_string(i)));
  }
  const GateId y = c.add_gate(GateType::kAnd, ins, "y");
  c.mark_output(y);
  c.finalize();
  const PodemResult r = generate_test(c, Fault{y, -1, false});
  ASSERT_EQ(r.status, TestStatus::kDetected);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(r.cube[static_cast<std::size_t>(i)], 1);
  }
}

TEST(Podem, DontCareFillIsDeterministic) {
  // y = BUF(a) with 3 extra unused-by-the-fault inputs feeding a parity
  // tree on another output: the X-fill must be reproducible.
  const Circuit c = circuit::make_mux_tree(2);
  const FaultList faults = FaultList::full_universe(c);
  const Fault f = faults.representatives().front();
  PodemOptions options;
  options.fill_seed = 77;
  const PodemResult r1 = generate_test(c, f, options);
  const PodemResult r2 = generate_test(c, f, options);
  ASSERT_EQ(r1.status, TestStatus::kDetected);
  EXPECT_EQ(r1.pattern, r2.pattern);
}

TEST(Podem, ZeroFillOption) {
  Circuit c("or2");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId y = c.add_gate(GateType::kOr, {a, b}, "y");
  c.mark_output(y);
  c.finalize();
  PodemOptions options;
  options.random_fill = false;
  // y s-a-1 needs y = 0: both inputs 0 anyway. a s-a-1 needs a=0, b=0.
  const PodemResult r = generate_test(c, Fault{a, -1, true}, options);
  ASSERT_EQ(r.status, TestStatus::kDetected);
  EXPECT_FALSE(r.pattern[0]);
  EXPECT_FALSE(r.pattern[1]);
}

TEST(Podem, DetectsFaultsBehindScanBoundary) {
  // Fault on the cone feeding a flip-flop: observed at the scan capture.
  Circuit c("seq");
  const GateId en = c.add_input("en");
  const GateId ff = c.add_dff("ff");
  const GateId d = c.add_gate(GateType::kNand, {en, ff}, "d");
  c.connect_dff(ff, d);
  const GateId po = c.add_gate(GateType::kBuf, {ff}, "po");
  c.mark_output(po);
  c.finalize();

  const PodemResult r = generate_test(c, Fault{d, -1, false});
  ASSERT_EQ(r.status, TestStatus::kDetected);
  EXPECT_TRUE(pattern_detects(c, Fault{d, -1, false}, r.pattern));
}

TEST(Podem, ScoapGuidedBacktraceStillClosesEveryFault) {
  // The SCOAP-guided heuristic changes the search order, not the verdicts:
  // every testable fault must still get a confirmed test.
  const Circuit c = circuit::make_alu(3);
  const FaultList faults = FaultList::full_universe(c);
  const tpg::TestabilityMeasures scoap = tpg::compute_scoap(c);
  PodemOptions options;
  options.scoap = &scoap;
  std::size_t detected = 0;
  for (const Fault& f : faults.representatives()) {
    const PodemResult r = generate_test(c, f, options);
    EXPECT_NE(r.status, TestStatus::kAborted) << fault_name(c, f);
    if (r.status == TestStatus::kDetected) {
      ++detected;
      EXPECT_TRUE(pattern_detects(c, f, r.pattern)) << fault_name(c, f);
    }
  }
  EXPECT_GT(detected, 0u);

  // And the verdict sets agree with the level-based heuristic.
  for (const Fault& f : faults.representatives()) {
    const TestStatus with_scoap = generate_test(c, f, options).status;
    const TestStatus without = generate_test(c, f).status;
    EXPECT_EQ(with_scoap == TestStatus::kUntestable,
              without == TestStatus::kUntestable)
        << fault_name(c, f);
  }
}

/// Confirm a (launch, capture) pair with the reference engine: launch in
/// lane 0, capture in lane 1 of a standalone block, whose lane 0 has no
/// launch, so bit 1 is the launch-gated capture detection.
bool pair_detects(const Circuit& c, const Fault& f,
                  const std::vector<bool>& launch,
                  const std::vector<bool>& capture) {
  sim::ParallelSimulator good(c);
  std::vector<std::uint64_t> words(launch.size());
  for (std::size_t i = 0; i < launch.size(); ++i) {
    words[i] = (launch[i] ? 1ULL : 0ULL) | (capture[i] ? 2ULL : 0ULL);
  }
  good.simulate_block(words);
  const std::vector<std::vector<std::uint64_t>> blocks{good.values()};
  return (fault::reference::detect_word(c, f, words, good.values()) &
          fault::reference::launch_word(c, f, blocks, 0) & 2ULL) != 0;
}

/// out = OR(b, z) with z = AND(a, NOT a): z is constant 0, the canonical
/// constant-fed site for transition redundancy proofs.
Circuit make_constant_fed() {
  Circuit c("const_fed");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId na = c.add_gate(GateType::kNot, {a}, "na");
  const GateId z = c.add_gate(GateType::kAnd, {a, na}, "z");
  const GateId out = c.add_gate(GateType::kOr, {b, z}, "out");
  c.mark_output(out);
  c.finalize();
  return c;
}

TEST(TransitionPodem, EveryC17TransitionFaultClosedAndConfirmed) {
  const Circuit c = circuit::make_c17();
  const FaultList faults = FaultList::transition_universe(c);
  for (const Fault& f : faults.representatives()) {
    const TransitionTestResult r = generate_transition_test(c, f);
    ASSERT_EQ(r.status, TestStatus::kDetected)
        << fault_name(c, f, fault_model::FaultModel::kTransition);
    EXPECT_EQ(r.untestable_reason, UntestableReason::kNone);
    EXPECT_TRUE(pair_detects(c, f, r.launch, r.capture))
        << fault_name(c, f, fault_model::FaultModel::kTransition);
    // The launch cube constrains at least the fault line's support, and
    // the pair is ordered: swapping the halves must not be assumed to
    // work, so both patterns are fully specified.
    EXPECT_EQ(r.launch.size(), c.pattern_inputs().size());
    EXPECT_EQ(r.capture.size(), c.pattern_inputs().size());
  }
}

TEST(TransitionPodem, UnachievableLaunchIsProvenUntestable) {
  // z never rises to 1, so z slow-to-fall has no launch pattern: the
  // justification decision tree exhausts and the proof is labelled as
  // the launch half.
  const Circuit c = make_constant_fed();
  const GateId z = c.find("z");
  const TransitionTestResult r =
      generate_transition_test(c, Fault{z, -1, true});
  EXPECT_EQ(r.status, TestStatus::kUntestable);
  EXPECT_EQ(r.untestable_reason, UntestableReason::kLaunch);
}

TEST(TransitionPodem, RedundantCaptureIsProvenUntestable) {
  // z slow-to-rise launches trivially (z is always 0), but the capture
  // stuck-at-0 can never be activated on a constant-0 line: the proof is
  // labelled as the capture half.
  const Circuit c = make_constant_fed();
  const GateId z = c.find("z");
  const TransitionTestResult r =
      generate_transition_test(c, Fault{z, -1, false});
  EXPECT_EQ(r.status, TestStatus::kUntestable);
  EXPECT_EQ(r.untestable_reason, UntestableReason::kCapture);
}

TEST(TransitionPodem, TestableSiteNextToConstantIsClosed) {
  // b transitions both ways through the OR (z = 0 sensitizes it), so the
  // constant net must not poison its neighbours.
  const Circuit c = make_constant_fed();
  const GateId b = c.find("b");
  for (const bool slow_to_fall : {false, true}) {
    const Fault f{b, -1, slow_to_fall};
    const TransitionTestResult r = generate_transition_test(c, f);
    ASSERT_EQ(r.status, TestStatus::kDetected);
    EXPECT_TRUE(pair_detects(c, f, r.launch, r.capture));
  }
}

TEST(TransitionPodem, JustifyLineDrivesAndProves) {
  const Circuit c = make_constant_fed();
  const GateId z = c.find("z");
  const GateId out = c.find("out");
  // out = 1 is justifiable (b = 1)...
  const PodemResult hi = justify_line(c, out, sim::Tri::kOne);
  ASSERT_EQ(hi.status, TestStatus::kDetected);
  // ...and the returned pattern really drives it there.
  sim::ParallelSimulator good(c);
  std::vector<std::uint64_t> words(hi.pattern.size());
  for (std::size_t i = 0; i < hi.pattern.size(); ++i) {
    words[i] = hi.pattern[i] ? 1ULL : 0ULL;
  }
  good.simulate_block(words);
  EXPECT_EQ(good.values()[out] & 1ULL, 1ULL);
  // z = 1 is a proof of constancy, not a search failure.
  EXPECT_EQ(justify_line(c, z, sim::Tri::kOne).status,
            TestStatus::kUntestable);
  EXPECT_EQ(justify_line(c, z, sim::Tri::kZero).status,
            TestStatus::kDetected);
}

TEST(Podem, BacktrackLimitProducesAbort) {
  // With a backtrack budget of zero on a fault that needs any search at
  // all, PODEM must abort rather than loop.
  const Circuit c = circuit::make_parity_tree(8);
  const FaultList faults = FaultList::full_universe(c);
  PodemOptions options;
  options.max_backtracks = -1;  // below any possible count
  bool saw_abort = false;
  for (const Fault& f : faults.representatives()) {
    const PodemResult r = generate_test(c, f, options);
    if (r.status == TestStatus::kAborted) {
      saw_abort = true;
      break;
    }
  }
  EXPECT_TRUE(saw_abort);
}

}  // namespace
}  // namespace lsiq::tpg
