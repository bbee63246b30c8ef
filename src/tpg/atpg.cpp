#include "tpg/atpg.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "analyze/implication.hpp"
#include "circuit/compiled.hpp"
#include "fault/stem_grading.hpp"
#include "sim/parallel_sim.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lsiq::tpg {

using fault::Fault;
using fault::FaultList;
using fault::FaultSimResult;
using sim::PatternSet;

namespace {

/// Shared epilogue of both generation paths: per-class detection flags and
/// the redundancy-weighted denominators into coverage figures.
void finalize_coverage(const FaultList& faults,
                       const std::vector<char>& detected,
                       std::size_t redundant_faults, AtpgResult& result) {
  std::size_t covered = 0;
  for (std::size_t c = 0; c < faults.class_count(); ++c) {
    if (detected[c] != 0) {
      ++result.detected_classes;
      covered += faults.class_size(c);
    }
  }

  result.coverage = static_cast<double>(covered) /
                    static_cast<double>(faults.fault_count());
  // Effective coverage drops proven-redundant faults from the denominator
  // (Section 1: redundant faults "could be ignored" given a redundancy
  // proof — PODEM exhausting its decision tree is that proof).
  const double effective_denominator =
      static_cast<double>(faults.fault_count() - redundant_faults);
  result.effective_coverage =
      effective_denominator > 0.0
          ? static_cast<double>(covered) / effective_denominator
          : 1.0;
}

/// The caller's compiled view of faults.circuit(), or a new one.
std::shared_ptr<const circuit::CompiledCircuit> view_of(
    const FaultList& faults,
    std::shared_ptr<const circuit::CompiledCircuit> compiled) {
  if (compiled == nullptr) {
    return std::make_shared<const circuit::CompiledCircuit>(
        faults.circuit());
  }
  LSIQ_EXPECT(compiled->node_count() == faults.circuit().gate_count(),
              "atpg: compiled view does not match the circuit");
  return compiled;
}

/// Confirmation of one generated pattern (or pair) against the classes
/// still pending: every class at or after `target` in class order that no
/// earlier pattern detected. `pending` holds them in stem-rank order
/// (fault::sorted_live_list) and is compacted in place as classes drop
/// out. The block's good machine is graded through the stem-region
/// kernel, one sweep per stem, and every class detected in a lane of
/// `lane_mask` is marked in `detected`. For a transition universe the
/// block is standalone: lane 0 has no predecessor, so only a capture in
/// lane >= 1 can detect.
void confirm_block(fault::Propagator& propagator, const FaultList& faults,
                   std::span<const std::uint64_t> good,
                   std::uint64_t lane_mask, std::size_t target,
                   std::vector<std::uint32_t>& pending,
                   std::vector<std::uint64_t>& detects,
                   std::vector<char>& detected) {
  std::erase_if(pending, [&](std::uint32_t cls) {
    return cls < target || detected[cls] != 0;
  });
  detects.resize(pending.size());
  propagator.begin_block(good);
  fault::grade_stem_groups(
      propagator, faults, pending.data(), pending.size(), good, lane_mask,
      nullptr, faults.model() == fault_model::FaultModel::kTransition,
      nullptr, detects.data());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (detects[i] != 0) detected[pending[i]] = 1;
  }
}

/// The classic single-pattern recipe over a stuck-at universe. One
/// compiled view serves the whole run: random-phase grading, the
/// confirmation simulator and the implication engine all read it.
AtpgResult generate_stuck_at_tests(
    const FaultList& faults, const AtpgOptions& options,
    const std::shared_ptr<const circuit::CompiledCircuit>& compiled) {
  const circuit::Circuit& circuit = faults.circuit();
  const std::size_t input_count = circuit.pattern_inputs().size();

  AtpgResult result{PatternSet(input_count)};
  std::vector<char> detected(faults.class_count(), 0);

  // ---- Phase 1: random patterns ----
  if (options.random_patterns > 0) {
    util::Rng rng(options.seed);
    PatternSet random_set(input_count);
    random_set.append_random(options.random_patterns, rng);
    const FaultSimResult sim_result =
        fault::simulate_ppsfp(faults, random_set, nullptr, compiled);
    // Keep only the patterns that first-detected something (cheap static
    // compaction of the random phase), preserving order.
    std::vector<char> keep(random_set.size(), 0);
    for (std::size_t c = 0; c < faults.class_count(); ++c) {
      if (sim_result.first_detection[c] >= 0) {
        detected[c] = 1;
        keep[static_cast<std::size_t>(sim_result.first_detection[c])] = 1;
      }
    }
    for (std::size_t p = 0; p < random_set.size(); ++p) {
      if (keep[p] != 0) {
        result.patterns.append(random_set.pattern(p));
      }
    }
  }

  // ---- Phase 2: PODEM on the survivors, with fault dropping ----
  sim::ParallelSimulator good_sim(compiled);
  fault::Propagator propagator(compiled);
  std::vector<std::uint32_t> pending =
      fault::sorted_live_list(faults, *compiled, 0, faults.class_count());
  std::vector<std::uint64_t> detects;
  // One implication engine for the whole run: the static learning pass is
  // per-circuit work, not per-fault work.
  PodemOptions podem_options = options.podem;
  std::optional<analyze::ImplicationEngine> shared_engine;
  if (podem_options.use_implications &&
      podem_options.implications == nullptr) {
    shared_engine.emplace(*compiled);
    podem_options.implications = &*shared_engine;
  }
  std::size_t redundant_faults = 0;  // weighted by class size
  for (std::size_t c = 0; c < faults.class_count(); ++c) {
    if (detected[c] != 0) continue;
    const Fault& target = faults.representatives()[c];
    const PodemResult podem = generate_test(circuit, target, podem_options);
    result.total_backtracks += podem.backtracks;
    result.total_decisions += podem.decisions;
    switch (podem.status) {
      case TestStatus::kUntestable:
        ++result.redundant_classes;
        redundant_faults += faults.class_size(c);
        continue;
      case TestStatus::kAborted:
        ++result.aborted_classes;
        continue;
      case TestStatus::kDetected:
        break;
    }

    // Simulate the new pattern against every remaining fault and drop all
    // detections (the generated pattern usually covers several).
    std::vector<std::uint64_t> words(input_count);
    for (std::size_t i = 0; i < input_count; ++i) {
      words[i] = podem.pattern[i] ? 1ULL : 0ULL;
    }
    good_sim.simulate_block(words);
    confirm_block(propagator, faults, good_sim.values(), 1ULL, c, pending,
                  detects, detected);
    // PODEM guarantees detection; a miss here would be an engine bug.
    LSIQ_EXPECT(detected[c] != 0,
                "generate_tests: PODEM pattern failed confirmation for " +
                    fault::fault_name(circuit, target));
    result.patterns.append(podem.pattern);
  }

  finalize_coverage(faults, detected, redundant_faults, result);
  return result;
}

/// The two-pattern recipe over a transition universe: the random phase
/// grades consecutive launch/capture pairs and keeps both halves of every
/// first-detecting pair (they stay adjacent, so the detection survives
/// the compaction); the deterministic phase appends an ordered (launch,
/// capture) pair per survivor and drops every remaining fault the new
/// pair detects.
AtpgResult generate_transition_tests(
    const FaultList& faults, const AtpgOptions& options,
    const std::shared_ptr<const circuit::CompiledCircuit>& compiled) {
  const circuit::Circuit& circuit = faults.circuit();
  const std::size_t input_count = circuit.pattern_inputs().size();

  AtpgResult result{PatternSet(input_count)};
  std::vector<char> detected(faults.class_count(), 0);

  // ---- Phase 1: random patterns, graded as consecutive pairs ----
  if (options.random_patterns > 1) {
    util::Rng rng(options.seed);
    PatternSet random_set(input_count);
    random_set.append_random(options.random_patterns, rng);
    const FaultSimResult sim_result =
        fault::simulate_ppsfp(faults, random_set, nullptr, compiled);
    // A first detection at pattern p means the PAIR (p-1, p) detects the
    // class: keep both halves. Kept pairs remain adjacent in the
    // compacted program (dropping patterns between pairs only creates new
    // seam pairs, which can add detections but never remove these).
    std::vector<char> keep(random_set.size(), 0);
    for (std::size_t c = 0; c < faults.class_count(); ++c) {
      if (sim_result.first_detection[c] >= 0) {
        const auto p =
            static_cast<std::size_t>(sim_result.first_detection[c]);
        detected[c] = 1;
        keep[p] = 1;
        keep[p - 1] = 1;  // p >= 1: the first pattern has no launch
      }
    }
    for (std::size_t p = 0; p < random_set.size(); ++p) {
      if (keep[p] != 0) {
        result.patterns.append(random_set.pattern(p));
      }
    }
  }

  // ---- Phase 2: two-pattern PODEM on the survivors, with dropping ----
  sim::ParallelSimulator good_sim(compiled);
  fault::Propagator propagator(compiled);
  std::vector<std::uint32_t> pending =
      fault::sorted_live_list(faults, *compiled, 0, faults.class_count());
  std::vector<std::uint64_t> detects;
  // One implication engine for the whole run, shared by both halves of
  // every pair solve.
  PodemOptions podem_options = options.podem;
  std::optional<analyze::ImplicationEngine> shared_engine;
  if (podem_options.use_implications &&
      podem_options.implications == nullptr) {
    shared_engine.emplace(*compiled);
    podem_options.implications = &*shared_engine;
  }
  std::size_t redundant_faults = 0;  // weighted by class size
  for (std::size_t c = 0; c < faults.class_count(); ++c) {
    if (detected[c] != 0) continue;
    const Fault& target = faults.representatives()[c];
    const TransitionTestResult test =
        generate_transition_test(circuit, target, podem_options);
    result.total_backtracks += test.backtracks;
    result.total_decisions += test.decisions;
    switch (test.status) {
      case TestStatus::kUntestable:
        ++result.redundant_classes;
        if (test.untestable_reason == UntestableReason::kLaunch) {
          ++result.untestable_launch_classes;
        } else {
          ++result.untestable_capture_classes;
        }
        redundant_faults += faults.class_size(c);
        continue;
      case TestStatus::kAborted:
        ++result.aborted_classes;
        continue;
      case TestStatus::kDetected:
        break;
    }

    // Simulate the pair (launch in lane 0, capture in lane 1) against
    // every remaining fault and drop all detections. The pair is graded
    // as a standalone block, so lane 0 (the launch, which has no
    // predecessor) is masked; lanes >= 2 replicate an all-zero pattern,
    // so only the capture lane is credited.
    std::vector<std::uint64_t> words(input_count);
    for (std::size_t i = 0; i < input_count; ++i) {
      words[i] = (test.launch[i] ? 1ULL : 0ULL) |
                 (test.capture[i] ? 2ULL : 0ULL);
    }
    good_sim.simulate_block(words);
    confirm_block(propagator, faults, good_sim.values(), 2ULL, c, pending,
                  detects, detected);
    // The capture pattern detects the matching stuck-at by PODEM's
    // guarantee and the launch pattern justifies the launch value, so the
    // pair must confirm; a miss here would be an engine bug.
    LSIQ_EXPECT(detected[c] != 0,
                "generate_tests: transition pair failed confirmation for " +
                    fault::fault_name(circuit, target,
                                      fault_model::FaultModel::kTransition));
    result.patterns.append(test.launch);
    result.patterns.append(test.capture);
  }

  finalize_coverage(faults, detected, redundant_faults, result);
  return result;
}

/// Classic reverse-order compaction for one-pattern (stuck-at) programs.
PatternSet compact_stuck_at(
    const FaultList& faults, const PatternSet& patterns,
    const std::shared_ptr<const circuit::CompiledCircuit>& compiled) {
  // Reverse the pattern order, fault-simulate with dropping, and keep the
  // patterns that first-detect at least one class.
  PatternSet reversed(patterns.input_count());
  for (std::size_t p = patterns.size(); p > 0; --p) {
    reversed.append(patterns.pattern(p - 1));
  }
  const FaultSimResult sim_result =
      fault::simulate_ppsfp(faults, reversed, nullptr, compiled);

  std::vector<char> keep_reversed(reversed.size(), 0);
  for (std::size_t c = 0; c < faults.class_count(); ++c) {
    if (sim_result.first_detection[c] >= 0) {
      keep_reversed[static_cast<std::size_t>(
          sim_result.first_detection[c])] = 1;
    }
  }
  PatternSet out(patterns.input_count());
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const std::size_t reversed_index = patterns.size() - 1 - p;
    if (keep_reversed[reversed_index] != 0) {
      out.append(patterns.pattern(p));
    }
  }
  return out;
}

/// Pair-aware compaction for two-pattern (transition) programs. Reversing
/// the program would scramble every launch/capture pair, so the reverse
/// pass works on PAIRS instead: grade the whole program once (no
/// dropping), then walk the capture indices back to front and keep both
/// halves of the last pair that detects each still-uncovered class. Kept
/// pairs stay adjacent in the output, so every credited detection
/// survives; seams between kept pairs can only add detections.
PatternSet compact_transition(
    const FaultList& faults, const PatternSet& patterns,
    const std::shared_ptr<const circuit::CompiledCircuit>& compiled) {
  // The reverse greedy below keeps exactly the pair at each class's LAST
  // detecting capture index, so one O(class_count) vector of last
  // detections — updated as the forward grading pass walks the blocks —
  // carries everything the selection needs (no classes-by-blocks
  // detection matrix).
  // Each block is graded through the stem-region kernel with the previous
  // block's good values for the launch masks.
  sim::ParallelSimulator good_sim(compiled);
  fault::Propagator propagator(compiled);
  const std::vector<std::uint32_t> classes =
      fault::sorted_live_list(faults, *compiled, 0, faults.class_count());
  std::vector<std::uint64_t> detects(classes.size());
  std::vector<std::uint64_t> previous;
  std::vector<std::int64_t> last_detection(faults.class_count(), -1);
  for (std::size_t b = 0; b < patterns.block_count(); ++b) {
    good_sim.simulate_block(patterns.block_words(b));
    const std::vector<std::uint64_t>& good = good_sim.values();
    propagator.begin_block(good);
    fault::grade_stem_groups(propagator, faults, classes.data(),
                             classes.size(), good, patterns.block_mask(b),
                             nullptr, true,
                             b == 0 ? nullptr : previous.data(),
                             detects.data());
    for (std::size_t i = 0; i < classes.size(); ++i) {
      if (detects[i] != 0) {
        last_detection[classes[i]] = static_cast<std::int64_t>(
            b * 64 + (63 - static_cast<std::size_t>(
                               std::countl_zero(detects[i]))));
      }
    }
    previous = good;
  }

  // Keep both halves of each selected pair. A capture index is always
  // >= 1: pattern 0 has no launch (its launch mask is empty).
  std::vector<char> keep(patterns.size(), 0);
  for (std::size_t c = 0; c < faults.class_count(); ++c) {
    if (last_detection[c] < 0) continue;
    const auto p = static_cast<std::size_t>(last_detection[c]);
    keep[p] = 1;
    keep[p - 1] = 1;
  }

  PatternSet out(patterns.input_count());
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    if (keep[p] != 0) {
      out.append(patterns.pattern(p));
    }
  }
  return out;
}

}  // namespace

AtpgResult generate_tests(
    const FaultList& faults, const AtpgOptions& options,
    std::shared_ptr<const circuit::CompiledCircuit> compiled) {
  // One entry point, two recipes: the list's model tag selects single-
  // pattern stuck-at generation or two-pattern launch/capture generation.
  compiled = view_of(faults, std::move(compiled));
  if (faults.model() == fault_model::FaultModel::kTransition) {
    return generate_transition_tests(faults, options, compiled);
  }
  return generate_stuck_at_tests(faults, options, compiled);
}

PatternSet reverse_order_compact(
    const FaultList& faults, const PatternSet& patterns,
    std::shared_ptr<const circuit::CompiledCircuit> compiled) {
  LSIQ_EXPECT(faults.circuit().finalized(),
              "reverse_order_compact: internal");
  if (patterns.empty()) return patterns;
  compiled = view_of(faults, std::move(compiled));
  if (faults.model() == fault_model::FaultModel::kTransition) {
    return compact_transition(faults, patterns, compiled);
  }
  return compact_stuck_at(faults, patterns, compiled);
}

}  // namespace lsiq::tpg
