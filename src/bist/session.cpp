#include "bist/session.hpp"

#include <algorithm>
#include <bit>

#include "fault/fault_sim.hpp"
#include "sim/parallel_sim.hpp"
#include "tpg/lfsr.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace lsiq::bist {

using circuit::CompiledCircuit;
using circuit::GateId;

namespace {

/// Class weights for curve construction.
std::vector<std::size_t> class_weights(const fault::FaultList& faults) {
  std::vector<std::size_t> weights(faults.class_count());
  for (std::size_t c = 0; c < weights.size(); ++c) {
    weights[c] = faults.class_size(c);
  }
  return weights;
}

/// Grading order: every class, sorted by non-increasing fault-site level
/// (ties in class order) — the resimulation fast path, same rationale as
/// the PPSFP engines. No fault dropping here: aliasing is a property of
/// the whole error history, so every class is graded on every block.
std::vector<std::uint32_t> grading_order(const fault::FaultList& faults,
                                         const CompiledCircuit& compiled) {
  std::vector<std::uint32_t> order(faults.class_count());
  for (std::size_t c = 0; c < order.size(); ++c) {
    order[c] = static_cast<std::uint32_t>(c);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return compiled.level(faults.representatives()[a].gate) >
                            compiled.level(faults.representatives()[b].gate);
                   });
  return order;
}

}  // namespace

double BistResult::measured_aliasing_fraction() const noexcept {
  if (raw_detected_classes == 0) return 0.0;
  return static_cast<double>(aliased_classes.size()) /
         static_cast<double>(raw_detected_classes);
}

fault::CoverageCurve BistResult::raw_curve(
    const fault::FaultList& faults) const {
  return fault::CoverageCurve::from_first_detection(
      first_error_pattern, class_weights(faults), faults.fault_count(),
      pattern_count);
}

fault::CoverageCurve BistResult::signature_curve(
    const fault::FaultList& faults) const {
  return fault::CoverageCurve::from_first_detection(
      first_divergence_pattern, class_weights(faults), faults.fault_count(),
      pattern_count);
}

namespace {

/// The config's shared compiled view when given (the batch artifact
/// cache), a private compilation otherwise.
std::shared_ptr<const CompiledCircuit> session_compiled(
    const BistConfig& config, const circuit::Circuit& circuit) {
  if (config.compiled != nullptr) {
    LSIQ_EXPECT(config.compiled->node_count() == circuit.gate_count(),
                "BistSession: config.compiled does not match the circuit");
    return config.compiled;
  }
  return std::make_shared<const CompiledCircuit>(circuit);
}

}  // namespace

BistSession::BistSession(const fault::FaultList& faults, BistConfig config)
    : faults_(&faults),
      config_(config),
      compiled_(session_compiled(config, faults.circuit())),
      patterns_(tpg::lfsr_patterns(faults.circuit().pattern_inputs().size(),
                                   config.pattern_count, config.lfsr_seed,
                                   config.lfsr_width)) {
  LSIQ_EXPECT(config.pattern_count > 0,
              "BistSession: pattern_count must be > 0");
  // Validate the MISR parameters up front, not at run() time.
  (void)Misr(config_.misr_width, config_.misr_taps);
}

BistSession::BistSession(const fault::FaultList& faults,
                         sim::PatternSet patterns, BistConfig config)
    : faults_(&faults),
      config_(config),
      compiled_(session_compiled(config, faults.circuit())),
      patterns_(std::move(patterns)) {
  LSIQ_EXPECT(!patterns_.empty(),
              "BistSession: explicit pattern set must be non-empty");
  LSIQ_EXPECT(patterns_.input_count() ==
                  faults.circuit().pattern_inputs().size(),
              "BistSession: pattern set input count does not match the "
              "circuit");
  config_.pattern_count = patterns_.size();
  (void)Misr(config_.misr_width, config_.misr_taps);
}

BistResult BistSession::run() const { return run(config_.num_threads); }

BistResult BistSession::run(std::size_t num_threads) const {
  const fault::FaultList& faults = *faults_;
  const CompiledCircuit& c = *compiled_;
  const std::vector<GateId>& points = c.observed_points();
  const std::size_t point_count = points.size();
  const Misr misr(config_.misr_width, config_.misr_taps);

  const std::size_t block_count = patterns_.block_count();
  const auto lanes_in_block = [&](std::size_t b) {
    return std::min<std::size_t>(64, patterns_.size() - b * 64);
  };

  // Per-class grading state. The MISR is linear, so each class carries
  // only the signature DIFFERENCE delta = good xor faulty, driven by the
  // class's error bits: delta stays zero until the first error, and the
  // class ends signature-detected iff delta != 0 after the last pattern.
  const std::size_t classes = faults.class_count();
  std::vector<std::uint64_t> delta(classes, 0);
  std::vector<std::int64_t> first_error(classes, -1);
  std::vector<std::int64_t> first_divergence(classes, -1);

  const std::vector<std::uint32_t> order = grading_order(faults, c);

  util::ThreadPool pool(num_threads);
  const std::size_t lanes = pool.size();
  std::vector<fault::Propagator> propagators;
  propagators.reserve(lanes);
  for (std::size_t t = 0; t < lanes; ++t) {
    propagators.emplace_back(compiled_);
  }
  std::vector<std::vector<std::uint64_t>> lane_diffs(lanes);

  // Transition universes gate every per-point error word with the fault
  // line's launch mask (see fault_model/transition.hpp): a slow line only
  // corrupts the response stream on capture patterns whose predecessor
  // launched the transition; everywhere else the faulty chip's outputs —
  // and hence its signature input — match the good machine. The window is
  // advanced on the main thread between blocks and read-only in the lanes.
  const bool transition =
      faults.model() == fault_model::FaultModel::kTransition;
  fault_model::TwoPatternWindow window(transition ? c.node_count() : 0);

  // Streamed, block-outer, fault-inner, strided across lanes: each block
  // is simulated once, folded into the reference signature, and graded
  // while its values are live — session memory is O(node_count),
  // independent of session length. Each class index is owned by one lane
  // for the whole session (the stride mapping never changes — no
  // dropping), so every delta / first_* slot has a single writer and the
  // result is bit-identical for any worker count.
  sim::ParallelSimulator good_sim(compiled_);
  Misr reference = misr;
  for (std::size_t b = 0; b < block_count; ++b) {
    // Cooperative watchdog checkpoint, once per block (free when no
    // deadline is active).
    util::poll_deadline();
    good_sim.simulate_block(patterns_.block_words(b));
    const std::vector<std::uint64_t>& good = good_sim.values();
    const std::size_t valid = lanes_in_block(b);
    const std::uint64_t block_mask = patterns_.block_mask(b);
    const std::int64_t base = static_cast<std::int64_t>(b) * 64;

    for (std::size_t p = 0; p < valid; ++p) {
      std::uint64_t compacted = 0;
      for (std::size_t i = 0; i < point_count; ++i) {
        if ((good[points[i]] >> p) & 1ULL) compacted ^= misr.input_bit(i);
      }
      reference.step(compacted);
    }

    pool.run([&](std::size_t lane) {
      if (lane >= order.size()) return;
      fault::Propagator& propagator = propagators[lane];
      propagator.begin_block(good);
      std::vector<std::uint64_t>& diffs = lane_diffs[lane];
      for (std::size_t i = lane; i < order.size(); i += lanes) {
        const std::uint32_t cls = order[i];
        const fault::Fault& rep = faults.representatives()[cls];
        // Lanes without a launch see good outputs, so a zero launch mask
        // makes the whole block error-free without any propagation (the
        // same short-circuit detect_word_transition performs); the
        // evolution loop below reads diffs[] only where a detect bit
        // survives, so gating the OR word is gating every point.
        const std::uint64_t launch =
            transition ? window.launch_mask(fault_line(c, rep),
                                            rep.stuck_at_one, good.data())
                       : ~0ULL;
        const std::uint64_t detect =
            launch == 0
                ? 0
                : propagator.point_diff_words(rep, good, diffs) & launch;
        std::uint64_t d = delta[cls];
        if (d == 0 && detect == 0) continue;  // difference stays zero

        for (std::size_t p = 0; p < valid; ++p) {
          std::uint64_t compacted = 0;
          if ((detect >> p) & 1ULL) {
            for (std::size_t j = 0; j < point_count; ++j) {
              if ((diffs[j] >> p) & 1ULL) compacted ^= misr.input_bit(j);
            }
          }
          d = misr.next(d, compacted);
          if (d != 0 && first_divergence[cls] < 0) {
            first_divergence[cls] = base + static_cast<std::int64_t>(p);
          }
        }
        delta[cls] = d;

        const std::uint64_t masked = detect & block_mask;
        if (masked != 0 && first_error[cls] < 0) {
          first_error[cls] = base + std::countr_zero(masked);
        }
      }
    });
    if (transition) window.advance(good);
  }

  // Fold per-class outcomes into the result.
  BistResult result;
  result.pattern_count = patterns_.size();
  result.misr_width = misr.width();
  result.good_signature = reference.signature();
  result.fault_signatures.resize(classes);
  result.first_error_pattern = std::move(first_error);
  result.first_divergence_pattern = std::move(first_divergence);
  for (std::size_t cls = 0; cls < classes; ++cls) {
    result.fault_signatures[cls] = result.good_signature ^ delta[cls];
    const bool raw = result.first_error_pattern[cls] >= 0;
    const bool by_signature = delta[cls] != 0;
    if (raw) {
      ++result.raw_detected_classes;
      result.raw_covered_faults += faults.class_size(cls);
    }
    if (by_signature) {
      ++result.signature_detected_classes;
      result.signature_covered_faults += faults.class_size(cls);
    }
    if (raw && !by_signature) {
      result.aliased_classes.push_back(static_cast<std::uint32_t>(cls));
    }
  }
  const double universe = static_cast<double>(faults.fault_count());
  result.raw_coverage =
      static_cast<double>(result.raw_covered_faults) / universe;
  result.signature_coverage =
      static_cast<double>(result.signature_covered_faults) / universe;
  return result;
}

}  // namespace lsiq::bist
