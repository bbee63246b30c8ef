#include "bist/session.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <span>

#include "fault/fault_sim.hpp"
#include "fault/stem_grading.hpp"
#include "fault_model/transition.hpp"
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

/// A lane's scratch: the swept stem's per-point words, and per pattern p
/// of the block the MISR input word its flip produces — the XOR of
/// input_bit(i) over the points i the flipped stem reaches in pattern p.
struct StemInputs {
  std::vector<std::uint64_t> point_words;
  std::array<std::uint64_t, 64> inputs{};
};

/// Per-class grading state. The MISR is linear, so each class carries
/// only the signature DIFFERENCE delta = good xor faulty, driven by the
/// class's error bits: delta stays zero until the first error, and the
/// class ends signature-detected iff delta != 0 after the last pattern.
struct ClassStates {
  std::vector<std::uint64_t> delta;
  std::vector<std::int64_t> first_error;
  std::vector<std::int64_t> first_divergence;
};

/// Grade live[0, count) — whole stem groups in sorted_live_list order —
/// over block b, whose good machine `propagator` was begin_block'ed on.
/// Every class is graded on every block: aliasing is a property of the
/// whole error history, so nothing is dropped. A class's error word at
/// observed point i is its local word AND the stem's point word i (a DFF
/// D-pin capture errs at its own scan point only), so each stem is swept
/// once per block and its MISR inputs computed once for the group.
void grade_block(fault::Propagator& propagator,
                 const fault::FaultList& faults, const Misr& misr,
                 const std::uint32_t* live, std::size_t count,
                 std::span<const std::uint64_t> good,
                 const std::uint64_t* previous, bool transition,
                 std::size_t b, std::size_t valid, std::uint64_t block_mask,
                 StemInputs& stem_inputs, ClassStates& states) {
  const CompiledCircuit& c = *propagator.compiled();
  const std::int64_t base = static_cast<std::int64_t>(b) * 64;
  GateId stem = circuit::kNoGate;
  bool swept = false;
  std::uint64_t observed = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t cls = live[k];
    const fault::Fault& rep = faults.representatives()[cls];
    const GateId rep_stem = c.ffr_stem(rep.gate);
    if (rep_stem != stem) {
      stem = rep_stem;
      swept = false;
    }
    // Transition universes gate the error words with the fault line's
    // launch mask (see fault_model/transition.hpp): lanes without a
    // launch see good outputs, so a zero mask leaves the block error-free.
    const std::uint64_t launch =
        transition ? fault_model::launch_mask(fault_line(c, rep),
                                              rep.stuck_at_one, good.data(),
                                              previous)
                   : ~0ULL;
    bool captured = false;
    std::uint64_t detect = 0;
    if (launch != 0) {
      detect = propagator.local_word(rep, good, nullptr, &captured) & launch;
      if (detect != 0 && !captured) {
        if (!swept) {
          observed = propagator.stem_observation(
              stem, good, nullptr, stem_inputs.point_words.data());
          stem_inputs.inputs.fill(0);
          for (std::size_t i = 0; i < stem_inputs.point_words.size(); ++i) {
            for (std::uint64_t w = stem_inputs.point_words[i]; w != 0;
                 w &= w - 1) {
              stem_inputs.inputs[std::countr_zero(w)] ^= misr.input_bit(i);
            }
          }
          swept = true;
        }
        detect &= observed;
      }
    }
    std::uint64_t d = states.delta[cls];
    if (d == 0 && detect == 0) continue;  // difference stays zero

    std::uint64_t captured_input = 0;
    if (captured) {
      const std::uint32_t point = c.point_index(rep.gate);
      LSIQ_EXPECT(point != CompiledCircuit::kNoPoint,
                  "BistSession: DFF gate has no scan-capture point");
      captured_input = misr.input_bit(point);
    }
    std::int64_t& first_divergence = states.first_divergence[cls];
    for (std::size_t p = 0; p < valid; ++p) {
      std::uint64_t compacted = 0;
      if ((detect >> p) & 1ULL) {
        compacted = captured ? captured_input : stem_inputs.inputs[p];
      }
      d = misr.next(d, compacted);
      if (d != 0 && first_divergence < 0) {
        first_divergence = base + static_cast<std::int64_t>(p);
      }
    }
    states.delta[cls] = d;

    const std::uint64_t masked = detect & block_mask;
    if (masked != 0 && states.first_error[cls] < 0) {
      states.first_error[cls] = base + std::countr_zero(masked);
    }
  }
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
  const bool transition =
      faults.model() == fault_model::FaultModel::kTransition;

  const std::size_t classes = faults.class_count();
  ClassStates states{std::vector<std::uint64_t>(classes, 0),
                     std::vector<std::int64_t>(classes, -1),
                     std::vector<std::int64_t>(classes, -1)};

  // Stem groups cut into chunks; each lane claims chunks and grades each
  // through every block of the window with its own Propagator. A class
  // belongs to one chunk, and a chunk walks the blocks in program order
  // on one lane, so every state slot has a single writer at a time and
  // the result is bit-identical for any lane count.
  const std::vector<std::uint32_t> live =
      fault::sorted_live_list(faults, c, 0, classes);
  const std::vector<fault::Chunk> chunks =
      fault::stem_group_chunks(faults, c, live);
  const std::size_t lanes =
      std::min(util::resolve_worker_count(num_threads), chunks.size());
  std::vector<fault::Propagator> propagators;
  std::vector<StemInputs> scratch(lanes);
  propagators.reserve(lanes);
  for (std::size_t t = 0; t < lanes; ++t) {
    propagators.emplace_back(compiled_);
    scratch[t].point_words.resize(point_count);
  }

  fault::GoodWindow window(compiled_, patterns_, nullptr);
  Misr reference = misr;
  const std::size_t block_count = patterns_.block_count();
  const auto lanes_in_block = [&](std::size_t b) {
    return std::min<std::size_t>(64, patterns_.size() - b * 64);
  };
  for (std::size_t first = 0; first < block_count;
       first += fault::kWindowBlocks) {
    const std::size_t last =
        std::min(block_count, first + fault::kWindowBlocks);
    window.reset(first, last);
    std::atomic<std::size_t> cursor{0};
    if (lanes != 0) {
      fault::run_lanes(lanes, [&](std::size_t lane,
                                  const std::atomic<bool>& stop) {
        fault::Propagator& propagator = propagators[lane];
        for (std::size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
             k < chunks.size() && !stop.load(std::memory_order_relaxed);
             k = cursor.fetch_add(1, std::memory_order_relaxed)) {
          for (std::size_t b = first; b < last; ++b) {
            // Cooperative watchdog checkpoint (free when no deadline is
            // active; workers see the caller's scopes).
            util::poll_deadline();
            const std::span<const std::uint64_t> good = window.block(b);
            propagator.begin_block(good);
            grade_block(propagator, faults, misr,
                        live.data() + chunks[k].begin, chunks[k].live, good,
                        window.previous(b), transition, b, lanes_in_block(b),
                        patterns_.block_mask(b), scratch[lane], states);
          }
        }
      });
    }

    // The reference signature: the good responses, pattern by pattern.
    for (std::size_t b = first; b < last; ++b) {
      const std::span<const std::uint64_t> good = window.block(b);
      for (std::size_t p = 0; p < lanes_in_block(b); ++p) {
        std::uint64_t compacted = 0;
        for (std::size_t i = 0; i < point_count; ++i) {
          if ((good[points[i]] >> p) & 1ULL) compacted ^= misr.input_bit(i);
        }
        reference.step(compacted);
      }
    }
  }

  // Fold per-class outcomes into the result.
  BistResult result;
  result.pattern_count = patterns_.size();
  result.misr_width = misr.width();
  result.good_signature = reference.signature();
  result.fault_signatures.resize(classes);
  result.first_error_pattern = std::move(states.first_error);
  result.first_divergence_pattern = std::move(states.first_divergence);
  for (std::size_t cls = 0; cls < classes; ++cls) {
    result.fault_signatures[cls] = result.good_signature ^ states.delta[cls];
    const bool raw = result.first_error_pattern[cls] >= 0;
    const bool by_signature = states.delta[cls] != 0;
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
