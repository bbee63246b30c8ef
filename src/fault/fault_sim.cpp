#include "fault/fault_sim.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <mutex>
#include <utility>

#include "fault/stem_grading.hpp"
#include "fault_model/transition.hpp"
#include "sim/parallel_sim.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace lsiq::fault {

using circuit::Circuit;
using circuit::CompiledCircuit;
using circuit::Gate;
using circuit::GateId;
using circuit::GateType;

// ---- Propagator ----
//
// Both kernel halves read the caller's good block; the suffix sweep of
// stem_observation also needs a scratch copy of it (work_), which it
// overwrites with the faulty machine from the stem's level up. The copy
// is made by the block's first sweep, so a block whose classes all mask
// inside their regions never makes it. All topology reads go through the
// compiled CSR arrays.

namespace {

/// Validate a shared compiled view before member initializers touch it.
std::shared_ptr<const CompiledCircuit> require_compiled(
    std::shared_ptr<const CompiledCircuit> compiled, const char* who) {
  if (compiled == nullptr) {
    throw ContractViolation(std::string(who) +
                            " requires a compiled circuit");
  }
  return compiled;
}

}  // namespace

Propagator::Propagator(const Circuit& circuit)
    : Propagator(std::make_shared<const CompiledCircuit>(circuit)) {}

Propagator::Propagator(std::shared_ptr<const CompiledCircuit> compiled)
    : compiled_(require_compiled(std::move(compiled), "Propagator")),
      work_(compiled_->node_count(), 0) {}

void Propagator::begin_block(std::span<const std::uint64_t> good) {
  const std::size_t n = compiled_->node_count();
  LSIQ_EXPECT(good.size() == n || good.size() == n + 1,
              "begin_block: good values must cover every gate");
  // A ParallelSimulator buffer carries its block epoch in the trailing
  // word; remember it so the kernels can catch a buffer that was
  // re-simulated after this sync. Hand-built n-word buffers have no
  // stamp and opt out of the check (stamp_ = 0 is never a real epoch).
  stamp_ = good.size() == n + 1 ? good[n] : 0;
  work_copied_ = false;  // the block's first sweep copies it
  block_synced_ = true;
}

void Propagator::check_sync(std::span<const std::uint64_t> good,
                            const char* who) const {
  LSIQ_EXPECT(block_synced_, std::string(who) +
                                 ": begin_block must follow every new "
                                 "good-machine block");
  const std::size_t n = compiled_->node_count();
  if (stamp_ != 0 && good.size() == n + 1) {
    assert(good[n] == stamp_ &&
           "stale begin_block sync: buffer re-simulated since");
    LSIQ_EXPECT(good[n] == stamp_,
                std::string(who) +
                    ": stale sync — the good-value buffer was re-simulated "
                    "after begin_block; call begin_block again for the new "
                    "block");
  }
}

bool Propagator::resolve_site(const Fault& fault, const std::uint64_t* good,
                              const std::vector<std::uint64_t>* point_masks,
                              std::uint64_t* result,
                              std::uint64_t* faulty_site) const {
  const CompiledCircuit& c = *compiled_;
  const std::uint64_t sv_word = fault.stuck_at_one ? ~0ULL : 0ULL;

  // A branch fault on a flip-flop's D pin never propagates through logic;
  // it is captured directly at that flip-flop's pseudo primary output,
  // whose index the compiled view keeps per gate (no flip_flops() scan).
  if (!is_stem(fault) && c.type(fault.gate) == GateType::kDff) {
    const std::uint64_t diff = sv_word ^ good[c.fanin(fault.gate)[0]];
    if (point_masks == nullptr) {
      *result = diff;
    } else {
      const std::uint32_t point = c.point_index(fault.gate);
      LSIQ_EXPECT(point != CompiledCircuit::kNoPoint,
                  "resolve_site: DFF gate has no scan-capture point");
      *result = diff & (*point_masks)[point];
    }
    return true;
  }

  if (is_stem(fault)) {
    *faulty_site = sv_word;
  } else {
    LSIQ_EXPECT(fault.pin >= 0 && static_cast<std::size_t>(fault.pin) <
                                      c.fanin_count(fault.gate),
                "resolve_site: fault pin out of range");
    *faulty_site = c.eval_word_with_pin(fault.gate, good, fault.pin,
                                        sv_word);
  }
  if ((*faulty_site ^ good[fault.gate]) == 0) {
    *result = 0;  // fault effect never appears at the site in this block
    return true;
  }
  return false;
}

std::uint64_t Propagator::local_word(
    const Fault& fault, std::span<const std::uint64_t> good_values,
    const std::vector<std::uint64_t>* point_masks, bool* captured) {
  check_sync(good_values, "local_word");
  const CompiledCircuit& c = *compiled_;
  const std::uint64_t* good = good_values.data();

  std::uint64_t resolved = 0;
  std::uint64_t value = 0;
  *captured = false;
  if (resolve_site(fault, good, point_masks, &resolved, &value)) {
    // A DFF D-pin capture's word is already final; otherwise the effect
    // never appears at the site and resolved is 0.
    *captured = resolved != 0;
    return resolved;
  }
  // Walk the single-reader chain up to the stem: no other pin on the way
  // can carry the effect, so each step is one gate evaluated against the
  // good machine with the carried pin forced.
  GateId at = fault.gate;
  while (c.ffr_stem(at) != at) {
    const GateId reader = c.ffr_reader(at);
    value = c.eval_word_with_pin(reader, good, c.ffr_reader_pin(at), value);
    at = reader;
    if (value == good[at]) return 0;  // masked inside the region
  }
  return value ^ good[at];
}

std::uint64_t Propagator::stem_observation(
    GateId stem, std::span<const std::uint64_t> good_values,
    const std::vector<std::uint64_t>* point_masks,
    std::uint64_t* point_words) {
  check_sync(good_values, "stem_observation");
  const CompiledCircuit& c = *compiled_;
  const std::uint64_t* good = good_values.data();
  ++stem_sweeps_;
  if (!work_copied_) {
    std::copy_n(good, c.node_count(), work_.data());
    dirty_level_ = c.depth() + 1;  // nothing written yet
    work_copied_ = true;
  }

  // One flat sweep over the level-sorted suffix recomputes the faulty
  // machine: gates off the stem's cone re-derive their good values, gates
  // on it their faulty ones. Starting at min(stem level, dirty level)
  // also overwrites everything the previous sweep left behind, which is a
  // no-op start when stems arrive sorted by non-increasing level.
  const std::size_t level = c.level(stem);
  work_[stem] = ~good[stem];
  c.eval_suffix(std::min<std::size_t>(level, dirty_level_), work_.data(),
                stem);
  dirty_level_ = level;

  // Points the sweep did not reach satisfy work == good, so their diff is
  // 0 without any reached-set bookkeeping.
  const std::uint64_t* work = work_.data();
  const auto& points = c.observed_points();
  std::uint64_t detect = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::uint64_t diff = work[points[i]] ^ good[points[i]];
    if (point_masks != nullptr) diff &= (*point_masks)[i];
    if (point_words != nullptr) point_words[i] = diff;
    detect |= diff;
  }

  // A source stem (input or flip-flop) is never re-evaluated by a later
  // sweep, so its injected value is cleared by hand; evaluable stems are
  // overwritten once the next sweep reaches them.
  const GateType t = c.type(stem);
  if (t == GateType::kInput || t == GateType::kDff) work_[stem] = good[stem];
  return detect;
}

std::vector<std::uint64_t> simulate_faulty_block_full(
    const Circuit& circuit, const Fault& fault,
    const std::vector<std::uint64_t>& input_words) {
  const std::uint64_t sv_word = fault.stuck_at_one ? ~0ULL : 0ULL;
  std::vector<std::uint64_t> values(circuit.gate_count(), 0);

  const auto& inputs = circuit.pattern_inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    values[inputs[i]] = input_words[i];
  }
  if (is_stem(fault)) {
    const GateType t = circuit.gate(fault.gate).type;
    if (t == GateType::kInput || t == GateType::kDff) {
      values[fault.gate] = sv_word;
    }
  }
  for (const GateId id : circuit.topological_order()) {
    const Gate& g = circuit.gate(id);
    if (g.type == GateType::kInput || g.type == GateType::kDff) continue;
    if (!is_stem(fault) && id == fault.gate &&
        g.type != GateType::kDff) {
      values[id] = sim::eval_gate_word_with_pin(circuit, id, values,
                                                fault.pin, sv_word);
    } else {
      values[id] = sim::eval_gate_word(circuit, id, values);
    }
    if (is_stem(fault) && id == fault.gate) {
      values[id] = sv_word;
    }
  }
  return values;
}

namespace {

std::uint64_t observe_difference(const Circuit& circuit, const Fault& fault,
                                 const std::vector<std::uint64_t>& faulty,
                                 const std::vector<std::uint64_t>& good,
                                 const std::vector<std::uint64_t>*
                                     point_masks) {
  const std::uint64_t sv_word = fault.stuck_at_one ? ~0ULL : 0ULL;
  const auto& points = circuit.observed_points();
  const std::size_t num_po = circuit.primary_outputs().size();
  const bool dff_pin_fault =
      !is_stem(fault) && circuit.gate(fault.gate).type == GateType::kDff;

  std::uint64_t detect = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::uint64_t faulty_value = faulty[points[i]];
    if (dff_pin_fault && i >= num_po &&
        circuit.flip_flops()[i - num_po] == fault.gate) {
      faulty_value = sv_word;  // the faulted scan capture sees the stuck value
    }
    std::uint64_t diff = faulty_value ^ good[points[i]];
    if (point_masks != nullptr) {
      diff &= (*point_masks)[i];
    }
    detect |= diff;
  }
  return detect;
}

/// Per-block strobe lane masks, or nullptr when the schedule is full (or
/// absent) and masking can be skipped entirely.
class ScheduleMasks {
 public:
  ScheduleMasks(const Circuit& circuit, const StrobeSchedule* schedule)
      : schedule_(schedule != nullptr && !schedule->is_full() ? schedule
                                                              : nullptr) {
    if (schedule != nullptr) {
      LSIQ_EXPECT(schedule->point_count() ==
                      circuit.observed_points().size(),
                  "strobe schedule must cover every observed point");
    }
    if (schedule_ != nullptr) {
      masks_.resize(circuit.observed_points().size());
    }
  }

  /// Masks for one block; nullptr means "everything strobed".
  const std::vector<std::uint64_t>* for_block(std::size_t block) {
    if (schedule_ == nullptr) return nullptr;
    for (std::size_t i = 0; i < masks_.size(); ++i) {
      masks_[i] = schedule_->lane_mask(i, block);
    }
    return &masks_;
  }

 private:
  const StrobeSchedule* schedule_;
  std::vector<std::uint64_t> masks_;
};

}  // namespace

void FaultSimResult::finalize(const FaultList& faults) {
  covered_faults = 0;
  detected_classes = 0;
  for (std::size_t c = 0; c < first_detection.size(); ++c) {
    if (first_detection[c] >= 0) {
      ++detected_classes;
      covered_faults += faults.class_size(c);
    }
  }
  coverage = static_cast<double>(covered_faults) /
             static_cast<double>(faults.fault_count());
}

CoverageCurve FaultSimResult::curve(const FaultList& faults,
                                    std::size_t pattern_count) const {
  std::vector<std::size_t> weights(faults.class_count());
  for (std::size_t c = 0; c < weights.size(); ++c) {
    weights[c] = faults.class_size(c);
  }
  return CoverageCurve::from_first_detection(
      first_detection, weights, faults.fault_count(), pattern_count);
}

FaultSimResult simulate_serial(const FaultList& faults,
                               const sim::PatternSet& patterns,
                               const StrobeSchedule* schedule) {
  const Circuit& circuit = faults.circuit();
  LSIQ_EXPECT(patterns.input_count() == circuit.pattern_inputs().size(),
              "simulate_serial: pattern width does not match circuit");
  ScheduleMasks strobe_masks(circuit, schedule);
  const bool transition =
      faults.model() == fault_model::FaultModel::kTransition;

  // Good-machine simulation, one pass, values retained per block.
  sim::ParallelSimulator good_sim(circuit);
  std::vector<std::vector<std::uint64_t>> good_blocks;
  good_blocks.reserve(patterns.block_count());
  for (std::size_t b = 0; b < patterns.block_count(); ++b) {
    good_sim.simulate_block(patterns.block_words(b));
    good_blocks.push_back(good_sim.values());
  }

  // Reference launch word for a transition fault: bit p = the fault line's
  // good value at pattern p-1, matched against the pre-transition value.
  // Kept independent of fault_model::launch_mask on purpose — the
  // serial engine is the oracle the fast engines' launch bookkeeping is
  // cross-checked against.
  const auto launch_word = [&](const Fault& fault, std::size_t b) {
    const GateId line = fault_line(circuit, fault);
    const std::uint64_t previous =
        (good_blocks[b][line] << 1) |
        (b > 0 ? good_blocks[b - 1][line] >> 63 : 0);
    std::uint64_t launch = fault.stuck_at_one ? previous : ~previous;
    if (b == 0) launch &= ~1ULL;  // the first pattern has no launch
    return launch;
  };

  FaultSimResult result;
  result.first_detection.assign(faults.class_count(), -1);
  for (std::size_t c = 0; c < faults.class_count(); ++c) {
    // Cooperative watchdog checkpoint (free when no deadline is active).
    util::poll_deadline();
    const Fault& fault = faults.representatives()[c];
    for (std::size_t b = 0; b < patterns.block_count(); ++b) {
      const std::vector<std::uint64_t> faulty = simulate_faulty_block_full(
          circuit, fault, patterns.block_words(b));
      std::uint64_t detect =
          observe_difference(circuit, fault, faulty, good_blocks[b],
                             strobe_masks.for_block(b)) &
          patterns.block_mask(b);
      if (transition) detect &= launch_word(fault, b);
      if (detect != 0) {
        result.first_detection[c] =
            static_cast<std::int64_t>(b * 64 + std::countr_zero(detect));
        break;
      }
    }
  }
  result.finalize(faults);
  return result;
}

std::vector<std::uint32_t> sorted_live_list(const FaultList& faults,
                                            const CompiledCircuit& compiled,
                                            std::size_t class_begin,
                                            std::size_t class_end) {
  const auto rank = [&](std::size_t c) {
    return compiled.ffr_rank(faults.representatives()[c].gate);
  };
  std::vector<std::uint32_t> start(compiled.ffr_count() + 1, 0);
  for (std::size_t c = class_begin; c < class_end; ++c) ++start[rank(c) + 1];
  for (std::size_t r = 1; r < start.size(); ++r) start[r] += start[r - 1];
  std::vector<std::uint32_t> live(class_end - class_begin);
  for (std::size_t c = class_begin; c < class_end; ++c) {
    live[start[rank(c)]++] = static_cast<std::uint32_t>(c);
  }
  return live;
}

void grade_stem_groups(Propagator& propagator, const FaultList& faults,
                       const std::uint32_t* live, std::size_t count,
                       std::span<const std::uint64_t> good,
                       std::uint64_t mask,
                       const std::vector<std::uint64_t>* point_masks,
                       bool transition, const std::uint64_t* previous,
                       std::uint64_t* detects) {
  const CompiledCircuit& c = *propagator.compiled();
  GateId stem = circuit::kNoGate;
  bool swept = false;
  std::uint64_t observed = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Fault& rep = faults.representatives()[live[i]];
    const GateId rep_stem = c.ffr_stem(rep.gate);
    if (rep_stem != stem) {
      stem = rep_stem;
      swept = false;
    }
    std::uint64_t live_lanes = mask;
    if (transition) {
      // No launched lane: the capture cannot matter.
      live_lanes &= fault_model::launch_mask(
          fault_line(c, rep), rep.stuck_at_one, good.data(), previous);
    }
    std::uint64_t detect = 0;
    if (live_lanes != 0) {
      bool captured = false;
      detect = propagator.local_word(rep, good, point_masks, &captured) &
               live_lanes;
      if (detect != 0 && !captured) {
        if (!swept) {
          observed = propagator.stem_observation(stem, good, point_masks);
          swept = true;
        }
        detect &= observed;
      }
    }
    detects[i] = detect;
  }
}

std::vector<Chunk> stem_group_chunks(const FaultList& faults,
                                     const CompiledCircuit& compiled,
                                     const std::vector<std::uint32_t>& live) {
  constexpr std::size_t kChunkClasses = 64;
  const auto rank = [&](std::size_t i) {
    return compiled.ffr_rank(faults.representatives()[live[i]].gate);
  };
  std::vector<Chunk> chunks;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (chunks.empty() || (i - chunks.back().begin >= kChunkClasses &&
                           rank(i) != rank(i - 1))) {
      if (!chunks.empty()) chunks.back().live = i - chunks.back().begin;
      chunks.push_back(Chunk{i, 0});
    }
  }
  if (!chunks.empty()) chunks.back().live = live.size() - chunks.back().begin;
  return chunks;
}

GoodWindow::GoodWindow(const std::shared_ptr<const CompiledCircuit>& compiled,
                       const sim::PatternSet& patterns,
                       const StrobeSchedule* schedule)
    : patterns_(patterns),
      sim_(compiled),
      schedule_(schedule != nullptr && !schedule->is_full() ? schedule
                                                            : nullptr),
      stride_(sim_.values().size()),
      good_(std::make_unique_for_overwrite<std::uint64_t[]>(
          (std::min(patterns.block_count(), kWindowBlocks) + 1) * stride_)) {
  LSIQ_EXPECT(schedule == nullptr || schedule->point_count() ==
                                         compiled->observed_points().size(),
              "strobe schedule must cover every observed point");
}

void GoodWindow::reset(std::size_t first, std::size_t last) {
  if (first != 0) {
    std::copy_n(good_.get() + (first - first_) * stride_, stride_,
                good_.get());
  }
  if (schedule_ != nullptr) {
    strobes_.resize(last - first);
    for (std::vector<std::uint64_t>& masks : strobes_) {
      masks.resize(schedule_->point_count());
    }
  }
  first_ = first;
  ready_.store(first, std::memory_order_relaxed);
}

std::span<const std::uint64_t> GoodWindow::block(std::size_t b) {
  if (ready_.load(std::memory_order_acquire) <= b) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t next = ready_.load(std::memory_order_relaxed);
         next <= b; ++next) {
      sim_.simulate_block(patterns_.block_words(next));
      std::copy_n(sim_.values().data(), stride_, slot(next));
      if (schedule_ != nullptr) {
        std::vector<std::uint64_t>& masks = strobes_[next - first_];
        for (std::size_t i = 0; i < masks.size(); ++i) {
          masks[i] = schedule_->lane_mask(i, next);
        }
      }
      ready_.store(next + 1, std::memory_order_release);
    }
  }
  return {slot(b), stride_};
}

std::shared_ptr<const CompiledCircuit> grading_view(
    const FaultList& faults, const sim::PatternSet& patterns,
    std::shared_ptr<const CompiledCircuit> compiled) {
  const Circuit& circuit = faults.circuit();
  LSIQ_EXPECT(patterns.input_count() == circuit.pattern_inputs().size(),
              "fault grading: pattern width does not match circuit");
  if (compiled == nullptr) {
    compiled = std::make_shared<const CompiledCircuit>(circuit);
  }
  LSIQ_EXPECT(compiled->node_count() == circuit.gate_count(),
              "fault grading: compiled view does not match the circuit");
  return compiled;
}

std::size_t grade_class_range(
    const FaultList& faults, const sim::PatternSet& patterns,
    const StrobeSchedule* schedule,
    const std::shared_ptr<const CompiledCircuit>& compiled,
    std::size_t threads, std::size_t class_begin, std::size_t class_end,
    std::vector<std::int64_t>& first_detection) {
  LSIQ_EXPECT(compiled != nullptr,
              "grade_class_range: compiled view required");
  grading_view(faults, patterns, compiled);  // checks only: non-null view
  LSIQ_EXPECT(class_begin <= class_end && class_end <= faults.class_count(),
              "grade_class_range: class range out of bounds");
  LSIQ_EXPECT(first_detection.size() == faults.class_count(),
              "grade_class_range: first_detection must cover every class");
  const bool transition =
      faults.model() == fault_model::FaultModel::kTransition;
  GoodWindow window(compiled, patterns, schedule);

  // The live list in stem-group order, cut into chunks of whole groups, so
  // no stem is ever swept by two lanes in one block.
  std::vector<std::uint32_t> live =
      sorted_live_list(faults, *compiled, class_begin, class_end);
  std::vector<Chunk> chunks = stem_group_chunks(faults, *compiled, live);
  if (chunks.empty()) return 0;
  std::vector<std::uint64_t> detects(live.size(), 0);

  const std::size_t lanes =
      std::min(util::resolve_worker_count(threads), chunks.size());
  std::vector<Propagator> propagators;
  propagators.reserve(lanes);
  for (std::size_t t = 0; t < lanes; ++t) propagators.emplace_back(compiled);

  const std::size_t block_count = patterns.block_count();
  std::size_t live_total = live.size();
  for (std::size_t first = 0; first < block_count && live_total != 0;
       first += kWindowBlocks) {
    const std::size_t last = std::min(block_count, first + kWindowBlocks);
    window.reset(first, last);

    // Each lane claims chunks from the cursor and grades each through the
    // whole window with its own Propagator. Detect words are pure
    // functions of the patterns, and a chunk's groups are graded exactly
    // as one serial pass would grade them, so first_detection and the
    // sweep count do not depend on the lane count or the interleaving.
    std::atomic<std::size_t> cursor{0};
    run_lanes(lanes, [&](std::size_t lane, const std::atomic<bool>& stop) {
      Propagator& propagator = propagators[lane];
      for (std::size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
           k < chunks.size() && !stop.load(std::memory_order_relaxed);
           k = cursor.fetch_add(1, std::memory_order_relaxed)) {
        Chunk& chunk = chunks[k];
        std::uint32_t* chunk_live = live.data() + chunk.begin;
        std::uint64_t* chunk_detects = detects.data() + chunk.begin;
        for (std::size_t b = first; b < last && chunk.live != 0; ++b) {
          // Cooperative watchdog checkpoint (free when no deadline is
          // active; workers see the caller's scopes).
          util::poll_deadline();
          const std::span<const std::uint64_t> good = window.block(b);
          propagator.begin_block(good);
          grade_stem_groups(propagator, faults, chunk_live, chunk.live, good,
                            patterns.block_mask(b), window.strobes(b),
                            transition, window.previous(b), chunk_detects);
          // Per-block fault dropping, in live-list order.
          std::size_t kept = 0;
          for (std::size_t i = 0; i < chunk.live; ++i) {
            if (chunk_detects[i] != 0) {
              first_detection[chunk_live[i]] = static_cast<std::int64_t>(
                  b * 64 + std::countr_zero(chunk_detects[i]));
            } else {
              chunk_live[kept++] = chunk_live[i];
            }
          }
          chunk.live = kept;
        }
      }
    });
    live_total = 0;
    for (const Chunk& chunk : chunks) live_total += chunk.live;
  }

  std::size_t stem_sweeps = 0;
  for (const Propagator& propagator : propagators) {
    stem_sweeps += propagator.stem_sweeps();
  }
  return stem_sweeps;
}

namespace {

/// simulate_ppsfp / simulate_ppsfp_mt: every class graded in one range.
FaultSimResult grade_all_classes(
    const FaultList& faults, const sim::PatternSet& patterns,
    const StrobeSchedule* schedule,
    std::shared_ptr<const CompiledCircuit> compiled, std::size_t threads) {
  FaultSimResult result;
  result.first_detection.assign(faults.class_count(), -1);
  result.stem_sweeps = grade_class_range(
      faults, patterns, schedule,
      grading_view(faults, patterns, std::move(compiled)), threads, 0,
      faults.class_count(), result.first_detection);
  result.finalize(faults);
  return result;
}

}  // namespace

FaultSimResult simulate_ppsfp(
    const FaultList& faults, const sim::PatternSet& patterns,
    const StrobeSchedule* schedule,
    std::shared_ptr<const CompiledCircuit> compiled, std::size_t width) {
  LSIQ_EXPECT(width == 1, "simulate_ppsfp: grading is 64-lane; width must "
                          "be 1");
  return grade_all_classes(faults, patterns, schedule, std::move(compiled),
                           1);
}

FaultSimResult simulate_ppsfp_mt(
    const FaultList& faults, const sim::PatternSet& patterns,
    const StrobeSchedule* schedule, std::size_t num_threads,
    std::shared_ptr<const CompiledCircuit> compiled, std::size_t width) {
  LSIQ_EXPECT(width == 1, "simulate_ppsfp_mt: grading is 64-lane; width "
                          "must be 1");
  return grade_all_classes(faults, patterns, schedule, std::move(compiled),
                           num_threads);
}

}  // namespace lsiq::fault
