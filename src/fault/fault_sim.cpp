#include "fault/fault_sim.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

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
// Both kernels share the work_ scratch: a copy of the current block's
// good-machine words (begin_block), locally overwritten with the faulty
// machine while one fault is in flight. Keeping the scratch clean between
// calls is what lets gate evaluation read a single value array with no
// per-operand bookkeeping. All topology reads go through the compiled CSR
// arrays.

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
      queued_(compiled_->node_count(), 0),
      buckets_(compiled_->depth() + 1),
      work_(compiled_->node_count(), 0) {
  touched_.reserve(compiled_->node_count());
}

void Propagator::schedule_fanout(GateId id) {
  const CompiledCircuit& c = *compiled_;
  const GateId* readers = c.fanout(id);
  const std::size_t count = c.fanout_count(id);
  for (std::size_t i = 0; i < count; ++i) {
    const GateId reader = readers[i];
    if (c.type(reader) == GateType::kDff) continue;  // capture boundary
    if (queued_[reader] != 0) continue;
    queued_[reader] = 1;
    const std::size_t level = c.level(reader);
    buckets_[level].push_back(reader);
    max_level_ = std::max(max_level_, level);
  }
}

void Propagator::begin_block(std::span<const std::uint64_t> good) {
  const std::size_t n = compiled_->node_count();
  LSIQ_EXPECT(good.size() == n || good.size() == n + 1,
              "begin_block: good values must cover every gate");
  // A ParallelSimulator buffer carries its block epoch in the trailing
  // word; remember it so the detect paths can catch a buffer that was
  // re-simulated after this sync. Hand-built n-word buffers have no
  // stamp and opt out of the check (stamp_ = 0 is never a real epoch).
  stamp_ = good.size() == n + 1 ? good[n] : 0;
  work_.assign(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(n));
  dirty_level_ = compiled_->depth() + 1;  // nothing written yet
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

/// Restore the good view over the resimulation dirty suffix, so the wave
/// kernel can interleave with detect_word_resim on one scratch.
void Propagator::sweep_clean(const std::uint64_t* good) {
  const CompiledCircuit& c = *compiled_;
  if (dirty_level_ > c.depth()) return;
  const auto& order = c.eval_order();
  for (std::size_t i = c.eval_level_begin(dirty_level_); i < order.size();
       ++i) {
    work_[order[i]] = good[order[i]];
  }
  dirty_level_ = c.depth() + 1;
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

std::uint64_t Propagator::detect_word(
    const Fault& fault, std::span<const std::uint64_t> good_values,
    const std::vector<std::uint64_t>* point_masks) {
  check_sync(good_values, "detect_word");
  const CompiledCircuit& c = *compiled_;
  const std::uint64_t* good = good_values.data();

  std::uint64_t resolved = 0;
  std::uint64_t faulty_site = 0;
  if (resolve_site(fault, good, point_masks, &resolved, &faulty_site)) {
    return resolved;
  }

  sweep_clean(good);
  std::uint64_t* work = work_.data();
  const GateId site = fault.gate;
  work[site] = faulty_site;
  touched_.push_back(site);
  const std::size_t site_level = c.level(site);
  max_level_ = site_level;
  schedule_fanout(site);

  // Level-ordered wave; every scheduled gate has level > its scheduler.
  // Untouched operands read their good value straight from work, so
  // evaluation needs no faulty/good merge.
  for (std::size_t level = site_level; level <= max_level_; ++level) {
    auto& bucket = buckets_[level];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const GateId id = bucket[i];
      queued_[id] = 0;
      const std::uint64_t value = c.eval_word(id, work);
      if (value != work[id]) {
        // A gate is evaluated at most once per wave, so work[id] still
        // holds the good value and the difference is a real fault effect.
        work[id] = value;
        touched_.push_back(id);
        schedule_fanout(id);
      }
    }
    bucket.clear();
  }

  // Observation: untouched points satisfy work == good, contributing 0.
  std::uint64_t detect = 0;
  const auto& points = c.observed_points();
  if (point_masks == nullptr) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      detect |= work[points[i]] ^ good[points[i]];
    }
  } else {
    for (std::size_t i = 0; i < points.size(); ++i) {
      detect |= (work[points[i]] ^ good[points[i]]) & (*point_masks)[i];
    }
  }

  // Restore the good view for the next fault.
  for (const GateId id : touched_) {
    work[id] = good[id];
  }
  touched_.clear();
  return detect;
}

void Propagator::resimulate(GateId site, std::uint64_t value) {
  // One flat sweep over the level-sorted suffix recomputes the faulty
  // machine: gates off the site's cone re-derive their good values, gates
  // on it their faulty ones. Starting at min(site level, dirty level)
  // also overwrites everything the previous sweep left behind, which is a
  // no-op start when sites arrive sorted by non-increasing level.
  const CompiledCircuit& c = *compiled_;
  const std::size_t site_level = c.level(site);
  work_[site] = value;
  c.eval_suffix(std::min(site_level, dirty_level_), work_.data(), site);
  dirty_level_ = site_level;
}

void Propagator::clear_source_site(GateId site, const std::uint64_t* good) {
  // A source site (input or flip-flop stem) is never re-evaluated by any
  // later sweep, so its injected value must be cleared by hand; evaluable
  // sites are overwritten naturally once the next sweep reaches them.
  const GateType t = compiled_->type(site);
  if (t == GateType::kInput || t == GateType::kDff) work_[site] = good[site];
}

std::uint64_t Propagator::observe(
    const std::uint64_t* good,
    const std::vector<std::uint64_t>* point_masks) const {
  // Points the last sweep did not reach satisfy work == good, so their
  // diff is 0 without any reached-set bookkeeping.
  const std::uint64_t* work = work_.data();
  const auto& points = compiled_->observed_points();
  std::uint64_t detect = 0;
  if (point_masks == nullptr) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      detect |= work[points[i]] ^ good[points[i]];
    }
  } else {
    for (std::size_t i = 0; i < points.size(); ++i) {
      detect |= (work[points[i]] ^ good[points[i]]) & (*point_masks)[i];
    }
  }
  return detect;
}

std::uint64_t Propagator::detect_word_resim(
    const Fault& fault, std::span<const std::uint64_t> good_values,
    const std::vector<std::uint64_t>* point_masks) {
  check_sync(good_values, "detect_word_resim");
  const std::uint64_t* good = good_values.data();

  // Site evaluation reads the caller's good array (always clean; work_ may
  // hold the previous sweep's machine at levels >= dirty_level_).
  std::uint64_t resolved = 0;
  std::uint64_t faulty_site = 0;
  if (resolve_site(fault, good, point_masks, &resolved, &faulty_site)) {
    return resolved;
  }
  resimulate(fault.gate, faulty_site);
  const std::uint64_t detect = observe(good, point_masks);
  clear_source_site(fault.gate, good);
  return detect;
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
    const std::vector<std::uint64_t>* point_masks) {
  check_sync(good_values, "stem_observation");
  const std::uint64_t* good = good_values.data();
  ++stem_sweeps_;
  resimulate(stem, ~good[stem]);
  const std::uint64_t detect = observe(good, point_masks);
  clear_source_site(stem, good);
  return detect;
}

std::uint64_t Propagator::detect_word_transition(
    const Fault& fault, std::span<const std::uint64_t> good,
    const fault_model::TwoPatternWindow& window,
    const std::vector<std::uint64_t>* point_masks) {
  check_sync(good, "detect_word_transition");
  const std::uint64_t launch = window.launch_mask(
      fault_line(*compiled_, fault), fault.stuck_at_one, good.data());
  if (launch == 0) return 0;  // no lane launched: capture cannot matter
  return detect_word_resim(fault, good, point_masks) & launch;
}

std::uint64_t Propagator::point_diff_words(
    const Fault& fault, std::span<const std::uint64_t> good_values,
    std::vector<std::uint64_t>& diffs) {
  check_sync(good_values, "point_diff_words");
  const CompiledCircuit& c = *compiled_;
  const std::uint64_t* good = good_values.data();
  const auto& points = c.observed_points();
  diffs.assign(points.size(), 0);

  std::uint64_t resolved = 0;
  std::uint64_t faulty_site = 0;
  if (resolve_site(fault, good, nullptr, &resolved, &faulty_site)) {
    // Either the fault effect never appears at the site (resolved == 0,
    // all diffs stay zero) or this is a DFF D-pin capture whose whole
    // difference lands on that flip-flop's pseudo primary output.
    if (resolved != 0) {
      const std::uint32_t point = c.point_index(fault.gate);
      LSIQ_EXPECT(point != CompiledCircuit::kNoPoint,
                  "point_diff_words: DFF gate has no scan-capture point");
      diffs[point] = resolved;
    }
    return resolved;
  }

  // Same suffix sweep as detect_word_resim; only the observation differs
  // — per point instead of OR.
  resimulate(fault.gate, faulty_site);
  std::uint64_t detect = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint64_t diff = work_[points[i]] ^ good[points[i]];
    diffs[i] = diff;
    detect |= diff;
  }
  clear_source_site(fault.gate, good);
  return detect;
}

namespace {

/// Full faulty-machine simulation of one block (every gate re-evaluated).
/// Independent of the event-driven path on purpose: it is the oracle the
/// fast engines are validated against, so it deliberately walks the plain
/// Circuit container rather than the compiled view.
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
  // Kept independent of fault_model::TwoPatternWindow on purpose — the
  // serial engine is the oracle the fast engines' window bookkeeping is
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

namespace {

/// Live-fault work list for the PPSFP engines: every class index in
/// [class_begin, class_end), ordered by the rank of its FFR stem
/// (CompiledCircuit::ffr_rank: stem level descending, then stem id), then
/// by class index. Suffix resimulation sweeps [stem level, depth], so this
/// order makes each sweep exactly overwrite what the previous one
/// dirtied, and it makes every stem's live classes one contiguous group.
/// Detect words are order-independent; only the sweep start depends on
/// the order. A counting sort by rank, stable in class index.
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

/// Stem-region grading of live[0, count) — whole stem groups, in
/// sorted_live_list order — into detects[0, count). A stem's observation
/// word is swept at most once, and only when some class of its group has
/// a nonzero local & block-mask (& launch) word. For a transition
/// universe `previous` is the block before `good` (nullptr for the
/// program's first block).
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

/// Blocks whose good machine is held at once. The pass grades the program
/// in windows of this many blocks (4096 patterns), so the good-value
/// buffer stays bounded however long the program is; the lanes join once
/// per window, never once per block.
constexpr std::size_t kWindowBlocks = 64;

/// The good machine of one window of blocks, shared read-only by the
/// lanes. Each block is simulated once, by the first lane that needs it,
/// so blocks that no live chunk reaches are never simulated, and is
/// published through an atomic frontier: once a block exists, a lane
/// pays one acquire load for it. Every block keeps its ParallelSimulator
/// epoch word, so Propagator::check_sync stays armed. The blocks share
/// one allocation, made on the calling thread: memory the lanes allocated
/// would come from their own malloc arenas, and a run of block-sized
/// allocations would be returned to the system and faulted in again on
/// every call.
class GoodWindow {
 public:
  GoodWindow(const std::shared_ptr<const CompiledCircuit>& compiled,
             const sim::PatternSet& patterns, const StrobeSchedule* schedule)
      : patterns_(patterns),
        sim_(compiled),
        masks_(compiled->source(), schedule),
        strobed_(schedule != nullptr && !schedule->is_full()),
        stride_(sim_.values().size()),
        good_(std::make_unique_for_overwrite<std::uint64_t[]>(
            (std::min(patterns.block_count(), kWindowBlocks) + 1) *
            stride_)) {}

  /// Move on to blocks [first, last), at most kWindowBlocks of them. Not
  /// thread-safe: call between lane runs. The previous window's last
  /// block stays readable as the predecessor of `first`.
  void reset(std::size_t first, std::size_t last) {
    if (first != 0) {
      std::copy_n(good_.get() + (first - first_) * stride_, stride_,
                  good_.get());
    }
    if (strobed_) {
      strobes_.resize(last - first);
      for (std::vector<std::uint64_t>& masks : strobes_) {
        masks.reserve(sim_.compiled()->observed_points().size());
      }
    }
    first_ = first;
    ready_.store(first, std::memory_order_relaxed);
  }

  /// Good values of block b of the window, simulated first if no lane
  /// has needed it yet.
  std::span<const std::uint64_t> block(std::size_t b) {
    if (ready_.load(std::memory_order_acquire) <= b) {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t next = ready_.load(std::memory_order_relaxed);
           next <= b; ++next) {
        sim_.simulate_block(patterns_.block_words(next));
        std::copy_n(sim_.values().data(), stride_, slot(next));
        if (strobed_) strobes_[next - first_] = *masks_.for_block(next);
        ready_.store(next + 1, std::memory_order_release);
      }
    }
    return {slot(b), stride_};
  }

  /// Block b - 1's good values (nullptr for the program's first block),
  /// for transition launch masks. Valid once block(b) returned.
  [[nodiscard]] const std::uint64_t* previous(std::size_t b) const {
    return b == 0 ? nullptr : slot(b - 1);
  }

  /// Block b's strobe lane masks, nullptr under full observation. Valid
  /// once block(b) returned.
  [[nodiscard]] const std::vector<std::uint64_t>* strobes(
      std::size_t b) const {
    return strobed_ ? &strobes_[b - first_] : nullptr;
  }

 private:
  /// Slot 0 holds the block before the window, slot k + 1 its block k.
  [[nodiscard]] std::uint64_t* slot(std::size_t b) const {
    return good_.get() + (b + 1 - first_) * stride_;
  }

  const sim::PatternSet& patterns_;
  std::mutex mutex_;
  sim::ParallelSimulator sim_;
  ScheduleMasks masks_;
  bool strobed_;
  std::size_t stride_;
  std::unique_ptr<std::uint64_t[]> good_;
  std::size_t first_ = 0;
  /// Blocks [first_, ready_) are simulated and published.
  std::atomic<std::size_t> ready_{0};
  std::vector<std::vector<std::uint64_t>> strobes_;
};

/// A chunk closes at the first stem-group boundary at or past this many
/// classes: small enough to balance the lanes, large enough to amortize a
/// chunk's begin_block per block.
constexpr std::size_t kChunkClasses = 64;

/// A run of whole stem groups in the live list, graded by one lane at a
/// time. Its live classes are live[begin, begin + live): fault dropping
/// compacts them in place, keeping their order.
struct Chunk {
  std::size_t begin = 0;
  std::size_t live = 0;
};

/// Run lane(0, stop) on the calling thread and lane(1..lanes-1, stop) on
/// worker threads that adopt its deadline and cancel scopes. Returns once
/// every worker has joined and rethrows the first exception a lane threw;
/// `stop` is raised on an exception, so the other lanes end after their
/// current chunk. One lane starts no thread.
template <typename Lane>
void run_lanes(std::size_t lanes, const Lane& lane) {
  std::mutex mutex;
  std::exception_ptr first_error;
  std::atomic<bool> stop{false};
  const auto guarded = [&](std::size_t index) {
    try {
      lane(index, stop);
    } catch (...) {
      stop.store(true, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(mutex);
      if (first_error == nullptr) first_error = std::current_exception();
    }
  };
  {
    const util::detail::DeadlineFrame* scopes = util::current_scopes();
    std::vector<std::jthread> workers;
    workers.reserve(lanes - 1);
    for (std::size_t index = 1; index < lanes; ++index) {
      workers.emplace_back([&guarded, scopes, index] {
        const util::AdoptScopes adopt(scopes);
        guarded(index);
      });
    }
    guarded(0);
  }  // the jthreads join here
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace

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
  const auto rank = [&](std::size_t i) {
    return compiled->ffr_rank(faults.representatives()[live[i]].gate);
  };
  std::vector<Chunk> chunks;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (chunks.empty() || (i - chunks.back().begin >= kChunkClasses &&
                           rank(i) != rank(i - 1))) {
      if (!chunks.empty()) chunks.back().live = i - chunks.back().begin;
      chunks.push_back(Chunk{i, 0});
    }
  }
  if (chunks.empty()) return 0;
  chunks.back().live = live.size() - chunks.back().begin;
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
