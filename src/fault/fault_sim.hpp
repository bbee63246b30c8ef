// Fault simulation over a model-tagged universe (stuck-at or transition).
//
// Every engine keys its detection kernel off FaultList::model(): stuck-at
// universes grade with classic one-pattern detection; transition universes
// grade pattern PAIRS — the capture pattern must detect the matching
// stuck-at fault while the preceding pattern launches the transition (see
// fault_model/transition.hpp for the factoring that makes the launch word
// a pure good-machine quantity, identical across engines and threads).
//
// Three engines with one contract:
//
//   * simulate_serial — the reference implementation: for every fault, the
//     whole circuit is re-simulated with the fault injected, block by
//     block. O(faults x gates x blocks); trusted because it is simple.
//     The test suite cross-checks the fast engines against it.
//
//   * simulate_ppsfp — parallel-pattern single-fault propagation, the
//     production engine (same family of techniques as the paper's LAMP
//     runs), on the compiled netlist (circuit/compiled.hpp): good-machine
//     simulation once per 64-pattern block, then stem-region grading with
//     fault dropping (Waicukauski et al., "Fault simulation for structured
//     VLSI", 1985). Inside a fanout-free region a fault reaches the outputs
//     only by flipping the region's stem, so per block each live class
//     costs one cheap walk up its region to the stem (its *local word*:
//     the lanes where the stem flips), and each stem with a live class
//     whose local word survives the block mask costs one levelized suffix
//     resimulation with the stem inverted (its *observation word*). A
//     class is detected in the lanes of local AND observation — one sweep
//     per live stem, not one per live class.
//
//   * simulate_ppsfp_mt — the same computation on several threads, with
//     no barrier per block. Both PPSFP engines (and simulate_sharded,
//     fault/shard.hpp) are thin wrappers over one pass,
//     grade_class_range: the live list, sorted by stem rank, is cut into
//     chunks of whole stem groups (a group is every live class of one
//     stem); each block's good machine is simulated once into a buffer
//     the lanes share read-only; and the caller plus threads - 1 workers
//     claim chunks from an atomic cursor, each grading its chunk through
//     every block with its own Propagator and dropping faults per chunk.
//     A stem group never spans two chunks, and detect words do not depend
//     on evaluation order, so first_detection and the stem-sweep count
//     are identical to simulate_ppsfp for every thread count.
//
// BIST signature grading and ATPG keep the per-fault Propagator kernels:
// they need a fault's own detect or per-point difference words, not just
// its first detection.
//
// All return, per collapsed fault class, the index of the first pattern
// that detects it — the raw material for coverage curves (Section 5) and
// for the virtual tester's first-failing-pattern experiment (Table 1).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "circuit/compiled.hpp"
#include "circuit/netlist.hpp"
#include "fault/coverage.hpp"
#include "fault/fault_list.hpp"
#include "fault/strobe.hpp"
#include "fault_model/transition.hpp"
#include "sim/pattern.hpp"

namespace lsiq::fault {

struct FaultSimResult {
  /// Per collapsed class: first detecting pattern index, or -1 if the
  /// pattern set never detects the class.
  std::vector<std::int64_t> first_detection;

  /// Universe faults covered (weighted by class size).
  std::size_t covered_faults = 0;

  /// Detected collapsed classes.
  std::size_t detected_classes = 0;

  /// Final coverage f = covered_faults / N over the full universe.
  double coverage = 0.0;

  /// Stem-observation sweeps the run performed (PPSFP-family engines; 0
  /// for simulate_serial). An engine counter, like a wall time: it
  /// describes the work, not the answer.
  std::size_t stem_sweeps = 0;

  /// Cumulative coverage versus pattern count.
  [[nodiscard]] CoverageCurve curve(const FaultList& faults,
                                    std::size_t pattern_count) const;

  /// Recompute covered_faults / detected_classes / coverage from
  /// first_detection. Every engine calls this last; the sharded engine's
  /// fold step calls it after scattering the per-shard vectors.
  void finalize(const FaultList& faults);
};

/// Faulty-machine propagation over one 64-pattern block — the PPSFP inner
/// loop, exposed as a reusable handle. Two families of entry points share
/// one scratch:
///
///   * per fault: detect_word (event-driven wave), detect_word_resim /
///     detect_word_transition / point_diff_words (levelized suffix
///     resimulation from the fault site) — used by ATPG and BIST;
///   * per fanout-free region: local_word (the fault's effect at its FFR
///     stem, walked up the region without a sweep) and stem_observation
///     (one suffix resimulation with the stem inverted) — what the
///     grading engines use. local_word & stem_observation equals
///     detect_word_resim for every fault a sweep would grade.
///
/// Construction allocates O(gate_count) scratch, reused across faults, so
/// one Propagator should be kept alive for a whole grading run.
class Propagator {
 public:
  /// Compiles the circuit privately; prefer the shared-view constructor
  /// when a compiled view already exists.
  explicit Propagator(const circuit::Circuit& circuit);
  explicit Propagator(
      std::shared_ptr<const circuit::CompiledCircuit> compiled);

  /// Sync the propagation scratch to a freshly simulated good-machine
  /// block. REQUIRED before the first detect_word / detect_word_resim of
  /// every block. `good` is either node_count() words (a hand-built
  /// buffer) or node_count()+1 words — a ParallelSimulator::values()
  /// buffer whose trailing word is the block epoch stamped by
  /// simulate_block. With the stamp present, every detect call verifies
  /// the buffer has not been re-simulated since this sync and fails
  /// loudly (assert + LSIQ_EXPECT) on the classic forgotten-begin_block
  /// bug; without it the caller is on their own.
  void begin_block(std::span<const std::uint64_t> good);

  /// Detection word for one fault (bit p = pattern p of the block detects
  /// it). `good` holds the good-machine words of every gate for this block
  /// (a completed ParallelSimulator::simulate_block over the same
  /// circuit) and must be the buffer last passed to begin_block.
  /// `point_masks`, when non-null, gives per observed point the lanes in
  /// which the tester strobes it this block; null means full
  /// observability. Event-driven: cost scales with the fault's cone, the
  /// right kernel when effects die near the site.
  std::uint64_t detect_word(const Fault& fault,
                            std::span<const std::uint64_t> good,
                            const std::vector<std::uint64_t>* point_masks =
                                nullptr);

  /// Same contract as detect_word, computed by levelized suffix
  /// resimulation instead of an event-driven wave: every gate at
  /// level >= the fault site's level is re-evaluated in one flat sweep.
  /// ~4x less bookkeeping per touched gate, so it wins whenever fault
  /// effects spread widely (the PPSFP block-grading regime); detect_word
  /// wins when effects die near the site. Fastest when consecutive calls
  /// are ordered by non-increasing site level — any order is correct, but
  /// an out-of-order call pays an extra prefix sweep to clear stale state.
  std::uint64_t detect_word_resim(const Fault& fault,
                                  std::span<const std::uint64_t> good,
                                  const std::vector<std::uint64_t>*
                                      point_masks = nullptr);

  /// Two-pattern transition kernel: the detect word of the matching
  /// capture stuck-at fault (suffix resimulation, same contract as
  /// detect_word_resim) gated by the launch word `window` derives from the
  /// fault line's previous-pattern good values. `fault` is a transition
  /// fault in the fault_model encoding (stuck_at_one == slow-to-fall);
  /// `window` must be tracking the same block sequence as begin_block —
  /// advance() it only after every fault of the block is graded. A fault
  /// with no launched lane skips capture simulation entirely.
  std::uint64_t detect_word_transition(
      const Fault& fault, std::span<const std::uint64_t> good,
      const fault_model::TwoPatternWindow& window,
      const std::vector<std::uint64_t>* point_masks = nullptr);

  /// Per-point difference words for one fault over the current block:
  /// resizes `diffs` to observed_points().size() and sets bit p of
  /// diffs[i] when pattern p of the block makes point i differ from the
  /// good machine; returns the OR over points (exactly detect_word's
  /// result with full observability). Signature compaction (bist::) needs
  /// the per-point structure the OR throws away — two errors reaching one
  /// MISR stage in the same cycle cancel. Suffix-resimulation kernel;
  /// same begin_block and call-ordering contract as detect_word_resim.
  std::uint64_t point_diff_words(const Fault& fault,
                                 std::span<const std::uint64_t> good,
                                 std::vector<std::uint64_t>& diffs);

  /// Stem-region kernel, first half: the fault's effect at its FFR stem
  /// (CompiledCircuit::ffr_stem) — bit p set when pattern p of the block
  /// flips the stem. The site word is walked up the region's single-reader
  /// chain with no sweep, stopping early once it equals the good value.
  /// A DFF D-pin branch fault bypasses logic: `*captured` is set and the
  /// returned word is already its final detect word (point masks applied),
  /// exactly as detect_word_resim resolves it. Same begin_block contract
  /// as detect_word.
  std::uint64_t local_word(const Fault& fault,
                           std::span<const std::uint64_t> good,
                           const std::vector<std::uint64_t>* point_masks,
                           bool* captured);

  /// Stem-region kernel, second half: the lanes in which inverting `stem`
  /// is seen at an observed point (under `point_masks`, null = full
  /// observability). One suffix resimulation from the stem's level, with
  /// the same dirty-level bookkeeping and call-ordering advice as
  /// detect_word_resim. A fault's detect word is local_word &
  /// stem_observation of its stem. Counted in stem_sweeps().
  std::uint64_t stem_observation(circuit::GateId stem,
                                 std::span<const std::uint64_t> good,
                                 const std::vector<std::uint64_t>*
                                     point_masks = nullptr);

  /// stem_observation calls made through this Propagator.
  [[nodiscard]] std::size_t stem_sweeps() const noexcept {
    return stem_sweeps_;
  }

  [[nodiscard]] const std::shared_ptr<const circuit::CompiledCircuit>&
  compiled() const noexcept {
    return compiled_;
  }

 private:
  /// Shared prologue of both kernels: DFF D-pin captures and faults whose
  /// effect never appears at the site resolve to a final detect word
  /// (returns true, sets `result`); otherwise sets `faulty_site` to the
  /// word to inject and returns false.
  bool resolve_site(const Fault& fault, const std::uint64_t* good,
                    const std::vector<std::uint64_t>* point_masks,
                    std::uint64_t* result, std::uint64_t* faulty_site) const;
  void schedule_fanout(circuit::GateId id);
  void sweep_clean(const std::uint64_t* good);
  /// Suffix resimulation core: inject `value` at `site`, re-evaluate every
  /// gate from min(site level, dirty level) up, and mark the site level
  /// dirty. Observe, then clear_source_site, before the next injection.
  void resimulate(circuit::GateId site, std::uint64_t value);
  void clear_source_site(circuit::GateId site, const std::uint64_t* good);
  /// OR over observed points of (work ^ good), masked per point when
  /// `point_masks` is non-null.
  [[nodiscard]] std::uint64_t observe(
      const std::uint64_t* good,
      const std::vector<std::uint64_t>* point_masks) const;
  /// Stale-sync guard run by every detect entry point: `good` must be the
  /// buffer last passed to begin_block, un-resimulated since (verified via
  /// the trailing epoch stamp when the buffer carries one).
  void check_sync(std::span<const std::uint64_t> good,
                  const char* who) const;

  std::shared_ptr<const circuit::CompiledCircuit> compiled_;
  std::vector<char> queued_;
  std::vector<std::vector<circuit::GateId>> buckets_;
  std::vector<circuit::GateId> touched_;
  std::size_t max_level_ = 0;
  /// Shared scratch of every kernel: the good-machine view of the current
  /// block. detect_word writes its wave here and restores it via touched_
  /// before returning; the suffix sweeps (resimulate) leave their machine
  /// in place at levels >= dirty_level_ and let the next sweep overwrite
  /// it.
  std::vector<std::uint64_t> work_;
  std::size_t dirty_level_ = 0;
  std::size_t stem_sweeps_ = 0;
  bool block_synced_ = false;
  /// Block epoch of the stamped buffer last seen by begin_block;
  /// 0 when that buffer carried no stamp (epochs start at 1).
  std::uint64_t stamp_ = 0;
};

/// Reference engine (see header comment). Intended for small circuits.
/// `schedule`, when given, restricts which observation points count at
/// which pattern (see strobe.hpp); it must cover exactly
/// circuit.observed_points().size() points.
FaultSimResult simulate_serial(const FaultList& faults,
                               const sim::PatternSet& patterns,
                               const StrobeSchedule* schedule = nullptr);

/// Production engine: PPSFP with fault dropping on the compiled netlist.
/// `compiled`, when non-null, must be a compiled view of faults.circuit()
/// and is used instead of recompiling — the batch runner's per-(circuit,
/// model) artifact cache passes it so N specs over one circuit compile
/// once. Results are bit-identical with or without a caller-supplied
/// compiled view. `width` must be 1 (anything else is a
/// ContractViolation): it exists only until flowbench/replay.cpp stops
/// passing EngineSpec::grade_width (ROADMAP, engine collapse).
FaultSimResult simulate_ppsfp(
    const FaultList& faults, const sim::PatternSet& patterns,
    const StrobeSchedule* schedule = nullptr,
    std::shared_ptr<const circuit::CompiledCircuit> compiled = nullptr,
    std::size_t width = 1);

/// Multi-threaded PPSFP: the grading pass of grade_class_range on
/// util::resolve_worker_count(num_threads) lanes (0 = one per hardware
/// thread; 1 starts no thread). Bit-identical to simulate_ppsfp and
/// simulate_serial. `compiled` and `width` as in simulate_ppsfp.
FaultSimResult simulate_ppsfp_mt(
    const FaultList& faults, const sim::PatternSet& patterns,
    const StrobeSchedule* schedule = nullptr, std::size_t num_threads = 0,
    std::shared_ptr<const circuit::CompiledCircuit> compiled = nullptr,
    std::size_t width = 1);

/// The shared prologue of the PPSFP-family engines (simulate_ppsfp,
/// simulate_ppsfp_mt, simulate_sharded) and of grade_class_range: the
/// pattern set must be as wide as the circuit's pattern inputs, and
/// `compiled` — compiled here from faults.circuit() when null — must be a
/// view of that circuit. Returns the view to grade on.
std::shared_ptr<const circuit::CompiledCircuit> grading_view(
    const FaultList& faults, const sim::PatternSet& patterns,
    std::shared_ptr<const circuit::CompiledCircuit> compiled);

/// The PPSFP-family grading pass, exposed for the sharding layer
/// (fault/shard.hpp): grade collapsed classes [class_begin, class_end) of
/// `faults` over the whole pattern set and write each graded class's
/// first-detection index (or -1) into `first_detection`, which must
/// already be sized faults.class_count(); entries outside the range are
/// not touched. `compiled` must be a non-null view of faults.circuit().
/// The range's live list, cut into chunks of whole stem groups, is graded
/// by resolve_worker_count(threads) lanes — the caller plus threads - 1
/// workers — that claim chunks from an atomic cursor and grade each
/// through every block with fault dropping. Each block's good machine is
/// simulated once, by the first lane that needs it, into a buffer the
/// lanes share read-only; the buffer holds 64 blocks at a time, and the
/// lanes join once per 64 blocks, never once per block. threads = 1
/// starts no thread. Every lane polls the caller's deadline and cancel
/// scopes once per chunk and block; an exception in any lane ends the
/// others after their current chunk and is rethrown here once every
/// worker has joined. The bits written and the returned stem-observation
/// sweep count (FaultSimResult::stem_sweeps) are identical for every
/// thread count. A stem whose classes straddle two ranges is swept by
/// both, so split ranges may sum to more sweeps than one call.
std::size_t grade_class_range(
    const FaultList& faults, const sim::PatternSet& patterns,
    const StrobeSchedule* schedule,
    const std::shared_ptr<const circuit::CompiledCircuit>& compiled,
    std::size_t threads, std::size_t class_begin, std::size_t class_end,
    std::vector<std::int64_t>& first_detection);

}  // namespace lsiq::fault
