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
// All return, per collapsed fault class, the index of the first pattern
// that detects it — the raw material for coverage curves (Section 5) and
// for the virtual tester's first-failing-pattern experiment (Table 1).
//
// The stem-region kernel is the only way any caller computes a fault's
// faulty-machine effect: ATPG confirmation, transition compaction and
// BIST signature grading (which reads the stem's per-point words) grade
// stem groups through the same Propagator entry points and building
// blocks (fault/stem_grading.hpp) as the engines.
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

/// Faulty-machine propagation over one 64-pattern block: the
/// stem-region kernel, exposed as a reusable handle. Per fanout-free
/// region, local_word gives a fault's effect at its FFR stem (walked up
/// the region without a sweep) and stem_observation the lanes in which
/// inverting the stem is seen at an observed point (one suffix
/// resimulation). A fault's detect word is local_word & stem_observation
/// of its stem.
///
/// Construction allocates O(gate_count) scratch, reused across blocks, so
/// one Propagator should be kept alive for a whole grading run.
class Propagator {
 public:
  /// Compiles the circuit privately; prefer the shared-view constructor
  /// when a compiled view already exists.
  explicit Propagator(const circuit::Circuit& circuit);
  explicit Propagator(
      std::shared_ptr<const circuit::CompiledCircuit> compiled);

  /// Sync the propagator to a freshly simulated good-machine block.
  /// REQUIRED before the first local_word / stem_observation of every
  /// block. `good` is either node_count() words (a hand-built buffer) or
  /// node_count()+1 words — a ParallelSimulator::values() buffer whose
  /// trailing word is the block epoch stamped by simulate_block. With the
  /// stamp present, every kernel call verifies the buffer has not been
  /// re-simulated since this sync and fails loudly (assert +
  /// LSIQ_EXPECT) on the classic forgotten-begin_block bug; without it
  /// the caller is on their own. The scratch copy of the block is made
  /// by its first stem_observation, not here.
  void begin_block(std::span<const std::uint64_t> good);

  /// Stem-region kernel, first half: the fault's effect at its FFR stem
  /// (CompiledCircuit::ffr_stem) — bit p set when pattern p of the block
  /// flips the stem. `good` holds the good-machine words of every gate
  /// for this block and must be the buffer last passed to begin_block.
  /// The site word is walked up the region's single-reader chain with no
  /// sweep, stopping early once it equals the good value. A DFF D-pin
  /// branch fault bypasses logic: `*captured` is set and the returned
  /// word is already its final detect word (lanes in which its
  /// flip-flop's scan-capture point differs, under `point_masks`).
  std::uint64_t local_word(const Fault& fault,
                           std::span<const std::uint64_t> good,
                           const std::vector<std::uint64_t>* point_masks,
                           bool* captured);

  /// Stem-region kernel, second half: the lanes in which inverting `stem`
  /// is seen at an observed point, under `point_masks` (per observed
  /// point, the lanes the tester strobes it this block; null = full
  /// observability). One levelized suffix resimulation from the stem's
  /// level; fastest when consecutive calls of a block are ordered by
  /// non-increasing stem level (sorted_live_list order) — any order is
  /// correct, but an out-of-order call re-sweeps what the previous one
  /// left dirty. When `point_words` is non-null it receives one word per
  /// observed point: bit p of point_words[i] is set when inverting the
  /// stem flips point i in pattern p (masked like the result, whose OR
  /// they are). Signature compaction (bist::) needs that per-point
  /// structure: two errors reaching one MISR stage in the same cycle
  /// cancel. Same begin_block contract as local_word. Counted in
  /// stem_sweeps().
  std::uint64_t stem_observation(circuit::GateId stem,
                                 std::span<const std::uint64_t> good,
                                 const std::vector<std::uint64_t>*
                                     point_masks = nullptr,
                                 std::uint64_t* point_words = nullptr);

  /// stem_observation calls made through this Propagator.
  [[nodiscard]] std::size_t stem_sweeps() const noexcept {
    return stem_sweeps_;
  }

  [[nodiscard]] const std::shared_ptr<const circuit::CompiledCircuit>&
  compiled() const noexcept {
    return compiled_;
  }

 private:
  /// Prologue of local_word: DFF D-pin captures and faults whose effect
  /// never appears at the site resolve to a final detect word (returns
  /// true, sets `result`); otherwise sets `faulty_site` to the site's
  /// faulty word and returns false.
  bool resolve_site(const Fault& fault, const std::uint64_t* good,
                    const std::vector<std::uint64_t>* point_masks,
                    std::uint64_t* result, std::uint64_t* faulty_site) const;
  /// Stale-sync guard run by both kernel halves: `good` must be the
  /// buffer last passed to begin_block, un-resimulated since (verified via
  /// the trailing epoch stamp when the buffer carries one).
  void check_sync(std::span<const std::uint64_t> good,
                  const char* who) const;

  std::shared_ptr<const circuit::CompiledCircuit> compiled_;
  /// The current block's good machine, overwritten by each suffix sweep
  /// at levels >= dirty_level_ (the next sweep overwrites it again).
  /// Copied from the block by its first sweep (work_copied_).
  std::vector<std::uint64_t> work_;
  std::size_t dirty_level_ = 0;
  std::size_t stem_sweeps_ = 0;
  bool block_synced_ = false;
  bool work_copied_ = false;
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

/// The reference engine's faulty machine over one block: every gate of
/// the plain Circuit re-evaluated, in topological order, with `fault`
/// injected; `input_words` holds one word per pattern input. Returns every
/// gate's faulty word. A DFF D-pin branch fault leaves the logic
/// untouched — its effect is the stuck value seen by that flip-flop's
/// scan capture. It shares no code with the compiled view or the
/// Propagator, which is why tests build their oracles on it.
std::vector<std::uint64_t> simulate_faulty_block_full(
    const circuit::Circuit& circuit, const Fault& fault,
    const std::vector<std::uint64_t>& input_words);

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
