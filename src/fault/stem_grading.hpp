// The building blocks of stem-region grading, shared by every caller that
// needs a fault's faulty-machine effect: the PPSFP pass
// (grade_class_range), ATPG confirmation and transition compaction
// (tpg/atpg.cpp), and MISR signature grading (bist/session.cpp).
//
// A caller sorts its classes into stem groups (sorted_live_list), grades
// a group per block with one Propagator::stem_observation sweep
// (grade_stem_groups, or its own loop over Propagator::local_word and
// stem_observation when it needs more than detect words), and, when it
// runs on several lanes, cuts the list into chunks of whole groups
// (stem_group_chunks), shares each block's good machine through a
// GoodWindow and starts its lanes with run_lanes.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "circuit/compiled.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "fault/strobe.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/pattern.hpp"
#include "util/deadline.hpp"

namespace lsiq::fault {

/// Every class index in [class_begin, class_end), ordered by the rank of
/// its FFR stem (CompiledCircuit::ffr_rank: stem level descending, then
/// stem id), then by class index. Suffix resimulation sweeps [stem level,
/// depth], so this order makes each sweep exactly overwrite what the
/// previous one dirtied, and it makes every stem's classes one contiguous
/// group. Detect words are order-independent; only the sweep start
/// depends on the order. A counting sort by rank, stable in class index.
std::vector<std::uint32_t> sorted_live_list(
    const FaultList& faults, const circuit::CompiledCircuit& compiled,
    std::size_t class_begin, std::size_t class_end);

/// Stem-region grading of live[0, count) — whole stem groups, in
/// sorted_live_list order — into detects[0, count), over the block whose
/// good machine `propagator` was last begin_block'ed on. A stem's
/// observation word is swept at most once, and only when some class of
/// its group has a nonzero local & `mask` (& launch) word. For a
/// transition universe `previous` is the block before `good` (nullptr
/// for the program's first block).
void grade_stem_groups(Propagator& propagator, const FaultList& faults,
                       const std::uint32_t* live, std::size_t count,
                       std::span<const std::uint64_t> good,
                       std::uint64_t mask,
                       const std::vector<std::uint64_t>* point_masks,
                       bool transition, const std::uint64_t* previous,
                       std::uint64_t* detects);

/// A run of whole stem groups in a live list, graded by one lane at a
/// time. Its classes are live[begin, begin + live); a pass with fault
/// dropping compacts them in place, keeping their order.
struct Chunk {
  std::size_t begin = 0;
  std::size_t live = 0;
};

/// Cut a sorted_live_list into chunks: a chunk closes at the first
/// stem-group boundary at or past 64 classes — small enough to balance
/// the lanes, large enough to amortize a chunk's begin_block per block.
/// No stem is ever swept by two lanes in one block. Empty for an empty
/// list.
std::vector<Chunk> stem_group_chunks(const FaultList& faults,
                                     const circuit::CompiledCircuit& compiled,
                                     const std::vector<std::uint32_t>& live);

/// Blocks whose good machine a GoodWindow holds at once (4096 patterns),
/// so its buffer stays bounded however long the program is.
constexpr std::size_t kWindowBlocks = 64;

/// The good machine of one window of blocks, shared read-only by the
/// lanes. Each block is simulated once, by the first lane that needs it,
/// so blocks that no lane reaches are never simulated, and is published
/// through an atomic frontier: once a block exists, a lane pays one
/// acquire load for it. Every block keeps its ParallelSimulator epoch
/// word, so Propagator::check_sync stays armed. The blocks share one
/// allocation, made on the constructing thread: memory the lanes
/// allocated would come from their own malloc arenas, and a run of
/// block-sized allocations would be returned to the system and faulted in
/// again on every call.
class GoodWindow {
 public:
  /// `schedule`, when given, must cover every observed point.
  GoodWindow(const std::shared_ptr<const circuit::CompiledCircuit>& compiled,
             const sim::PatternSet& patterns, const StrobeSchedule* schedule);

  /// Move on to blocks [first, last), at most kWindowBlocks of them. Not
  /// thread-safe: call between lane runs. The previous window's last
  /// block stays readable as the predecessor of `first`.
  void reset(std::size_t first, std::size_t last);

  /// Good values of block b of the window, simulated first if no lane
  /// has needed it yet.
  std::span<const std::uint64_t> block(std::size_t b);

  /// Block b - 1's good values (nullptr for the program's first block),
  /// for transition launch masks. Valid once block(b) returned.
  [[nodiscard]] const std::uint64_t* previous(std::size_t b) const {
    return b == 0 ? nullptr : slot(b - 1);
  }

  /// Block b's strobe lane masks, nullptr under full observation. Valid
  /// once block(b) returned.
  [[nodiscard]] const std::vector<std::uint64_t>* strobes(
      std::size_t b) const {
    return schedule_ != nullptr ? &strobes_[b - first_] : nullptr;
  }

 private:
  /// Slot 0 holds the block before the window, slot k + 1 its block k.
  [[nodiscard]] std::uint64_t* slot(std::size_t b) const {
    return good_.get() + (b + 1 - first_) * stride_;
  }

  const sim::PatternSet& patterns_;
  std::mutex mutex_;
  sim::ParallelSimulator sim_;
  /// The strobe schedule, nullptr when absent or full.
  const StrobeSchedule* schedule_;
  std::size_t stride_;
  std::unique_ptr<std::uint64_t[]> good_;
  std::size_t first_ = 0;
  /// Blocks [first_, ready_) are simulated and published.
  std::atomic<std::size_t> ready_{0};
  std::vector<std::vector<std::uint64_t>> strobes_;
};

/// Run lane(0, stop) on the calling thread and lane(1..lanes-1, stop) on
/// worker threads that adopt its deadline and cancel scopes. Returns once
/// every worker has joined and rethrows the first exception a lane threw;
/// `stop` is raised on an exception, so the other lanes end after their
/// current chunk. `lanes` must be at least 1; one lane starts no thread.
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

}  // namespace lsiq::fault
