#include "fault/shard.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace lsiq::fault {

ShardPlan ShardPlan::split(std::size_t class_count, std::size_t shard_count) {
  LSIQ_EXPECT(shard_count >= 1, "ShardPlan: at least one shard required");
  ShardPlan plan;
  plan.class_count_ = class_count;
  plan.ranges_.reserve(shard_count);
  const std::size_t base = class_count / shard_count;
  const std::size_t extra = class_count % shard_count;
  std::size_t begin = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t size = base + (s < extra ? 1 : 0);
    plan.ranges_.push_back(ShardRange{begin, begin + size});
    begin += size;
  }
  return plan;
}

std::vector<std::int64_t> fold_shards(
    const ShardPlan& plan,
    const std::vector<std::vector<std::int64_t>>& per_shard) {
  LSIQ_EXPECT(per_shard.size() == plan.shard_count(),
              "fold_shards: one vector per shard required");
  std::vector<std::int64_t> folded(plan.class_count(), -1);
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    const ShardRange& range = plan.shard(s);
    LSIQ_EXPECT(per_shard[s].size() == plan.class_count(),
                "fold_shards: shard vector must cover every class");
    for (std::size_t c = range.begin; c < range.end; ++c) {
      folded[c] = per_shard[s][c];
    }
  }
  return folded;
}

FaultSimResult simulate_sharded(
    const FaultList& faults, const sim::PatternSet& patterns,
    const StrobeSchedule* schedule, const ShardedOptions& options,
    std::shared_ptr<const circuit::CompiledCircuit> compiled) {
  LSIQ_EXPECT(options.width == 1,
              "simulate_sharded: grading is 64-lane; width must be 1");
  compiled = grading_view(faults, patterns, std::move(compiled));

  const std::size_t shard_count = options.shards != 0
                                      ? options.shards
                                      : util::resolve_worker_count(0);
  const ShardPlan plan = ShardPlan::split(faults.class_count(), shard_count);

  // Grade each shard into its own full-length vector, exactly as a
  // remote lane would ship one back, then fold. Shards run one after
  // another here — the parallelism inside a shard is the grading pass's
  // own (num_threads lanes), and the shard loop is the seam where MPI
  // ranks or GPU lanes slot in.
  std::vector<std::vector<std::int64_t>> per_shard(plan.shard_count());
  std::size_t stem_sweeps = 0;
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    per_shard[s].assign(faults.class_count(), -1);
    const ShardRange& range = plan.shard(s);
    if (range.size() == 0) continue;
    stem_sweeps += grade_class_range(faults, patterns, schedule, compiled,
                                     options.num_threads, range.begin,
                                     range.end, per_shard[s]);
  }

  FaultSimResult result;
  result.first_detection = fold_shards(plan, per_shard);
  result.stem_sweeps = stem_sweeps;
  result.finalize(faults);
  return result;
}

}  // namespace lsiq::fault
