// Tests for the persistent worker pool, with emphasis on the exception
// contract: a throw inside a pool task must surface in the caller as a
// normal exception (first-exception capture + rethrow), never reach
// std::terminate, and never poison later jobs on the same pool.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "circuit/generators.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "sim/parallel_sim.hpp"
#include "util/error.hpp"

namespace lsiq::util {
namespace {

TEST(ResolveWorkerCount, ExplicitCountsPassThrough) {
  EXPECT_EQ(resolve_worker_count(1), 1u);
  EXPECT_EQ(resolve_worker_count(2), 2u);
  EXPECT_EQ(resolve_worker_count(17), 17u);
}

TEST(ResolveWorkerCount, ZeroMeansOnePerHardwareThread) {
  const std::size_t resolved = resolve_worker_count(0);
  EXPECT_GE(resolved, 1u);  // never zero, even if hw concurrency is unknown
  // The pool follows the same convention — its lane count IS the resolved
  // count, by construction.
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), resolved);
}

TEST(ThreadPool, RunsEveryLaneExactlyOnce) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(pool.size());
  pool.run([&](std::size_t lane) { ++hits[lane]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.run([](std::size_t lane) {
                 if (lane == 1) throw std::runtime_error("lane 1 failed");
               }),
               std::runtime_error);
}

TEST(ThreadPool, FirstExceptionWinsWhenEveryLaneThrows) {
  ThreadPool pool(4);
  try {
    pool.run([](std::size_t lane) {
      throw std::runtime_error("lane " + std::to_string(lane));
    });
    FAIL() << "run() must rethrow";
  } catch (const std::runtime_error& e) {
    // Exactly one of the lane messages, intact — not a mangled mixture.
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("lane ", 0), 0u) << what;
  }
}

TEST(ThreadPool, PoolIsReusableAfterAnException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.run([](std::size_t) { throw std::logic_error("boom"); }),
      std::logic_error);
  // The failed job must not leak its exception into the next one.
  std::atomic<int> ran{0};
  EXPECT_NO_THROW(pool.run([&](std::size_t) { ++ran; }));
  EXPECT_EQ(ran.load(), 2);
  // And a second failure is reported afresh.
  EXPECT_THROW(
      pool.run([](std::size_t) { throw std::logic_error("again"); }),
      std::logic_error);
}

TEST(ThreadPool, NonThrowingLanesCompleteWhenOneThrows) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(pool.size());
  EXPECT_THROW(pool.run([&](std::size_t lane) {
                 ++hits[lane];
                 if (lane == 0) throw std::runtime_error("lane 0");
               }),
               std::runtime_error);
  // run() waits for every lane before rethrowing, so all lanes ran.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ThrowFromGradingLanePropagates) {
  // The grading shape: each lane owns a Propagator and grades faults.
  // Calling local_word without begin_block violates the propagator's
  // contract; the resulting ContractViolation must travel from the worker
  // thread to the caller instead of terminating the process.
  const circuit::Circuit c = circuit::make_c17();
  const fault::FaultList faults = fault::FaultList::full_universe(c);
  auto compiled = std::make_shared<const circuit::CompiledCircuit>(c);

  ThreadPool pool(2);
  std::vector<fault::Propagator> propagators;
  propagators.reserve(pool.size());
  for (std::size_t t = 0; t < pool.size(); ++t) {
    propagators.emplace_back(compiled);
  }
  const std::vector<std::uint64_t> good(compiled->node_count(), 0);
  EXPECT_THROW(pool.run([&](std::size_t lane) {
                 // Deliberately skip begin_block: stale-sync contract.
                 bool captured = false;
                 (void)propagators[lane].local_word(
                     faults.representatives().front(), good, nullptr,
                     &captured);
               }),
               ContractViolation);
}

}  // namespace
}  // namespace lsiq::util
