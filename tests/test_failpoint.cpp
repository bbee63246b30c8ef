// Tests for the robustness primitives underneath the batch runner: the
// error taxonomy (stable codes, transient classification), the failpoint
// registry (arming, config grammar, bounded firing) and the cooperative
// deadline watchdog.
#include "util/failpoint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "util/deadline.hpp"
#include "util/error.hpp"

namespace lsiq::util {
namespace {

/// Every test starts and ends with an empty registry — the registry is
/// process-global, so leaking an armed site would fault unrelated tests.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::instance().clear(); }
  void TearDown() override { Failpoints::instance().clear(); }
};

// ---- error taxonomy ----

TEST(ErrorTaxonomy, CodesAreStableAndNamed) {
  // The numeric values are a wire format (batch JSONL, scripts): pin them.
  EXPECT_EQ(static_cast<int>(ErrorCode::kOk), 0);
  EXPECT_EQ(static_cast<int>(ErrorCode::kUnknown), 1);
  EXPECT_EQ(static_cast<int>(ErrorCode::kContract), 2);
  EXPECT_EQ(static_cast<int>(ErrorCode::kParse), 3);
  EXPECT_EQ(static_cast<int>(ErrorCode::kNumeric), 4);
  EXPECT_EQ(static_cast<int>(ErrorCode::kInvalidSpec), 5);
  EXPECT_EQ(static_cast<int>(ErrorCode::kIo), 6);
  EXPECT_EQ(static_cast<int>(ErrorCode::kTransient), 7);
  EXPECT_EQ(static_cast<int>(ErrorCode::kDeadline), 8);
  EXPECT_EQ(static_cast<int>(ErrorCode::kCancelled), 9);
  EXPECT_EQ(static_cast<int>(ErrorCode::kLint), 10);
  EXPECT_EQ(static_cast<int>(ErrorCode::kQueueFull), 11);
  EXPECT_EQ(static_cast<int>(ErrorCode::kShutdown), 12);
  EXPECT_EQ(static_cast<int>(ErrorCode::kNotFound), 13);

  EXPECT_STREQ(error_code_name(ErrorCode::kOk), "ok");
  EXPECT_STREQ(error_code_name(ErrorCode::kInvalidSpec), "invalid_spec");
  EXPECT_STREQ(error_code_name(ErrorCode::kDeadline), "deadline");
  EXPECT_STREQ(error_code_name(ErrorCode::kLint), "lint");
  EXPECT_STREQ(error_code_name(ErrorCode::kQueueFull), "queue_full");
  EXPECT_STREQ(error_code_name(ErrorCode::kShutdown), "shutdown");
  EXPECT_STREQ(error_code_name(ErrorCode::kNotFound), "not_found");
}

TEST(ErrorTaxonomy, NamesRoundTrip) {
  for (const ErrorCode code :
       {ErrorCode::kOk, ErrorCode::kUnknown, ErrorCode::kContract,
        ErrorCode::kParse, ErrorCode::kNumeric, ErrorCode::kInvalidSpec,
        ErrorCode::kIo, ErrorCode::kTransient, ErrorCode::kDeadline,
        ErrorCode::kCancelled, ErrorCode::kLint, ErrorCode::kQueueFull,
        ErrorCode::kShutdown, ErrorCode::kNotFound}) {
    SCOPED_TRACE(error_code_name(code));
    const std::optional<ErrorCode> parsed =
        error_code_from_name(error_code_name(code));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, code);
  }
  EXPECT_FALSE(error_code_from_name("flaky").has_value());
  EXPECT_FALSE(error_code_from_name("").has_value());
}

TEST(ErrorTaxonomy, TransientSplitMatchesRetrySemantics) {
  // Only I/O hiccups and explicitly-transient failures are worth a
  // retry; everything else — a bad spec, a numeric blow-up, a DEADLINE
  // overrun (a wedged run re-wedges) — fails identically on attempt 2.
  EXPECT_TRUE(is_transient(ErrorCode::kIo));
  EXPECT_TRUE(is_transient(ErrorCode::kTransient));
  EXPECT_FALSE(is_transient(ErrorCode::kOk));
  EXPECT_FALSE(is_transient(ErrorCode::kUnknown));
  EXPECT_FALSE(is_transient(ErrorCode::kContract));
  EXPECT_FALSE(is_transient(ErrorCode::kParse));
  EXPECT_FALSE(is_transient(ErrorCode::kNumeric));
  EXPECT_FALSE(is_transient(ErrorCode::kInvalidSpec));
  EXPECT_FALSE(is_transient(ErrorCode::kDeadline));
  EXPECT_FALSE(is_transient(ErrorCode::kCancelled));
  // A lint refusal is deterministic: the same netlist re-lints the same.
  EXPECT_FALSE(is_transient(ErrorCode::kLint));

  // The flow-service codes: a momentarily full admission queue clears
  // itself (retry-worthy); a draining service never re-opens and a
  // missing job id stays missing.
  EXPECT_TRUE(is_transient(ErrorCode::kQueueFull));
  EXPECT_FALSE(is_transient(ErrorCode::kShutdown));
  EXPECT_FALSE(is_transient(ErrorCode::kNotFound));
}

TEST(ErrorTaxonomy, SubclassesCarryTheirCode) {
  EXPECT_EQ(Error("x").code(), ErrorCode::kUnknown);
  EXPECT_EQ(Error("x", ErrorCode::kIo).code(), ErrorCode::kIo);
  EXPECT_EQ(ContractViolation("x").code(), ErrorCode::kContract);
  EXPECT_EQ(ParseError("x").code(), ErrorCode::kParse);
  EXPECT_EQ(NumericError("x").code(), ErrorCode::kNumeric);
  EXPECT_EQ(IoError("x").code(), ErrorCode::kIo);
  EXPECT_EQ(TransientError("x").code(), ErrorCode::kTransient);
  EXPECT_EQ(DeadlineExceeded("x").code(), ErrorCode::kDeadline);
  EXPECT_EQ(CancelledError("x").code(), ErrorCode::kCancelled);

  EXPECT_TRUE(IoError("x").transient());
  EXPECT_FALSE(DeadlineExceeded("x").transient());
}

TEST(ErrorTaxonomy, CatchingAsBaseKeepsTheCode) {
  // The batch runner catches `const Error&` and reads code(): the code
  // must survive the upcast.
  try {
    throw IoError("disk full");
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
    EXPECT_TRUE(e.transient());
  }
}

// ---- failpoint registry ----

TEST_F(FailpointTest, UnarmedSitesDoNothing) {
  EXPECT_NO_THROW(LSIQ_FAILPOINT("flow.grade"));
  EXPECT_FALSE(Failpoints::instance().armed("flow.grade"));
  // Hit counting only runs while something is armed (the fast path skips
  // the lock entirely).
  EXPECT_EQ(Failpoints::instance().hit_count("flow.grade"), 0u);
}

TEST_F(FailpointTest, ArmedErrorSiteThrowsItsCode) {
  FailpointAction action;
  action.throws = true;
  action.code = ErrorCode::kIo;
  Failpoints::instance().arm("flow.grade", action);
  EXPECT_TRUE(Failpoints::instance().armed("flow.grade"));
  try {
    LSIQ_FAILPOINT("flow.grade");
    FAIL() << "expected injected IoError";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
    EXPECT_NE(std::string(e.what()).find("flow.grade"), std::string::npos)
        << "injected error should name its site: " << e.what();
  }
  // Other sites stay clean.
  EXPECT_NO_THROW(LSIQ_FAILPOINT("flow.run"));
}

TEST_F(FailpointTest, TimesBoundsTheFiringCount) {
  FailpointAction action;
  action.throws = true;
  action.code = ErrorCode::kTransient;
  action.times = 2;
  Failpoints::instance().arm("spec.read", action);
  EXPECT_THROW(LSIQ_FAILPOINT("spec.read"), TransientError);
  EXPECT_THROW(LSIQ_FAILPOINT("spec.read"), TransientError);
  // Budget exhausted: the site stays registered but inert.
  EXPECT_NO_THROW(LSIQ_FAILPOINT("spec.read"));
  EXPECT_NO_THROW(LSIQ_FAILPOINT("spec.read"));
  EXPECT_FALSE(Failpoints::instance().armed("spec.read"));
  EXPECT_EQ(Failpoints::instance().hit_count("spec.read"), 4u);
}

TEST_F(FailpointTest, DisarmAndClear) {
  FailpointAction action;
  action.throws = true;
  Failpoints::instance().arm("flow.run", action);
  Failpoints::instance().disarm("flow.run");
  EXPECT_NO_THROW(LSIQ_FAILPOINT("flow.run"));

  Failpoints::instance().arm("flow.run", action);
  Failpoints::instance().clear();
  EXPECT_NO_THROW(LSIQ_FAILPOINT("flow.run"));
  EXPECT_EQ(Failpoints::instance().hit_count("flow.run"), 0u);
}

TEST_F(FailpointTest, ConfigStringGrammar) {
  const std::size_t applied = Failpoints::instance().arm_from_string(
      "flow.grade=error(io,1);spec.read=sleep(5);flow.run=off");
  EXPECT_EQ(applied, 3u);
  EXPECT_TRUE(Failpoints::instance().armed("flow.grade"));
  EXPECT_TRUE(Failpoints::instance().armed("spec.read"));
  EXPECT_FALSE(Failpoints::instance().armed("flow.run"));

  try {
    LSIQ_FAILPOINT("flow.grade");
    FAIL() << "expected injected IoError";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIo);
  }
  EXPECT_NO_THROW(LSIQ_FAILPOINT("flow.grade"));  // times=1 spent

  // sleep() delays but does not throw.
  EXPECT_NO_THROW(LSIQ_FAILPOINT("spec.read"));
}

TEST_F(FailpointTest, MalformedConfigsFailLoudly) {
  for (const char* config :
       {"flow.grade", "flow.grade=", "=error(io)", "flow.grade=boom(1)",
        "flow.grade=error(flaky)", "flow.grade=error(io,many)",
        "flow.grade=error(io", "flow.grade=sleep()"}) {
    SCOPED_TRACE(config);
    EXPECT_THROW(Failpoints::instance().arm_from_string(config), ParseError);
  }
  // Empty config is a no-op, not an error (unset env variable).
  EXPECT_EQ(Failpoints::instance().arm_from_string(""), 0u);
}

TEST_F(FailpointTest, ReArmingReplacesTheAction) {
  Failpoints::instance().arm_from_string("flow.grade=error(io)");
  Failpoints::instance().arm_from_string("flow.grade=error(invalid_spec)");
  try {
    LSIQ_FAILPOINT("flow.grade");
    FAIL() << "expected injected error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidSpec);
  }
}

// ---- deadline watchdog ----

TEST(Deadline, NoScopeMeansNoOverhead) {
  EXPECT_FALSE(deadline_active());
  EXPECT_NO_THROW(poll_deadline());
}

TEST(Deadline, ExpiredScopeThrowsOnPoll) {
  DeadlineScope scope(std::chrono::milliseconds(1));
  EXPECT_TRUE(deadline_active());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_THROW(poll_deadline(), DeadlineExceeded);
}

TEST(Deadline, GenerousScopeDoesNotFire) {
  DeadlineScope scope(std::chrono::milliseconds(60000));
  EXPECT_NO_THROW(poll_deadline());
}

TEST(Deadline, ScopesUnwindOnExit) {
  {
    DeadlineScope scope(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(deadline_active());
  EXPECT_NO_THROW(poll_deadline());
}

TEST(Deadline, NestingOnlyTightens) {
  // An inner scope cannot extend the outer budget: the effective deadline
  // is the minimum of the stack.
  DeadlineScope outer(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  DeadlineScope inner(std::chrono::milliseconds(60000));
  EXPECT_THROW(poll_deadline(), DeadlineExceeded);
}

TEST(Deadline, ScopesAreThreadLocal) {
  DeadlineScope scope(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  bool other_thread_clean = false;
  std::thread other([&] { other_thread_clean = !deadline_active(); });
  other.join();
  EXPECT_TRUE(other_thread_clean);
  EXPECT_THROW(poll_deadline(), DeadlineExceeded);
}

TEST(Deadline, AdoptedScopesFireOnAWorkerThread) {
  // A worker computing on the caller's behalf adopts the caller's scope
  // stack: the caller's expired deadline and set cancel flag fire in the
  // worker's polls, and the worker's own stack comes back afterwards.
  DeadlineScope scope(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const detail::DeadlineFrame* caller = current_scopes();
  bool fired = false;
  bool restored = false;
  std::thread worker([&] {
    {
      const AdoptScopes adopt(caller);
      try {
        poll_deadline();
      } catch (const DeadlineExceeded&) {
        fired = true;
      }
    }
    restored = !deadline_active();
  });
  worker.join();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(restored);

  std::atomic<bool> flag{true};
  const CancelScope cancel(flag);
  const detail::DeadlineFrame* cancelling = current_scopes();
  bool cancelled = false;
  std::thread other([&] {
    const AdoptScopes adopt(cancelling);
    try {
      poll_deadline();
    } catch (const lsiq::CancelledError&) {
      cancelled = true;
    }
  });
  other.join();
  EXPECT_TRUE(cancelled);
}

TEST_F(FailpointTest, SleepActionTripsAnActiveDeadline) {
  // The canonical wedged-run simulation: a sleeping failpoint inside a
  // deadline scope must surface as DeadlineExceeded at the site itself
  // (hit() re-polls after sleeping).
  Failpoints::instance().arm_from_string("flow.grade=sleep(20)");
  DeadlineScope scope(std::chrono::milliseconds(5));
  EXPECT_THROW(LSIQ_FAILPOINT("flow.grade"), DeadlineExceeded);
}

// ---- cooperative cancellation ----

TEST(CancelScope, SetFlagThrowsCancelledOnPoll) {
  std::atomic<bool> flag{false};
  CancelScope scope(flag);
  EXPECT_NO_THROW(poll_deadline());  // unset flag: polls pass
  flag.store(true);
  EXPECT_THROW(poll_deadline(), lsiq::CancelledError);
}

TEST(CancelScope, OuterFlagStaysLiveUnderInnerDeadlineScope) {
  // The flow service nests exactly this way: a CancelScope around the
  // whole attempt loop, a DeadlineScope per attempt inside it. The cancel
  // flag must win even though the inner frame carries only a clock.
  std::atomic<bool> flag{false};
  CancelScope cancel(flag);
  DeadlineScope deadline(std::chrono::milliseconds(60000));
  flag.store(true);
  EXPECT_THROW(poll_deadline(), lsiq::CancelledError);
}

TEST(CancelScope, CancellationOutranksAnExpiredDeadline) {
  // When both conditions hold, the poll reports CANCELLED: the job died
  // because someone asked, not because it was slow — the flow service
  // records hinge on that distinction.
  std::atomic<bool> flag{true};
  CancelScope cancel(flag);
  DeadlineScope deadline(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_THROW(poll_deadline(), lsiq::CancelledError);
}

TEST(CancelScope, UnwindsOnScopeExit) {
  std::atomic<bool> flag{true};
  {
    CancelScope scope(flag);
  }
  EXPECT_FALSE(deadline_active());
  EXPECT_NO_THROW(poll_deadline());
}

TEST_F(FailpointTest, SleepingSiteObservesCancellation) {
  // A running job's cancel flag flips while the run sleeps inside a
  // site; the post-sleep re-poll surfaces CancelledError right there.
  Failpoints::instance().arm_from_string("flow.grade=sleep(30)");
  std::atomic<bool> flag{false};
  CancelScope scope(flag);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    flag.store(true);
  });
  EXPECT_THROW(LSIQ_FAILPOINT("flow.grade"), lsiq::CancelledError);
  canceller.join();
}

}  // namespace
}  // namespace lsiq::util
