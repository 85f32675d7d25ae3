#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/run_context.h"

namespace maras {
namespace {

TEST(EffectiveThreadsTest, SerialAndClampedCases) {
  EXPECT_EQ(EffectiveThreads(0, 100), 1u);
  EXPECT_EQ(EffectiveThreads(1, 100), 1u);
  EXPECT_EQ(EffectiveThreads(8, 0), 1u);
  EXPECT_EQ(EffectiveThreads(8, 1), 1u);
  EXPECT_EQ(EffectiveThreads(8, 3), 3u);
  EXPECT_EQ(EffectiveThreads(4, 100), 4u);
}

// Ungoverned fan-out of a body that never fails, as the void call sites
// (stratified screens, contingency tables) run it.
void ForEachIndex(size_t num_threads, size_t n,
                  const std::function<void(size_t)>& fn) {
  Status status =
      TryParallelFor(num_threads, n, RunContext(), [&fn](size_t i, size_t) {
        fn(i);
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
}

class ParallelForThreadSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelForThreadSweep, TouchesEveryIndexExactlyOnce) {
  const size_t n = 500;
  std::vector<int> touched(n, 0);
  ForEachIndex(GetParam(), n, [&touched](size_t i) { touched[i] += 1; });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(touched[i], 1) << "index " << i;
  }
}

TEST_P(ParallelForThreadSweep, OrderedResultCollection) {
  // Index-addressed result slots, the idiom every call site collects
  // through: results come back in index order whatever the schedule.
  const size_t n = 200;
  std::vector<size_t> squares(n);
  ForEachIndex(GetParam(), n, [&squares](size_t i) { squares[i] = i * i; });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelForThreadSweep,
                         ::testing::Values(0, 1, 2, 4, 8));

TEST(ParallelForTest, EmptyRangeIsNoOp) {
  bool called = false;
  ForEachIndex(4, 0, [&called](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, ExceptionPropagatesWithoutDeadlock) {
  EXPECT_THROW(ForEachIndex(4, 100,
                            [](size_t i) {
                              if (i == 17) throw std::runtime_error("index 17");
                            }),
               std::runtime_error);
  // Serial path propagates too, and stops at the throwing index.
  std::vector<size_t> ran;
  EXPECT_THROW(ForEachIndex(1, 10,
                            [&ran](size_t i) {
                              ran.push_back(i);
                              if (i == 3) throw std::runtime_error("index 3");
                            }),
               std::runtime_error);
  EXPECT_EQ(ran, (std::vector<size_t>{0, 1, 2, 3}));
}

// A throw stops the hand-out the way a failing Status does: every other
// index waits until the throw has happened, so once it has, the stop flag
// must keep the workers from draining the rest of the range.
class TryParallelForThrowTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TryParallelForThrowTest, OtherWorkersStopAndCallerSeesException) {
  const size_t n = 20'000;
  std::atomic<bool> thrown{false};
  std::atomic<size_t> calls{0};
  EXPECT_THROW(
      {
        Status status = TryParallelFor(
            GetParam(), n, RunContext(), [&](size_t i, size_t) {
              calls.fetch_add(1);
              if (i == 0) {
                thrown.store(true);
                throw std::runtime_error("index 0");
              }
              while (!thrown.load()) std::this_thread::yield();
              // Slow the survivors down so the few indices claimed while
              // the throw unwinds cannot add up to the whole range.
              std::this_thread::sleep_for(std::chrono::microseconds(20));
              return Status::OK();
            });
        ADD_FAILURE() << "returned " << status.ToString();
      },
      std::runtime_error);
  EXPECT_LT(calls.load(), n / 10) << "workers kept draining after the throw";
}

INSTANTIATE_TEST_SUITE_P(Workers, TryParallelForThrowTest,
                         ::testing::Values(2, 8));

// Worker-slot contract: every slot is below EffectiveThreads, and no slot
// is ever used by two calls at once, so slot-indexed scratch needs no lock.
class TryParallelForSlotTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TryParallelForSlotTest, SlotsAreInRangeAndNeverShared) {
  const size_t n = 2'000;
  const size_t workers = EffectiveThreads(GetParam(), n);
  std::vector<std::atomic<bool>> occupied(workers);
  std::atomic<size_t> out_of_range{0};
  std::atomic<size_t> overlaps{0};
  std::vector<int> hits(n, 0);
  Status status = TryParallelFor(
      GetParam(), n, RunContext(), [&](size_t i, size_t slot) {
        if (slot >= workers) {
          out_of_range.fetch_add(1);
          return Status::OK();
        }
        if (occupied[slot].exchange(true)) overlaps.fetch_add(1);
        ++hits[i];
        for (int spin = 0; spin < 50; ++spin) std::this_thread::yield();
        occupied[slot].store(false);
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out_of_range.load(), 0u);
  EXPECT_EQ(overlaps.load(), 0u);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(TryParallelForTest, OneWorkerRunsInlineOnSlotZeroInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  Status status =
      TryParallelFor(1, 20, RunContext(), [&](size_t i, size_t slot) {
        EXPECT_EQ(slot, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::vector<size_t> expected(20);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

INSTANTIATE_TEST_SUITE_P(Workers, TryParallelForSlotTest,
                         ::testing::Values(1, 2, 8));

class TryParallelForThreadSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(TryParallelForThreadSweep, OkRunsEveryIndexOnce) {
  const size_t n = 500;
  RunContext ctx;
  std::vector<int> hits(n, 0);
  Status status = TryParallelFor(GetParam(), n, ctx, [&hits](size_t i, size_t) {
    ++hits[i];
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST_P(TryParallelForThreadSweep, LoneFailureWinsAtAnyThreadCount) {
  RunContext ctx;
  Status status = TryParallelFor(GetParam(), 300, ctx, [](size_t i, size_t) {
    if (i == 123) return Status::InvalidArgument("shard 123 failed");
    return Status::OK();
  });
  ASSERT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.ToString().find("shard 123"), std::string::npos);
}

TEST_P(TryParallelForThreadSweep, LowestObservedIndexPreferred) {
  // Every index fails; the reported error must be the lowest-index failure
  // actually observed. At any thread count index 0 is observed (it is
  // scheduled first and workers record every failure they see), so the
  // result is deterministic.
  RunContext ctx;
  Status status = TryParallelFor(GetParam(), 64, ctx, [](size_t i, size_t) {
    return Status::Internal("index " + std::to_string(i));
  });
  ASSERT_TRUE(status.IsInternal()) << status.ToString();
  EXPECT_NE(status.ToString().find("index 0"), std::string::npos)
      << status.ToString();
}

INSTANTIATE_TEST_SUITE_P(Threads, TryParallelForThreadSweep,
                         ::testing::Values(1, 2, 4, 8));

TEST(TryParallelForTest, FailureStopsSchedulingRemainingIndices) {
  std::atomic<size_t> executed{0};
  RunContext ctx;
  Status status =
      TryParallelFor(4, 100'000, ctx, [&executed](size_t i, size_t) {
        executed.fetch_add(1);
        if (i == 0) return Status::Internal("early failure");
        return Status::OK();
      });
  ASSERT_TRUE(status.IsInternal()) << status.ToString();
  // The stop flag halts index hand-out: only indices already claimed when
  // the failure landed may still run, far fewer than the full range.
  EXPECT_LT(executed.load(), 100'000u);
}

TEST(TryParallelForTest, CancellationStopsSchedulingMidRun) {
  CancellationToken token;
  RunContext ctx;
  ctx.cancel = &token;
  std::atomic<size_t> executed{0};
  Status status = TryParallelFor(4, 100'000, ctx, [&](size_t i, size_t) {
    if (i == 10) token.Cancel();  // a worker observes an external cancel
    executed.fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(status.IsCancelled()) << status.ToString();
  EXPECT_LT(executed.load(), 100'000u);
}

TEST(TryParallelForTest, SerialPathStopsAtFirstFailureInOrder) {
  RunContext ctx;
  std::vector<size_t> ran;
  Status status = TryParallelFor(1, 10, ctx, [&ran](size_t i, size_t) {
    ran.push_back(i);
    if (i == 3) return Status::NotFound("index 3");
    return Status::OK();
  });
  ASSERT_TRUE(status.IsNotFound()) << status.ToString();
  EXPECT_EQ(ran, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(TryParallelForTest, DeadlineTripSurfacesAsDeadlineExceeded) {
  RunContext ctx;
  ctx.deadline = Deadline::AfterMillis(0);  // already expired
  std::atomic<size_t> executed{0};
  Status status = TryParallelFor(4, 1000, ctx, [&executed](size_t, size_t) {
    executed.fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_EQ(executed.load(), 0u) << "expired deadline must stop scheduling";
}

TEST(TryParallelForTest, EmptyRangeIsOkWithoutCallingFn) {
  RunContext ctx;
  bool called = false;
  Status status = TryParallelFor(8, 0, ctx, [&called](size_t, size_t) {
    called = true;
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace maras
