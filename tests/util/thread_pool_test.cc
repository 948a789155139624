#include "util/thread_pool.h"

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace hops {
namespace {

TEST(LatchTest, CountsDownToZero) {
  Latch latch(3);
  EXPECT_FALSE(latch.Ready());
  latch.CountDown();
  latch.CountDown();
  EXPECT_FALSE(latch.Ready());
  latch.CountDown();
  EXPECT_TRUE(latch.Ready());
  latch.Wait();  // must not block once ready
}

TEST(LatchTest, WaitBlocksUntilCountedDownFromAnotherThread) {
  Latch latch(1);
  std::thread t([&] { latch.CountDown(); });
  latch.Wait();
  EXPECT_TRUE(latch.Ready());
  t.join();
}

TEST(LatchTest, WaitForTimesOutWhenNotReady) {
  Latch latch(1);
  EXPECT_FALSE(latch.WaitFor(/*micros=*/1000));
  latch.CountDown();
  EXPECT_TRUE(latch.WaitFor(/*micros=*/1000));
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 100000;
  std::vector<int> hits(kN, 0);
  pool.ParallelFor(0, kN, 1024, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(kN));
  EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
  EXPECT_EQ(*std::max_element(hits.begin(), hits.end()), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingleChunkRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, 16, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(0, 10, 16, [&](size_t begin, size_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
  });
  EXPECT_EQ(calls, 1);  // fits one grain: runs inline exactly once
}

TEST(ThreadPoolTest, OneThreadDegenerateCaseRunsInline) {
  ThreadPool pool(1);
  constexpr size_t kN = 10000;
  std::atomic<size_t> sum{0};
  const auto caller = std::this_thread::get_id();
  std::set<std::thread::id> bodies;
  std::mutex mutex;
  pool.ParallelFor(0, kN, 64, [&](size_t begin, size_t end) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      bodies.insert(std::this_thread::get_id());
    }
    size_t local = 0;
    for (size_t i = begin; i < end; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
  // A 1-thread pool never forks: every chunk ran on the calling thread.
  ASSERT_EQ(bodies.size(), 1u);
  EXPECT_EQ(*bodies.begin(), caller);
}

TEST(ThreadPoolTest, ExceptionsPropagateFromParallelFor) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 1000, 10,
                       [&](size_t begin, size_t) {
                         if (begin == 500) {
                           throw std::runtime_error("boom");
                         }
                       }),
      std::runtime_error);
  // The pool survives an exception and stays usable.
  std::atomic<int> count{0};
  pool.ParallelFor(0, 100, 10, [&](size_t begin, size_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ExceptionsPropagateFromParallelInvoke) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelInvoke([] { throw std::runtime_error("left"); },
                                   [] {}),
               std::runtime_error);
  EXPECT_THROW(pool.ParallelInvoke([] {},
                                   [] { throw std::runtime_error("right"); }),
               std::runtime_error);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 4096;
  std::vector<size_t> sums(kOuter, 0);
  pool.ParallelFor(0, kOuter, 1, [&](size_t ob, size_t oe) {
    for (size_t o = ob; o < oe; ++o) {
      std::atomic<size_t> inner_sum{0};
      pool.ParallelFor(0, kInner, 64, [&](size_t begin, size_t end) {
        size_t local = 0;
        for (size_t i = begin; i < end; ++i) local += i;
        inner_sum.fetch_add(local);
      });
      sums[o] = inner_sum.load();
    }
  });
  for (size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(sums[o], kInner * (kInner - 1) / 2);
  }
}

TEST(ThreadPoolTest, SubmitWithLatchActsAsBatchBarrier) {
  ThreadPool pool(4);
  constexpr size_t kTasks = 64;
  Latch latch(kTasks);
  std::atomic<int> done{0};
  for (size_t i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      done.fetch_add(1);
      latch.CountDown();
    });
  }
  latch.Wait();
  EXPECT_EQ(done.load(), static_cast<int>(kTasks));
}

TEST(ThreadPoolTest, ScopedSerialForcesInlineExecution) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::set<std::thread::id> bodies;
  std::mutex mutex;
  {
    ScopedSerial serial;
    ASSERT_TRUE(ThreadPool::SerialRegionActive());
    pool.ParallelFor(0, 100000, 16, [&](size_t, size_t) {
      std::lock_guard<std::mutex> lock(mutex);
      bodies.insert(std::this_thread::get_id());
    });
  }
  EXPECT_FALSE(ThreadPool::SerialRegionActive());
  ASSERT_EQ(bodies.size(), 1u);
  EXPECT_EQ(*bodies.begin(), caller);
}

TEST(ThreadPoolTest, ParallelInvokeRunsBothBranches) {
  ThreadPool pool(2);
  std::atomic<int> left{0}, right{0};
  pool.ParallelInvoke([&] { left.store(1); }, [&] { right.store(1); });
  EXPECT_EQ(left.load(), 1);
  EXPECT_EQ(right.load(), 1);
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnvOverride) {
  // Note: cannot portably setenv after threads exist; only sanity-check the
  // default is positive and the global pool matches it on first use.
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
  EXPECT_GE(ThreadPool::Global().num_threads(), 1u);
}

TEST(ThreadPoolTest, ManyConcurrentSmallLoopsStressScheduler) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  pool.ParallelFor(0, 64, 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      std::atomic<size_t> local{0};
      pool.ParallelFor(0, 100, 7,
                       [&](size_t ib, size_t ie) { local.fetch_add(ie - ib); });
      total.fetch_add(local.load());
    }
  });
  EXPECT_EQ(total.load(), 64u * 100u);
}

}  // namespace
}  // namespace hops
