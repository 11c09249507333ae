#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace qkbfly {
namespace {

TEST(ThreadPoolTest, ZeroTaskShutdown) {
  // Construct and destroy without submitting anything: must not hang.
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, FuturesPreserveSubmissionOrder) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  // Whatever order the workers ran them in, future i holds task i's result.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto ok = pool.Submit([] { return 1; });
  auto bad = pool.Submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(ok.get(), 1);
  EXPECT_THROW(
      {
        try {
          bad.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "task failed");
          throw;
        }
      },
      std::runtime_error);
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  // Four tasks block until all four have started; only possible if the pool
  // really runs them on four distinct threads.
  ThreadPool pool(4);
  std::mutex mutex;
  std::condition_variable cv;
  int started = 0;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      ++started;
      cv.notify_all();
      cv.wait(lock, [&] { return started == 4; });
    }));
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
    f.get();
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      futures.push_back(pool.Submit([&ran] { ++ran; }));
    }
    // Pool destroyed here; all 64 tasks must still complete.
  }
  EXPECT_EQ(ran.load(), 64);
  for (auto& f : futures) f.get();  // all futures fulfilled, none broken
}

TEST(ForEachOrderedTest, ConsumesInIndexOrderWithAndWithoutAPool) {
  ThreadPool pool(4);
  for (ThreadPool* p : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    std::vector<size_t> order;
    ForEachOrdered(
        p, 50, [](size_t i) { return i * i; },
        [&](size_t i, size_t square) {
          EXPECT_EQ(square, i * i);
          order.push_back(i);
        });
    ASSERT_EQ(order.size(), 50u);
    for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(ForEachOrderedTest, TaskExceptionRethrowsAfterEveryTaskFinished) {
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  size_t consumed = 0;
  EXPECT_THROW(ForEachOrdered(
                   &pool, 32,
                   [&](size_t i) {
                     ++finished;
                     if (i == 3) throw std::runtime_error("task failed");
                     return i;
                   },
                   [&](size_t, size_t) { ++consumed; }),
               std::runtime_error);
  // Results before the failing index were consumed; every task ran to the
  // end before the call returned, so none outlives `finished`.
  EXPECT_EQ(consumed, 3u);
  EXPECT_EQ(finished.load(), 32);
}

}  // namespace
}  // namespace qkbfly
