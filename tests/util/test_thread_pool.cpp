#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <vector>

namespace aqua::util {
namespace {

TEST(ThreadPool, RunsEachParticipantOncePerCall) {
  ThreadPool pool{4};
  ASSERT_EQ(pool.thread_count(), 4u);
  std::vector<std::atomic<int>> hits(pool.thread_count());
  for (int call = 1; call <= 3; ++call) {
    pool.run([&](std::size_t w) { hits[w].fetch_add(1); });
    for (std::size_t w = 0; w < hits.size(); ++w)
      EXPECT_EQ(hits[w].load(), call) << "participant " << w;
  }
}

TEST(ThreadPool, ParticipantZeroIsTheCallingThread) {
  ThreadPool pool{3};
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(pool.thread_count());
  pool.run([&](std::size_t w) { ids[w] = std::this_thread::get_id(); });
  EXPECT_EQ(ids[0], caller);
  EXPECT_NE(ids[1], caller);
  EXPECT_NE(ids[2], caller);
  EXPECT_NE(ids[1], ids[2]);
}

// Threads of this process, counted from /proc (Linux only).
std::ptrdiff_t process_thread_count() {
  const std::filesystem::path tasks{"/proc/self/task"};
  if (!std::filesystem::exists(tasks)) return -1;
  return std::distance(std::filesystem::directory_iterator{tasks},
                       std::filesystem::directory_iterator{});
}

TEST(ThreadPool, SingleThreadPoolStartsNoThread) {
  const std::ptrdiff_t before = process_thread_count();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task on this platform";
  {
    ThreadPool pool{1};
    EXPECT_EQ(process_thread_count(), before);
  }
  {
    ThreadPool pool{3};  // the caller plus two parked threads
    EXPECT_EQ(process_thread_count(), before + 2);
  }
  EXPECT_EQ(process_thread_count(), before);
}

TEST(ThreadPool, SingleThreadPoolStillDrainsManyTasks) {
  ThreadPool pool{1};
  const std::thread::id caller = std::this_thread::get_id();
  int count = 0;  // only the caller ever runs a body: no atomic needed
  for (int i = 0; i < 300; ++i)
    pool.run([&](std::size_t w) {
      EXPECT_EQ(w, 0u);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++count;
    });
  EXPECT_EQ(count, 300);
}

TEST(ThreadPool, CompletesAllTasksUnderContention) {
  // Many calls, every participant hammering one atomic: each participant
  // runs exactly once per call, whichever thread is slowest to wake.
  ThreadPool pool{4};
  std::atomic<int> count{0};
  for (int i = 0; i < 250; ++i)
    pool.run([&count](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, RethrowsTheLowestIndexExceptionAfterEveryParticipant) {
  ThreadPool pool{4};
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.run([&](std::size_t w) {
                 if (w == 3) {
                   // The slowest participant: run() must still wait for it.
                   std::this_thread::sleep_for(std::chrono::milliseconds(20));
                   finished.fetch_add(1);
                   throw std::logic_error("participant 3");
                 }
                 finished.fetch_add(1);
                 if (w == 1) throw std::invalid_argument("participant 1");
                 if (w == 2) throw std::runtime_error("participant 2");
               }),
               std::invalid_argument);
  EXPECT_EQ(finished.load(), 4);

  // The caller's own exception is participant 0's, the lowest of all.
  EXPECT_THROW(pool.run([](std::size_t w) {
                 if (w == 0) throw std::out_of_range("participant 0");
                 throw std::runtime_error("another participant");
               }),
               std::out_of_range);

  // Captured errors were cleared: the pool is not poisoned.
  std::atomic<int> count{0};
  pool.run([&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, ConcurrentCallersBothComplete) {
  // Two threads share one pool; the mutex hands each call the whole team,
  // so no two calls' bodies ever overlap.
  ThreadPool pool{3};
  constexpr int kCalls = 50;
  std::atomic<int> active{0};
  std::atomic<int> max_active{0};
  std::atomic<int> bodies{0};
  const auto caller = [&] {
    for (int i = 0; i < kCalls; ++i)
      pool.run([&](std::size_t) {
        const int now = active.fetch_add(1) + 1;
        int seen = max_active.load();
        while (now > seen && !max_active.compare_exchange_weak(seen, now)) {
        }
        bodies.fetch_add(1);
        active.fetch_sub(1);
      });
  };
  std::thread a{caller};
  std::thread b{caller};
  a.join();
  b.join();
  EXPECT_EQ(bodies.load(), 2 * kCalls * 3);
  EXPECT_LE(max_active.load(), 3);
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool;  // hardware concurrency, whatever the machine offers
  EXPECT_GE(pool.thread_count(), 1u);
  std::atomic<std::size_t> count{0};
  pool.run([&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), pool.thread_count());
}

}  // namespace
}  // namespace aqua::util
