// Concurrency battery for the parked-team primitives under the fleet epoch
// loop: EpochBarrier generation semantics, ThreadPool::run lifecycle
// (per-call release, exception capture, shutdown without a call) and a
// sustained stress loop. These tests run under the TSan CI job — the
// serial-phase publication tests in particular exist to let the race detector
// prove the barrier's happens-before edge, not just that the values come out
// right.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/barrier.hpp"
#include "util/thread_pool.hpp"

namespace aqua::util {
namespace {

TEST(EpochBarrier, RejectsZeroParticipants) {
  EXPECT_THROW(EpochBarrier{0}, std::invalid_argument);
}

TEST(EpochBarrier, SingleParticipantAdvancesGenerations) {
  EpochBarrier barrier{1};
  EXPECT_EQ(barrier.participants(), 1u);
  EXPECT_EQ(barrier.generation(), 0u);
  for (std::uint64_t g = 0; g < 5; ++g)
    EXPECT_EQ(barrier.arrive_and_wait(), g);
  EXPECT_EQ(barrier.generation(), 5u);
}

TEST(EpochBarrier, ManyThreadsAgreeOnEveryGeneration) {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kGenerations = 200;
  EpochBarrier barrier{kThreads};
  std::vector<std::vector<std::uint64_t>> seen(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t g = 0; g < kGenerations; ++g)
        seen[t].push_back(barrier.arrive_and_wait());
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(seen[t].size(), kGenerations);
    for (std::uint64_t g = 0; g < kGenerations; ++g)
      EXPECT_EQ(seen[t][g], g) << "thread " << t;
  }
  EXPECT_EQ(barrier.generation(), kGenerations);
}

// The barrier's mutex must publish plain (non-atomic) writes made before one
// generation to every waiter of that generation — the exact pattern the pool
// uses to hand the fleet engine's frozen epoch snapshots to its threads. TSan
// verifies the happens-before edge; the assertions verify the values.
TEST(EpochBarrier, PublishesPlainWritesAcrossGenerations) {
  constexpr std::uint64_t kGenerations = 100;
  EpochBarrier barrier{2};
  std::uint64_t shared = 0;  // written by the producer, read by the consumer
  std::uint64_t consumed = 0;
  std::thread consumer([&] {
    for (std::uint64_t g = 0; g < kGenerations; ++g) {
      barrier.arrive_and_wait();  // producer wrote `shared` before arriving
      consumed += shared;
      barrier.arrive_and_wait();  // hand the slot back to the producer
    }
  });
  std::uint64_t expected = 0;
  for (std::uint64_t g = 0; g < kGenerations; ++g) {
    shared = g + 1;
    expected += g + 1;
    barrier.arrive_and_wait();
    barrier.arrive_and_wait();  // consumer finished reading `shared`
  }
  consumer.join();
  EXPECT_EQ(consumed, expected);
}

TEST(ThreadPool, RunsBodyOncePerParticipantPerCall) {
  constexpr std::size_t kParticipants = 4;
  constexpr int kCalls = 25;
  ThreadPool pool{kParticipants};
  std::vector<int> runs(kParticipants, 0);  // disjoint slots, no atomics needed
  for (int c = 0; c < kCalls; ++c) pool.run([&](std::size_t w) { ++runs[w]; });
  for (std::size_t w = 0; w < kParticipants; ++w) EXPECT_EQ(runs[w], kCalls);
}

TEST(ThreadPool, DestructionWithoutRunJoinsCleanly) {
  for (unsigned n : {1u, 2u, 8u}) {
    ThreadPool pool{n};
    EXPECT_EQ(pool.thread_count(), n);
  }  // ~ThreadPool releases threads that never left their first barrier
}

TEST(ThreadPool, BodyExceptionRethrownAndPoolStaysUsable) {
  constexpr std::size_t kParticipants = 3;
  ThreadPool pool{kParticipants};
  int call = 0;  // written by the caller between run() calls only
  std::vector<int> runs(kParticipants, 0);
  const auto body = [&](std::size_t w) {
    ++runs[w];
    if (call == 1 && w == 1) throw std::runtime_error("participant 1 bad call");
  };
  pool.run(body);
  call = 1;
  // The throwing participant still reaches the end barrier: the call
  // completes on every participant, THEN the caller sees the exception.
  EXPECT_THROW(pool.run(body), std::runtime_error);
  call = 2;
  pool.run(body);  // captured error was cleared; the pool is not poisoned
  for (std::size_t w = 0; w < kParticipants; ++w) EXPECT_EQ(runs[w], 3);
}

// Sustained epoch loop mimicking the fleet engine's steady state: the caller
// mutates shared (plain, non-atomic) per-epoch inputs while the threads are
// parked, participants fold them into disjoint accumulators. Run under TSan
// this is the determinism-critical handshake; 500 epochs gives the scheduler
// room to interleave wake-ups badly.
TEST(ThreadPool, StressEpochLoopWithSerialPhases) {
  constexpr std::size_t kParticipants = 4;
  constexpr std::uint64_t kEpochs = 500;
  ThreadPool pool{kParticipants};
  std::vector<std::uint64_t> input(kParticipants, 0);  // written between epochs
  std::vector<std::uint64_t> acc(kParticipants, 0);    // participant-owned
  for (std::uint64_t e = 1; e <= kEpochs; ++e) {
    for (std::size_t w = 0; w < kParticipants; ++w) input[w] = e * (w + 1);
    pool.run([&](std::size_t w) { acc[w] += input[w]; });
  }
  const std::uint64_t sum = kEpochs * (kEpochs + 1) / 2;
  for (std::size_t w = 0; w < kParticipants; ++w)
    EXPECT_EQ(acc[w], sum * (w + 1)) << "participant " << w;
}

}  // namespace
}  // namespace aqua::util
