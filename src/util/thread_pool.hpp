// thread_pool.hpp — a fixed team of parked threads for fleet-scale
// co-simulation.
//
// The pool has one operation: run(body) calls body(w) once for every
// participant w in [0, thread_count()) and returns when all of them have
// finished. The calling thread is participant 0; the pool's own
// thread_count() − 1 threads are participants 1, 2, … . Between calls they
// park on an EpochBarrier, so one call costs two barrier crossings and
// nothing is queued or allocated — the fleet engine releases the team once
// per epoch (DESIGN.md §7).
//
//   util::ThreadPool pool{4};
//   for (int e = 0; e < epochs; ++e) {
//     prepare_epoch();                          // serial, threads parked
//     pool.run([&](std::size_t w) { process_shards_of(w); });
//   }
//
// What a participant does with its index is the caller's business (the fleet
// engine walks shards w, w+n, …; in commissioning every participant claims
// the next unclaimed sensor). Determinism is the caller's contract too:
// bodies write disjoint state and own their RNG streams (fleet::FleetEngine).
// The barrier's mutex publishes everything the caller wrote before run() to
// every participant, and everything the participants wrote back to the
// caller when run() returns.
//
// A body that throws does not desynchronise the team: the participant still
// reaches the end barrier, run() rethrows the exception of the lowest
// participant index once every participant has finished, and the pool stays
// usable. A mutex serialises concurrent callers, so each call has the whole
// team. A body must not call run() on its own pool — that call would wait on
// the mutex its caller holds.
//
// ThreadPool{1} spawns no thread: run(body) is body(0) on the caller, so the
// serial case is a team of one.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/barrier.hpp"

namespace aqua::util {

class ThreadPool {
 public:
  /// A team of `thread_count` participants (0 = hardware concurrency, at
  /// least 1): the caller of run() plus thread_count − 1 parked threads.
  explicit ThreadPool(unsigned thread_count = 0);

  /// Releases the parked threads and joins them.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Calls body(w) for every participant w in [0, thread_count()), w = 0 on
  /// the calling thread, and returns when all have finished. Rethrows the
  /// lowest-index participant's exception, if any; the pool stays usable.
  void run(const std::function<void(std::size_t)>& body);

  [[nodiscard]] std::size_t thread_count() const {
    return errors_.size();
  }

 private:
  void worker_loop(std::size_t w);
  void participate(std::size_t w);

  std::mutex run_mutex_;  // held for a whole run(): one call at a time
  EpochBarrier start_;    // caller + threads: the call's body is set
  EpochBarrier done_;     // caller + threads: every participant finished
  // Written by run() or the destructor before the start barrier, read by the
  // threads after it; the barrier's mutex publishes them.
  const std::function<void(std::size_t)>* body_ = nullptr;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;  // one slot per participant
  std::vector<std::thread> threads_;        // last: joined before the above go
};

}  // namespace aqua::util
