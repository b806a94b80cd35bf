#include "util/thread_pool.hpp"

#include <algorithm>
#include <string>

#include "obs/trace.hpp"

namespace aqua::util {

namespace {
std::size_t participants_for(unsigned thread_count) {
  return thread_count != 0 ? thread_count
                           : std::max(1u, std::thread::hardware_concurrency());
}
}  // namespace

ThreadPool::ThreadPool(unsigned thread_count)
    : start_(participants_for(thread_count)),
      done_(participants_for(thread_count)),
      errors_(participants_for(thread_count)) {
  threads_.reserve(errors_.size() - 1);
  for (std::size_t w = 1; w < errors_.size(); ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  stop_ = true;  // published to the parked threads by the barrier's mutex
  start_.arrive_and_wait();
  for (auto& t : threads_) t.join();
}

void ThreadPool::participate(std::size_t w) {
  try {
    (*body_)(w);
  } catch (...) {
    // Never skip the end barrier: a missing participant would hang the
    // team. run() rethrows once every participant has finished.
    errors_[w] = std::current_exception();
  }
}

void ThreadPool::worker_loop(std::size_t w) {
  obs::TraceRecorder::set_thread_name("pool-" + std::to_string(w));
  for (;;) {
    start_.arrive_and_wait();
    if (stop_) return;
    participate(w);
    done_.arrive_and_wait();
  }
}

void ThreadPool::run(const std::function<void(std::size_t)>& body) {
  const std::lock_guard lock{run_mutex_};
  body_ = &body;
  start_.arrive_and_wait();
  participate(0);
  done_.arrive_and_wait();
  body_ = nullptr;
  for (std::exception_ptr& slot : errors_) {
    if (slot) {
      const std::exception_ptr first = slot;
      for (std::exception_ptr& e : errors_) e = nullptr;
      std::rethrow_exception(first);
    }
  }
}

}  // namespace aqua::util
