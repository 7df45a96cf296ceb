#pragma once
// Fixed-size worker pool with one blocking call, parallel_for.
//
// runtime::VartRunner owns one per ladder rung. parallel_for splits an
// index range into ~3 chunks per worker and blocks until every chunk is
// done; concurrent callers share the workers. A pool asked for one thread
// keeps zero workers and runs everything inline on the caller, with no
// thread churn.
//
// fn must not call parallel_for on the same pool: a worker blocked on
// chunks that only the other workers can run may wait forever.

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace seneca::util {

class ThreadPool {
 public:
  /// Starts `num_threads` workers; 0 or 1 starts none.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for i in [begin, end) and blocks until all iterations are
  /// done. fn must not throw: an exception escaping a worker calls
  /// std::terminate.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  std::queue<std::function<void()>> tasks_ GUARDED_BY(mutex_);
  bool stopping_ GUARDED_BY(mutex_) = false;
};

}  // namespace seneca::util
