#include "util/thread_pool.hpp"

#include <algorithm>

namespace seneca::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads <= 1) return;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      LockGuard lock(mutex_);
      cv_.wait(lock, [this]() REQUIRES(mutex_) {
        return stopping_ || !tasks_.empty();
      });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (workers_.empty() || n == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::size_t num_chunks = std::min(n, workers_.size() * 3);
  const std::size_t chunk = (n + num_chunks - 1) / num_chunks;

  // The join state lives in this frame. Each chunk counts itself down and
  // notifies while holding done_mutex, so the wait below can see zero only
  // once the last chunk has released the mutex and touches nothing here.
  Mutex done_mutex;
  CondVar done_cv;
  std::size_t remaining = (n + chunk - 1) / chunk;
  {
    LockGuard lock(mutex_);
    for (std::size_t lo = begin; lo < end; lo += chunk) {
      const std::size_t hi = std::min(end, lo + chunk);
      tasks_.push([&, lo, hi] {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
        LockGuard done(done_mutex);
        if (--remaining == 0) done_cv.notify_one();
      });
    }
  }
  cv_.notify_all();
  LockGuard lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

}  // namespace seneca::util
