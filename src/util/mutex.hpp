#pragma once
// Annotated locking primitives (SENECA-Check).
//
//   Mutex     — std::mutex wrapper carrying clang thread-safety capability
//               attributes, so members can be GUARDED_BY it and
//               -Wthread-safety verifies every access path. Lock-order
//               inversions are TSan's job (CI runs it with
//               second_deadlock_stack=1).
//   LockGuard — scoped lock over a Mutex, visible to the analysis.
//   CondVar   — condition variable that waits through a LockGuard, so
//               waiting code keeps the annotated lock discipline.
//
// Predicates passed to CondVar run under the lock but are invoked from
// unannotated std:: internals; annotate the lambda itself:
//   cv_.wait(lock, [this]() REQUIRES(mutex_) { return ready_; });

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace seneca::util {

class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Underlying handle for CondVar; never lock it directly.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

class SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& m) ACQUIRE(m) : mu_(m) { mu_.lock(); }
  ~LockGuard() RELEASE() { mu_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

  Mutex& mutex() { return mu_; }

 private:
  Mutex& mu_;
};

class CondVar {
 public:
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  /// Predicate wait; `pred` runs with the guard's mutex held (annotate it
  /// REQUIRES(mutex)). Must not throw: the lock is temporarily adopted by
  /// a std::unique_lock, and an escaping exception would double-unlock.
  template <typename Pred>
  void wait(LockGuard& guard, Pred pred) {
    std::unique_lock<std::mutex> lk(guard.mutex().native(), std::adopt_lock);
    cv_.wait(lk, std::move(pred));
    lk.release();  // hand ownership back to the LockGuard
  }

  /// Returns pred() at wake-up (false == timed out with pred still false).
  template <typename Clock, typename Duration, typename Pred>
  bool wait_until(LockGuard& guard,
                  std::chrono::time_point<Clock, Duration> tp, Pred pred) {
    std::unique_lock<std::mutex> lk(guard.mutex().native(), std::adopt_lock);
    const bool satisfied = cv_.wait_until(lk, tp, std::move(pred));
    lk.release();
    return satisfied;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace seneca::util
