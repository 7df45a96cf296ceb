// SENECA-Check primitives: annotated Mutex/LockGuard/CondVar semantics and
// log-sink capture.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "util/logging.hpp"
#include "util/mutex.hpp"

namespace seneca::util {
namespace {

// ------------------------------------------------------------ Mutex/CondVar

TEST(MutexCondVar, ProducerConsumerHandshake) {
  Mutex mu;
  CondVar cv;
  int value = 0;  // guarded by mu (annotation omitted: local to the test)
  bool ready = false;

  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    {
      LockGuard lock(mu);
      value = 42;
      ready = true;
    }
    cv.notify_one();
  });

  {
    LockGuard lock(mu);
    cv.wait(lock, [&] { return ready; });
    EXPECT_EQ(value, 42);
  }
  producer.join();
}

TEST(MutexCondVar, WaitUntilTimesOutWithPredicateFalse) {
  Mutex mu;
  CondVar cv;
  LockGuard lock(mu);
  const bool satisfied = cv.wait_until(
      lock, std::chrono::steady_clock::now() + std::chrono::milliseconds(5),
      [] { return false; });
  EXPECT_FALSE(satisfied);
}

// ---------------------------------------------------------------- LogSink

TEST(LogSink, CapturesAndRestores) {
  std::vector<std::string> captured;
  Mutex mu;
  set_log_sink([&](LogLevel, const std::string& msg) {
    LockGuard lock(mu);
    captured.push_back(msg);
  });
  log_info() << "sink test " << 7;
  set_log_sink(nullptr);
  log_debug() << "below threshold, dropped either way";

  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "sink test 7");
}

}  // namespace
}  // namespace seneca::util
