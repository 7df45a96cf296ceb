// InferenceServer tests: end-to-end bit-exactness against the reference
// core simulator, interactive-before-batch scheduling under contention,
// graceful degradation to a smaller ladder model under synthetic overload,
// overload rejection, wrong-shaped frame rejection, deadline expiry, and
// shutdown semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <vector>

#include "dpu/compiler.hpp"
#include "nn/unet.hpp"
#include "quant/quantizer.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace seneca::serve {

/// White-box access to LatencyHistogram internals: the max_ms-below-bucket
/// clamp branch in snapshot() cannot be reached through record() (the max
/// is by construction at least any sample's bucket lower bound), so the
/// test forges the state directly.
class LatencyHistogramTestPeer {
 public:
  static void set_state(LatencyHistogram& h, int bucket, std::uint64_t count,
                        double max_ms) {
    h.buckets_[static_cast<std::size_t>(bucket)].store(count);
    h.count_.store(count);
    h.max_ms_.store(max_ms);
  }
  static double bucket_lower_ms(int bucket) {
    return bucket == 0 ? 0.0 : LatencyHistogram::bucket_upper_ms(bucket - 1);
  }
};

namespace {

using tensor::Shape;
using tensor::TensorF;
using tensor::TensorI8;

dpu::XModel build_model(std::int64_t input_size, int depth,
                        std::int64_t base_filters, std::uint64_t seed) {
  nn::UNet2DConfig cfg;
  cfg.input_size = input_size;
  cfg.depth = depth;
  cfg.base_filters = base_filters;
  cfg.seed = seed;
  auto graph = nn::build_unet2d(cfg);
  util::Rng rng(seed + 1);
  TensorF x(Shape{input_size, input_size, 1});
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  graph->forward(x, true);
  quant::FGraph fg = quant::fold(*graph);
  std::vector<TensorF> calib{x};
  return dpu::compile(quant::quantize(fg, calib));
}

TensorI8 random_input(std::int64_t input_size, std::uint64_t seed) {
  util::Rng rng(seed);
  TensorI8 x(Shape{input_size, input_size, 1});
  for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return x;
}

ServerConfig fast_config() {
  ServerConfig cfg;
  cfg.queue.capacity = 64;
  cfg.batcher.max_batch_size = 4;
  cfg.batcher.max_wait_ms = 0.0;  // no batching delay in unit tests
  cfg.degrade.queue_depth_high = 1000;  // degradation off unless enabled
  return cfg;
}

/// Parks the scheduler inside its first dispatch on `runner` (through the
/// runner's run hook) until release() or destruction. Requests submitted
/// meanwhile queue up behind a dispatch that is provably in progress, so a
/// flood test does not depend on one inference outlasting the submissions:
/// on a loaded host the scheduler could finish it and pick from a half-built
/// queue.
class FirstDispatchGate {
 public:
  explicit FirstDispatchGate(runtime::VartRunner& runner)
      : state_(std::make_shared<State>()),
        entered_(state_->entered.get_future()) {
    runner.set_run_fault_hook([s = state_](std::size_t) {
      if (!s->armed.exchange(false)) return;
      s->entered.set_value();
      s->opened.wait();
    });
  }
  ~FirstDispatchGate() { release(); }

  /// True once the scheduler is parked in the gated dispatch.
  bool wait_entered() {
    return entered_.wait_for(std::chrono::seconds(30)) ==
           std::future_status::ready;
  }
  void release() {
    if (!released_) state_->open.set_value();
    released_ = true;
  }

 private:
  struct State {
    std::atomic<bool> armed{true};
    std::promise<void> entered;
    std::promise<void> open;
    std::shared_future<void> opened = open.get_future().share();
  };
  std::shared_ptr<State> state_;  // shared with the hook, which may outlive us
  std::future<void> entered_;
  bool released_ = false;
};

TEST(ServeMetrics, HistogramPercentilesTrackRecordedDistribution) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));  // 1..100 ms
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.mean_ms, 50.5, 1e-9);
  EXPECT_DOUBLE_EQ(s.max_ms, 100.0);
  // Geometric buckets are ~20 % wide; allow that resolution.
  EXPECT_NEAR(s.p50_ms, 50.0, 12.0);
  EXPECT_NEAR(s.p99_ms, 99.0, 22.0);
  EXPECT_LE(s.p50_ms, s.p95_ms);
  EXPECT_LE(s.p95_ms, s.p99_ms);
  EXPECT_LE(s.p99_ms, s.max_ms + 1e-9);
  // Snapshot reuses eval/stats: stddev of 1..100 is ~29.0.
  EXPECT_EQ(s.stats.n, 100u);
  EXPECT_NEAR(s.stats.stddev, 29.0115, 0.01);
}

TEST(ServeMetrics, EmptyHistogramSnapshotsToZeros) {
  LatencyHistogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p50_ms, 0.0);
  EXPECT_DOUBLE_EQ(s.p95_ms, 0.0);
  EXPECT_DOUBLE_EQ(s.p99_ms, 0.0);
  EXPECT_DOUBLE_EQ(s.mean_ms, 0.0);
  EXPECT_DOUBLE_EQ(s.max_ms, 0.0);
  EXPECT_EQ(s.stats.n, 0u);
}

TEST(ServeMetrics, SingleSampleQuantilesAllEqualTheSample) {
  LatencyHistogram h;
  h.record(5.0);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  // One sample: every quantile interpolates to min(bucket upper, max) = 5.
  EXPECT_DOUBLE_EQ(s.p50_ms, 5.0);
  EXPECT_DOUBLE_EQ(s.p95_ms, 5.0);
  EXPECT_DOUBLE_EQ(s.p99_ms, 5.0);
  EXPECT_DOUBLE_EQ(s.max_ms, 5.0);
  EXPECT_DOUBLE_EQ(s.mean_ms, 5.0);
  EXPECT_DOUBLE_EQ(s.stats.stddev, 0.0);
}

TEST(ServeMetrics, AllSamplesInBucketZeroStayWithinItsRange) {
  LatencyHistogram h;
  for (int i = 0; i < 5; ++i) h.record(1e-4);  // below kLoMs: bucket 0
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 5u);
  // Bucket 0 spans [0, min(kLoMs, max)]; all quantiles interpolate inside.
  EXPECT_GE(s.p50_ms, 0.0);
  EXPECT_LE(s.p50_ms, 1e-4 + 1e-12);
  EXPECT_LE(s.p50_ms, s.p95_ms);
  EXPECT_LE(s.p95_ms, s.p99_ms);
  EXPECT_LE(s.p99_ms, s.max_ms + 1e-12);
  EXPECT_DOUBLE_EQ(s.max_ms, 1e-4);
}

TEST(ServeMetrics, MaxBelowWinningBucketLowerBoundClampsToLowerBound) {
  // Forged state: all mass in bucket 50 but max_ms far below that bucket's
  // lower bound. Without the std::max(hi, lo) clamp the interpolation span
  // (hi - lo) would be negative and the quantile would undershoot lo.
  LatencyHistogram h;
  const double lo = LatencyHistogramTestPeer::bucket_lower_ms(50);
  LatencyHistogramTestPeer::set_state(h, 50, 4, /*max_ms=*/lo * 0.01);
  const auto s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.p50_ms, lo);
  EXPECT_DOUBLE_EQ(s.p99_ms, lo);
  EXPECT_GE(s.p50_ms, 0.0);
}

TEST(ServeMetrics, NearestRankQuantileSmallWindowRegression) {
  // The old trigger indexed sorted[size_t(0.99 * (n - 1))], truncating
  // toward zero: for n = 2 that is index 0 — the *minimum* — so a window
  // of {2 ms, 100 ms} reported a "p99" of 2 ms and a 50 ms threshold never
  // fired. Nearest rank (ceil) reports the tail.
  const std::vector<double> two{2.0, 100.0};
  const auto old_index =
      static_cast<std::size_t>(0.99 * static_cast<double>(two.size() - 1));
  ASSERT_EQ(old_index, 0u);  // the bug: picks the minimum
  EXPECT_DOUBLE_EQ(nearest_rank_quantile(two, 0.99), 100.0);

  // n = 1: the single sample is every quantile.
  EXPECT_DOUBLE_EQ(nearest_rank_quantile({7.5}, 0.99), 7.5);

  // n = 10: old index floor(0.99 * 9) = 8 reported the 9th-smallest value;
  // nearest rank ceil(9.9) = 10 reports the maximum.
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(static_cast<double>(i));
  ASSERT_EQ(static_cast<std::size_t>(0.99 * 9.0), 8u);
  EXPECT_DOUBLE_EQ(nearest_rank_quantile(ten, 0.99), 10.0);

  EXPECT_DOUBLE_EQ(nearest_rank_quantile(ten, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(nearest_rank_quantile(std::vector<double>{}, 0.99), 0.0);
}

TEST(InferenceServer, ServesBitExactAgainstReferenceSim) {
  const dpu::XModel model = build_model(16, 2, 4, 3);
  dpu::DpuCoreSim reference(&model);
  std::vector<ModelSpec> ladder;
  ladder.push_back({"1M", model, 2});
  InferenceServer server(std::move(ladder), fast_config());

  std::vector<TensorI8> inputs;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) {
    inputs.push_back(random_input(16, 100 + static_cast<std::uint64_t>(i)));
    const Priority p = i % 2 == 0 ? Priority::kInteractive : Priority::kBatch;
    futures.push_back(server.submit(p, inputs.back()));
  }
  for (int i = 0; i < 6; ++i) {
    Response r = futures[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.status, Status::kOk) << "request " << i;
    EXPECT_EQ(r.model_used, "1M");
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(tensor::max_abs_diff(
                  r.output,
                  reference.run(inputs[static_cast<std::size_t>(i)]).output),
              0.0)
        << "request " << i;
  }
  const auto m = server.metrics();
  EXPECT_EQ(m.served, 6u);
  EXPECT_EQ(m.dropped(), 0u);
  EXPECT_EQ(m.degraded, 0u);
  EXPECT_GT(m.interactive.count, 0u);
  EXPECT_GT(m.batch.count, 0u);
  EXPECT_GE(m.interactive.p99_ms, m.interactive.p50_ms);
}

TEST(InferenceServer, InteractiveServedBeforeBatchUnderContention) {
  // The plug request holds the scheduler in its dispatch while the later
  // submissions land in the queue, batch lane first.
  const dpu::XModel model = build_model(32, 2, 4, 5);
  std::vector<ModelSpec> ladder;
  ladder.push_back({"1M", model, 1});
  InferenceServer server(std::move(ladder), fast_config());
  FirstDispatchGate gate(server.runner(0));

  auto plug = server.submit(Priority::kInteractive, random_input(32, 1));
  ASSERT_TRUE(gate.wait_entered());
  std::vector<std::future<Response>> batch_futures;
  std::vector<std::future<Response>> interactive_futures;
  for (int i = 0; i < 4; ++i) {
    batch_futures.push_back(
        server.submit(Priority::kBatch, random_input(32, 10 + static_cast<std::uint64_t>(i))));
  }
  for (int i = 0; i < 4; ++i) {
    interactive_futures.push_back(server.submit(
        Priority::kInteractive, random_input(32, 20 + static_cast<std::uint64_t>(i))));
  }
  gate.release();
  ASSERT_EQ(plug.get().status, Status::kOk);
  std::uint64_t max_interactive_seq = 0;
  for (auto& f : interactive_futures) {
    Response r = f.get();
    ASSERT_EQ(r.status, Status::kOk);
    max_interactive_seq = std::max(max_interactive_seq, r.served_seq);
  }
  std::uint64_t min_batch_seq = UINT64_MAX;
  for (auto& f : batch_futures) {
    Response r = f.get();
    ASSERT_EQ(r.status, Status::kOk);
    min_batch_seq = std::min(min_batch_seq, r.served_seq);
  }
  EXPECT_LT(max_interactive_seq, min_batch_seq)
      << "batch-lane work was dispatched before the interactive lane drained";
}

TEST(InferenceServer, DegradesToSmallerModelUnderOverloadBitExactly) {
  const dpu::XModel big = build_model(16, 2, 4, 3);
  const dpu::XModel small = build_model(16, 1, 2, 7);
  dpu::DpuCoreSim big_ref(&big);
  dpu::DpuCoreSim small_ref(&small);

  ServerConfig cfg = fast_config();
  cfg.batcher.max_batch_size = 2;   // several dispatches -> level updates
  cfg.degrade.queue_depth_high = 4; // trips early under the flood
  cfg.degrade.queue_depth_low = 0;
  cfg.degrade.min_dwell_ms = 0.0;
  std::vector<ModelSpec> ladder;
  ladder.push_back({"4M", big, 1});
  ladder.push_back({"1M", small, 1});
  InferenceServer server(std::move(ladder), cfg);
  // The flood lands while the first request is in dispatch, so the next
  // dispatch sees all of it queued.
  FirstDispatchGate gate(server.runner(0));

  constexpr int kRequests = 16;
  std::vector<TensorI8> inputs;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(random_input(16, 300 + static_cast<std::uint64_t>(i)));
    futures.push_back(server.submit(Priority::kInteractive, inputs.back()));
    if (i == 0) {
      ASSERT_TRUE(gate.wait_entered());
    }
  }
  gate.release();

  int degraded_count = 0;
  for (int i = 0; i < kRequests; ++i) {
    Response r = futures[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.status, Status::kOk) << "request " << i;
    // Response id equals submission order (single submitting thread).
    const auto& input = inputs[static_cast<std::size_t>(r.id)];
    if (r.degraded) {
      ++degraded_count;
      EXPECT_EQ(r.model_used, "1M");
      EXPECT_EQ(tensor::max_abs_diff(r.output, small_ref.run(input).output),
                0.0)
          << "degraded response not bit-exact with the small model";
    } else {
      EXPECT_EQ(r.model_used, "4M");
      EXPECT_EQ(tensor::max_abs_diff(r.output, big_ref.run(input).output), 0.0);
    }
  }
  EXPECT_GT(degraded_count, 0)
      << "synthetic overload never tripped the degradation ladder";
  const auto m = server.metrics();
  EXPECT_EQ(m.served, static_cast<std::uint64_t>(kRequests));
  EXPECT_GT(m.degraded, 0u);
  EXPECT_EQ(m.degraded, static_cast<std::uint64_t>(degraded_count));
}

TEST(InferenceServer, RejectsBeyondQueueCapacity) {
  const dpu::XModel model = build_model(16, 2, 4, 3);
  ServerConfig cfg = fast_config();
  cfg.queue.capacity = 2;
  std::vector<ModelSpec> ladder;
  ladder.push_back({"1M", model, 1});
  InferenceServer server(std::move(ladder), cfg);
  // The submissions land while the first request is in dispatch, so the
  // queue cannot drain between them.
  FirstDispatchGate gate(server.runner(0));

  constexpr int kRequests = 50;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(server.submit(Priority::kBatch,
                                    random_input(16, static_cast<std::uint64_t>(i))));
    if (i == 0) {
      ASSERT_TRUE(gate.wait_entered());
    }
  }
  gate.release();
  int ok = 0;
  int rejected = 0;
  for (auto& f : futures) {
    const Response r = f.get();
    r.status == Status::kOk ? ++ok : ++rejected;
  }
  EXPECT_EQ(ok + rejected, kRequests);
  EXPECT_GT(rejected, 0) << "a 2-deep queue absorbed 50 instant submissions";
  const auto m = server.metrics();
  EXPECT_EQ(m.served, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(m.dropped(), static_cast<std::uint64_t>(rejected));
  EXPECT_LE(server.queue_stats().high_water, 2u);
}

TEST(InferenceServer, ExpiredRequestDroppedAtDispatch) {
  const dpu::XModel model = build_model(16, 2, 4, 3);
  std::vector<ModelSpec> ladder;
  ladder.push_back({"1M", model, 1});
  InferenceServer server(std::move(ladder), fast_config());

  auto doomed = server.submit(Priority::kInteractive, random_input(16, 1),
                              /*deadline_ms=*/1e-4);
  auto healthy = server.submit(Priority::kInteractive, random_input(16, 2));
  EXPECT_EQ(doomed.get().status, Status::kExpired);
  EXPECT_EQ(healthy.get().status, Status::kOk);
  EXPECT_GE(server.metrics().expired, 1u);
}

TEST(InferenceServer, LatencyP99TriggerFiresAtConfiguredThreshold) {
  // Latency-only degradation with a tiny window: every served interactive
  // frame takes far longer than the 0.01 ms threshold, so the very next
  // dispatch after the first completion must step down the ladder. (The old
  // floor-based index read the window *minimum* at n = 2; see
  // NearestRankQuantileSmallWindowRegression for the index-level proof.)
  const dpu::XModel big = build_model(16, 2, 4, 3);
  const dpu::XModel small = build_model(16, 1, 2, 7);
  ServerConfig cfg = fast_config();
  cfg.degrade.queue_depth_high = 1000000;  // isolate the latency trigger
  cfg.degrade.queue_depth_low = 0;
  cfg.degrade.p99_high_ms = 0.01;
  cfg.degrade.p99_window = 2;
  cfg.degrade.min_dwell_ms = 0.0;
  std::vector<ModelSpec> ladder;
  ladder.push_back({"4M", big, 1});
  ladder.push_back({"1M", small, 1});
  InferenceServer server(std::move(ladder), cfg);

  const Response first =
      server.submit(Priority::kInteractive, random_input(16, 1)).get();
  ASSERT_EQ(first.status, Status::kOk);
  EXPECT_FALSE(first.degraded) << "window was empty at the first dispatch";

  const Response second =
      server.submit(Priority::kInteractive, random_input(16, 2)).get();
  ASSERT_EQ(second.status, Status::kOk);
  EXPECT_TRUE(second.degraded)
      << "one over-threshold sample in the window must trip the trigger";
  EXPECT_EQ(second.model_used, "1M");
  EXPECT_EQ(server.degrade_level(), 1);
}

TEST(InferenceServer, DispatchFaultFailsOnlyItsBatchAndServerKeepsServing) {
  const dpu::XModel model = build_model(16, 2, 4, 3);
  std::vector<ModelSpec> ladder;
  ladder.push_back({"1M", model, 1});
  InferenceServer server(std::move(ladder), fast_config());

  auto armed = std::make_shared<std::atomic<bool>>(true);
  server.runner(0).set_run_fault_hook([armed](std::size_t) {
    if (armed->exchange(false)) {
      throw std::runtime_error("injected DPU fault");
    }
  });

  auto doomed = server.submit(Priority::kInteractive, random_input(16, 1));
  const Response failed = doomed.get();
  EXPECT_EQ(failed.status, Status::kError);

  // The scheduler survived: later requests are served normally.
  for (int i = 0; i < 3; ++i) {
    const Response r =
        server.submit(Priority::kInteractive, random_input(16, 10 + static_cast<std::uint64_t>(i)))
            .get();
    ASSERT_EQ(r.status, Status::kOk) << "request " << i;
  }
  const auto m = server.metrics();
  EXPECT_EQ(m.errors, 1u);
  EXPECT_EQ(m.served, 3u);
  EXPECT_EQ(m.completed(), 4u);
}

TEST(InferenceServer, WrongShapedFrameIsRejectedAndServingContinues) {
  // A wrong-shaped frame is turned away at submit, before it is queued: in
  // a batch it would reach the core's shape check and fail its neighbours.
  const dpu::XModel model = build_model(16, 2, 4, 3);
  std::vector<ModelSpec> ladder;
  ladder.push_back({"1M", model, 2});
  InferenceServer server(std::move(ladder), fast_config());

  const Response bad =
      server.submit(Priority::kInteractive, random_input(15, 1)).get();
  EXPECT_EQ(bad.status, Status::kRejected);
  const Response good =
      server.submit(Priority::kInteractive, random_input(16, 2)).get();
  EXPECT_EQ(good.status, Status::kOk);

  const auto m = server.metrics();
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.admitted, 1u) << "the bad frame must never reach the queue";
  EXPECT_EQ(m.served, 1u);
}

TEST(InferenceServer, ShutdownDrainsThenRejectsNewWork) {
  const dpu::XModel model = build_model(16, 2, 4, 3);
  std::vector<ModelSpec> ladder;
  ladder.push_back({"1M", model, 2});
  InferenceServer server(std::move(ladder), fast_config());

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.submit(Priority::kBatch,
                                    random_input(16, static_cast<std::uint64_t>(i))));
  }
  server.shutdown();
  for (auto& f : futures) {
    const Response r = f.get();
    // Every future resolves: either served before close or rejected by it.
    EXPECT_TRUE(r.status == Status::kOk || r.status == Status::kRejected);
  }
  auto late = server.submit(Priority::kInteractive, random_input(16, 99));
  EXPECT_EQ(late.get().status, Status::kRejected);
}

}  // namespace
}  // namespace seneca::serve
