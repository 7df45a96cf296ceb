// SENECA-Check stress suite (ctest label: stress). Deliberately racy
// multi-threaded hammering of the serving stack so the sanitizers (TSan in
// CI) see real interleavings: concurrent VartRunner run_batch, ClusterRouter
// routing while health-driven drain flips boards sick/healthy, micro-batcher
// preemption under mixed-lane contention, admission-queue push/pop/requeue
// storms, thread-pool parallel_for from many threads, and log-sink swaps
// mid-traffic.
//
// Assertions are liveness and conservation properties (every future
// resolves, no request is lost or double-counted, outputs stay bit-exact);
// the sanitizers own the memory/race assertions.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "dpu/compiler.hpp"
#include "nn/unet.hpp"
#include "quant/quantizer.hpp"
#include "serve/cluster/router.hpp"
#include "serve/server.hpp"
#include "util/logging.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace seneca {
namespace {

using serve::Priority;
using serve::Response;
using serve::Status;
using tensor::Shape;
using tensor::TensorF;
using tensor::TensorI8;

dpu::XModel build_model(int depth, std::int64_t base_filters,
                        std::uint64_t seed) {
  nn::UNet2DConfig cfg;
  cfg.input_size = 16;
  cfg.depth = depth;
  cfg.base_filters = base_filters;
  cfg.seed = seed;
  auto graph = nn::build_unet2d(cfg);
  util::Rng rng(seed + 1);
  TensorF x(Shape{16, 16, 1});
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  graph->forward(x, true);
  quant::FGraph fg = quant::fold(*graph);
  std::vector<TensorF> calib{x};
  return dpu::compile(quant::quantize(fg, calib));
}

TensorI8 random_input(std::uint64_t seed) {
  util::Rng rng(seed);
  TensorI8 x(Shape{16, 16, 1});
  for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return x;
}

const dpu::XModel& shared_model() {
  static const dpu::XModel model = build_model(2, 4, 3);
  return model;
}

const dpu::XModel& shared_small_model() {
  static const dpu::XModel model = build_model(1, 2, 7);
  return model;
}

// ----------------------------------------------------------- VartRunner

TEST(StressVartRunner, ConcurrentRunBatchStaysBitExact) {
  const dpu::XModel& xm = shared_model();
  dpu::DpuCoreSim direct(&xm);
  runtime::VartRunner runner(xm, 4);

  constexpr int kThreads = 4;
  constexpr int kBatches = 6;
  constexpr int kBatchSize = 3;

  // Reference outputs computed single-threaded up front.
  std::vector<std::vector<TensorI8>> inputs(kThreads);
  std::vector<std::vector<TensorI8>> expected(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kBatches * kBatchSize; ++i) {
      inputs[static_cast<std::size_t>(t)].push_back(
          random_input(static_cast<std::uint64_t>(t * 1000 + i)));
      expected[static_cast<std::size_t>(t)].push_back(
          direct.run(inputs[static_cast<std::size_t>(t)].back()).output);
    }
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto& in = inputs[static_cast<std::size_t>(t)];
      const auto& exp = expected[static_cast<std::size_t>(t)];
      for (int b = 0; b < kBatches; ++b) {
        const std::vector<TensorI8> batch(
            in.begin() + b * kBatchSize, in.begin() + (b + 1) * kBatchSize);
        // Concurrent batches share the runner's workers; each must get
        // back exactly its own outputs, in order.
        const std::vector<TensorI8> out = runner.run_batch(batch);
        for (int i = 0; i < kBatchSize; ++i) {
          const auto& want = exp[static_cast<std::size_t>(b * kBatchSize + i)];
          if (tensor::max_abs_diff(out[static_cast<std::size_t>(i)], want) !=
              0.0) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// -------------------------------------------------------- AdmissionQueue

TEST(StressAdmissionQueue, PushPopRequeueStorm) {
  serve::QueueConfig cfg;
  cfg.capacity = 16;
  cfg.policy = serve::OverloadPolicy::kRejectNewest;
  serve::AdmissionQueue queue(cfg);

  constexpr int kPushers = 4;
  constexpr int kPerPusher = 200;
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> consumed{0};

  std::vector<std::thread> pushers;
  pushers.reserve(kPushers);
  for (int t = 0; t < kPushers; ++t) {
    pushers.emplace_back([&, t] {
      for (int i = 0; i < kPerPusher; ++i) {
        serve::Request r;
        r.id = static_cast<std::uint64_t>(t * kPerPusher + i);
        r.priority = (i % 3 == 0) ? Priority::kInteractive : Priority::kBatch;
        auto result = queue.push(std::move(r));
        if (result.admitted) {
          admitted.fetch_add(1, std::memory_order_relaxed);
        } else {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::vector<std::thread> poppers;
  poppers.reserve(2);
  for (int t = 0; t < 2; ++t) {
    poppers.emplace_back([&, t] {
      int since_requeue = 0;
      while (auto r = queue.pop()) {
        // Periodically hand one back, like the batcher's preemption path.
        if (t == 0 && ++since_requeue % 17 == 0) {
          queue.requeue_front(std::move(*r));
          continue;
        }
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (auto& t : pushers) t.join();
  queue.close();
  for (auto& t : poppers) t.join();

  // Conservation: with kRejectNewest nothing is evicted post-admission, so
  // every admitted request is consumed exactly once (close() drains).
  EXPECT_EQ(admitted.load() + rejected.load(),
            static_cast<std::uint64_t>(kPushers * kPerPusher));
  EXPECT_EQ(consumed.load(), admitted.load());
  const auto stats = queue.stats();
  EXPECT_EQ(stats.admitted, admitted.load());
  EXPECT_EQ(stats.depth, 0u);
}

// ------------------------------------------------- InferenceServer/batcher

std::vector<serve::ModelSpec> two_rung_ladder() {
  std::vector<serve::ModelSpec> ladder;
  ladder.push_back({"4M", shared_model(), 1});
  ladder.push_back({"1M", shared_small_model(), 1});
  return ladder;
}

TEST(StressServer, BatcherPreemptionUnderMixedLaneContention) {
  serve::ServerConfig cfg;
  cfg.queue.capacity = 256;
  cfg.batcher.max_batch_size = 8;
  cfg.batcher.max_wait_ms = 1.0;  // open windows so preemption can strike
  cfg.degrade.queue_depth_high = 16;
  cfg.degrade.queue_depth_low = 2;
  cfg.degrade.min_dwell_ms = 1.0;
  serve::InferenceServer server(two_rung_ladder(), cfg);

  constexpr int kClients = 4;
  constexpr int kPerClient = 30;
  std::vector<std::future<Response>> futures[kClients];
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      util::Rng rng(static_cast<std::uint64_t>(t) + 7);
      for (int i = 0; i < kPerClient; ++i) {
        const Priority lane =
            (t % 2 == 0) ? Priority::kInteractive : Priority::kBatch;
        futures[t].push_back(
            server.submit(lane, random_input(rng.uniform_int(0, 1 << 20))));
        if (i % 8 == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& t : clients) t.join();

  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  for (auto& fs : futures) {
    for (auto& f : fs) {
      const Response r = f.get();  // liveness: every future resolves
      if (r.status == Status::kOk) {
        ++ok;
      } else {
        ++failed;
      }
    }
  }
  server.shutdown();

  const auto m = server.metrics();
  EXPECT_EQ(ok + failed, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(m.completed(), static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(m.served, ok);
  EXPECT_GT(ok, 0u);
}

// ----------------------------------------------------------- ClusterRouter

TEST(StressCluster, RoutingWhileHealthDrainFlips) {
  serve::ServerConfig server_cfg;
  server_cfg.queue.capacity = 128;
  server_cfg.batcher.max_batch_size = 4;
  server_cfg.batcher.max_wait_ms = 0.0;
  server_cfg.degrade.queue_depth_high = 1000;

  serve::cluster::ClusterConfig cluster_cfg;
  cluster_cfg.policy = serve::cluster::PolicyKind::kJoinShortestQueue;
  cluster_cfg.health.queue_saturation = 0.75;

  serve::cluster::ClusterRouter router(
      serve::cluster::replicate_ladder(two_rung_ladder(), 3, server_cfg),
      cluster_cfg);

  std::atomic<bool> quit{false};
  std::thread chaos([&] {
    // Rolling fault injection: at any instant at most one board is sick,
    // so the cluster keeps absorbing traffic while drains overlap routing.
    int victim = 0;
    while (!quit.load(std::memory_order_relaxed)) {
      router.board(static_cast<std::size_t>(victim)).inject_fault(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      router.board(static_cast<std::size_t>(victim)).inject_fault(false);
      victim = (victim + 1) % 3;
    }
  });

  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::vector<std::future<Response>> futures[kClients];
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      util::Rng rng(static_cast<std::uint64_t>(t) + 31);
      for (int i = 0; i < kPerClient; ++i) {
        futures[t].push_back(router.submit(
            (i % 2 == 0) ? Priority::kInteractive : Priority::kBatch,
            random_input(rng.uniform_int(0, 1 << 20))));
        if (i % 4 == 0) {
          (void)router.states();  // concurrent health assessment
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  std::uint64_t resolved = 0;
  std::uint64_t ok = 0;
  for (auto& fs : futures) {
    for (auto& f : fs) {
      const Response r = f.get();
      ++resolved;
      if (r.status == Status::kOk) ++ok;
    }
  }
  quit.store(true, std::memory_order_relaxed);
  chaos.join();
  router.shutdown();

  EXPECT_EQ(resolved, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_GT(ok, 0u);
  const auto snap = router.snapshot();
  EXPECT_EQ(snap.served, ok);
}

// -------------------------------------------------------------- ThreadPool

TEST(StressThreadPool, ParallelForFromManyThreads) {
  util::ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr std::size_t kRange = 512;
  std::atomic<std::uint64_t> total{0};

  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 8; ++round) {
        std::atomic<std::uint64_t> local{0};
        pool.parallel_for(0, kRange, [&](std::size_t i) {
          local.fetch_add(i, std::memory_order_relaxed);
        });
        total.fetch_add(local.load(), std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : callers) t.join();

  const std::uint64_t per_call = kRange * (kRange - 1) / 2;
  EXPECT_EQ(total.load(), per_call * kCallers * 8);
}

TEST(StressThreadPool, BackToBackShortParallelForsJoinCleanly) {
  // Each parallel_for joins on state in its own stack frame. The last chunk
  // used to count down outside the join mutex and lock it afterwards, so a
  // caller could return and reuse that frame while a worker still locked
  // the mutex in it; TSan flags the lock against the next call's frame.
  util::ThreadPool pool(2);
  constexpr int kCallers = 2;
  constexpr int kRounds = 20000;
  std::atomic<std::uint64_t> total{0};

  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        pool.parallel_for(0, 2, [&](std::size_t i) {
          total.fetch_add(i + 1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : callers) t.join();

  EXPECT_EQ(total.load(), std::uint64_t{3} * kCallers * kRounds);
}

// ----------------------------------------------------------------- Logging

TEST(StressLogging, SinkSwapUnderConcurrentTraffic) {
  std::atomic<std::uint64_t> captured{0};
  std::atomic<bool> quit{false};

  std::vector<std::thread> loggers;
  loggers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    loggers.emplace_back([&, t] {
      int i = 0;
      while (!quit.load(std::memory_order_relaxed)) {
        util::log_info() << "logger " << t << " line " << i++;
      }
    });
  }

  // Swap sinks while the loggers hammer them: before the sink was guarded
  // by the logger mutex, this was a read/write race on the std::function
  // itself. (Both sinks swallow output so the test log stays readable.)
  for (int swaps = 0; swaps < 50; ++swaps) {
    util::set_log_sink([&](util::LogLevel, const std::string&) {
      captured.fetch_add(1, std::memory_order_relaxed);
    });
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    util::set_log_sink([](util::LogLevel, const std::string&) {});
  }

  quit.store(true, std::memory_order_relaxed);
  for (auto& t : loggers) t.join();
  util::set_log_sink(nullptr);
  EXPECT_GT(captured.load(), 0u);
}

// ----------------------------------------------------------- Tenants

TEST(StressTenants, MultiTenantSubmitsWithConcurrentSnapshots) {
  auto registry = std::make_shared<serve::tenant::TenantRegistry>();
  registry->add({1, "a", /*rate=*/500.0, /*burst=*/16.0, /*weight=*/3});
  registry->add({2, "b", /*rate=*/200.0, /*burst=*/8.0, /*weight=*/1});
  registry->add({3, "c", /*rate=*/0.0, /*burst=*/4.0, /*weight=*/2});

  serve::ServerConfig cfg;
  cfg.queue.capacity = 256;
  cfg.batcher.max_batch_size = 4;
  cfg.batcher.max_wait_ms = 1.0;
  cfg.degrade.queue_depth_high = 16;
  cfg.degrade.queue_depth_low = 2;
  cfg.degrade.min_dwell_ms = 1.0;
  cfg.tenants = registry;
  serve::InferenceServer server(two_rung_ladder(), cfg);

  // Tenant threads hammer the bucketed front door while snapshot threads
  // concurrently walk the registry and the server metrics (the racy
  // interleavings TSan is here for: bucket refills under the registry
  // mutex vs. atomic counter reads vs. DRR dequeue).
  constexpr int kClients = 4;
  constexpr int kPerClient = 40;
  std::vector<std::future<Response>> futures[kClients];
  std::atomic<bool> quit{false};
  std::vector<std::thread> snapshotters;
  for (int s = 0; s < 2; ++s) {
    snapshotters.emplace_back([&] {
      while (!quit.load(std::memory_order_relaxed)) {
        (void)registry->snapshot();
        (void)server.metrics();
        std::this_thread::yield();
      }
    });
  }
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      const auto tenant = static_cast<serve::TenantId>(t % 4);  // 0..3
      util::Rng rng(static_cast<std::uint64_t>(t) + 31);
      for (int i = 0; i < kPerClient; ++i) {
        const Priority lane =
            (i % 3 == 0) ? Priority::kBatch : Priority::kInteractive;
        futures[t].push_back(server.submit(
            lane, random_input(rng.uniform_int(0, 1 << 20)), 0.0, tenant));
        if (i % 8 == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& t : clients) t.join();

  std::uint64_t resolved = 0;
  for (auto& fs : futures) {
    for (auto& f : fs) {
      (void)f.get();  // liveness: every future resolves
      ++resolved;
    }
  }
  quit.store(true, std::memory_order_relaxed);
  for (auto& t : snapshotters) t.join();
  server.shutdown();

  EXPECT_EQ(resolved, static_cast<std::uint64_t>(kClients * kPerClient));
  // Conservation per tenant: submitted == throttled + rejected + expired +
  // errors + served, with nothing lost across the concurrent counters.
  std::uint64_t submitted_total = 0;
  for (const auto& t : registry->snapshot()) {
    EXPECT_EQ(t.submitted, t.completed())
        << "tenant " << t.name << " lost a request";
    submitted_total += t.submitted;
  }
  EXPECT_EQ(submitted_total, static_cast<std::uint64_t>(kClients * kPerClient));
  // Tenant 3's bucket never refills: at most `burst` of its submits served.
  const auto snaps = registry->snapshot();
  EXPECT_LE(snaps[3].served, 4u);
  EXPECT_GT(snaps[3].throttled, 0u);
}

}  // namespace
}  // namespace seneca
