// Tests of the benchmark's own arithmetic: the rules that turn request
// records into end-to-end metrics, and the /proc parsers behind the
// resource metrics.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <vector>

#include "bench_math.hpp"
#include "procfs.hpp"
#include "serve/metrics.hpp"
#include "trace.hpp"

namespace seneca::perfbench {
namespace {

using serve::Status;

RequestRecord ok_at(double scheduled_s, double completed_s, int rung = 0) {
  RequestRecord r;
  r.scheduled_s = scheduled_s;
  r.submit_begin_s = scheduled_s;
  r.completed_s = completed_s;
  r.status = Status::kOk;
  r.match = true;
  r.rung = rung;
  return r;
}

TEST(Percentile, IsTheServingLayersNearestRank) {
  const std::vector<double> v = {7, 1, 9, 3, 5, 2, 8, 4, 10, 6};
  for (double q : {0.0, 0.1, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(percentile(v, q), serve::nearest_rank_quantile(v, q)) << q;
  }
  EXPECT_EQ(percentile(v, 0.5), 5.0);   // ceil(0.5 * 10) = 5th smallest
  EXPECT_EQ(percentile(v, 0.95), 10.0);  // ceil(9.5) = 10th: never below
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Latency, IsMeasuredFromTheScheduledSendTime) {
  RequestRecord r = ok_at(1.000, 1.250);
  r.submit_begin_s = 1.200;  // the generator ran 200 ms late
  EXPECT_NEAR(latency_ms(r), 250.0, 1e-9);
  EXPECT_EQ(deadline_met_share({r}, 100.0), 0.0);
  EXPECT_EQ(deadline_met_share({r}, 250.0 + 1e-6), 1.0);
}

TEST(Shares, CountEveryFailureInTheDenominator) {
  RequestRecord mismatched = ok_at(0.0, 0.010);
  mismatched.match = false;
  RequestRecord refused = ok_at(0.0, 0.001);
  refused.status = Status::kRejected;
  RequestRecord expired = ok_at(0.0, 0.002);
  expired.status = Status::kExpired;
  RequestRecord errored = ok_at(0.0, 0.003);
  errored.status = Status::kError;
  const std::vector<RequestRecord> sent = {ok_at(0.0, 0.010), mismatched,
                                           refused, expired, errored};
  EXPECT_DOUBLE_EQ(ok_share(sent), 0.2);
  // Refused and expired requests complete fast but still miss.
  EXPECT_DOUBLE_EQ(deadline_met_share(sent, 50.0), 0.2);
  EXPECT_DOUBLE_EQ(top_rung_share(sent), 1.0);
  EXPECT_EQ(ok_share({}), 0.0);
}

TEST(SimRates, PriceEachFrameAtItsRung) {
  const std::vector<RungPrice> prices = {{0.010, 0.30}, {0.005, 0.10}};
  std::vector<RequestRecord> sent = {ok_at(0, 1, 0), ok_at(0, 1, 0),
                                     ok_at(0, 1, 1)};
  RequestRecord failed = ok_at(0, 1, 1);
  failed.status = Status::kExpired;
  sent.push_back(failed);  // unserved frames are not billed
  const SimRates r = sim_rates(sent, prices);
  EXPECT_NEAR(r.fps, 3.0 / (0.010 + 0.010 + 0.005), 1e-9);
  EXPECT_NEAR(r.fps_per_w, 3.0 / (0.30 + 0.30 + 0.10), 1e-9);
  EXPECT_NEAR(top_rung_share(sent), 2.0 / 3.0, 1e-12);
}

TEST(SimRates, AreBitIdenticalForAFixedRungMix) {
  const std::vector<RungPrice> prices = {{0.0123, 0.456}, {0.007, 0.2}};
  std::vector<RequestRecord> a(1000, ok_at(0, 1, 0));
  std::vector<RequestRecord> b(1017, ok_at(0, 1, 0));
  EXPECT_EQ(sim_rates(a, prices).fps, sim_rates(b, prices).fps);
  EXPECT_EQ(sim_rates(a, prices).fps_per_w, sim_rates(b, prices).fps_per_w);
  EXPECT_EQ(sim_rates(a, prices).fps, 1.0 / 0.0123);
}

TEST(Batches, MeanSizeAndBusyShareCountEachBatchOnce) {
  std::vector<RequestRecord> sent;
  for (int i = 0; i < 4; ++i) {  // one batch of 4 taking 40 ms
    RequestRecord r = ok_at(0, 1);
    r.batch_size = 4;
    r.service_ms = 40.0;
    sent.push_back(r);
  }
  RequestRecord single = ok_at(0, 1);  // and a singleton of 10 ms
  single.service_ms = 10.0;
  sent.push_back(single);
  EXPECT_DOUBLE_EQ(mean_batch_size(sent), 2.5);  // 5 requests, 2 batches
  EXPECT_DOUBLE_EQ(busy_share(sent, 0.1), 0.5);  // 50 ms busy in 100 ms
}

TEST(Window, PoolsEveryRequestOfItsRanges) {
  std::vector<RequestRecord> sent;
  // [0, 1): 4 frames at 10 ms; [1, 2): 2 frames at 50 ms (a stall);
  // [2, 3): 3 frames at 20 ms. One batch-lane frame sent in each second
  // counts toward the frames of the range it completes in, not toward
  // interactive latency.
  for (int i = 0; i < 4; ++i) sent.push_back(ok_at(0.1 * i, 0.1 * i + 0.010));
  for (int i = 0; i < 2; ++i) sent.push_back(ok_at(1.0 + 0.1 * i, 1.050 + 0.1 * i));
  for (int i = 0; i < 3; ++i) sent.push_back(ok_at(2.0 + 0.1 * i, 2.020 + 0.1 * i));
  for (auto& r : sent) r.lane = serve::Priority::kInteractive;
  for (double t : {0.4, 1.4, 2.4}) {
    RequestRecord batch = ok_at(t, t + 0.5);
    batch.lane = serve::Priority::kBatch;
    sent.push_back(batch);
  }
  const auto lane = serve::Priority::kInteractive;
  EXPECT_DOUBLE_EQ(pooled_stats(sent, lane, {{0.0, 1.0, 0.1}}).frames_per_s, 5.0);
  // Counted where it completes: the frame sent at 2.4 s ends at 2.9 s.
  EXPECT_DOUBLE_EQ(pooled_stats(sent, lane, {{2.0, 3.0, 0.1}}).frames_per_s, 4.0);
  RequestRecord late = ok_at(0.9, 1.2);  // sent in [0, 1), done in [1, 2)
  late.lane = serve::Priority::kBatch;
  const WindowStats second =
      pooled_stats({late}, serve::Priority::kBatch, {{1.0, 2.0, 0.0}});
  EXPECT_DOUBLE_EQ(second.frames_per_s, 1.0);
  EXPECT_EQ(second.latency_p50_ms, 0.0);  // its latency belongs to [0, 1)

  // The whole span: nearest ranks over all 9 latencies
  // {10 x4, 20 x3, 50 x2}, so the stall sets the p95; 12 frames in 3 s.
  const WindowStats all = pooled_stats(sent, lane, {{0.0, 3.0, 0.3}});
  EXPECT_DOUBLE_EQ(all.frames_per_s, 4.0);
  EXPECT_NEAR(all.latency_p50_ms, 20.0, 1e-9);
  EXPECT_NEAR(all.latency_p95_ms, 50.0, 1e-9);
  EXPECT_NEAR(all.cpu_ms_per_frame, 25.0, 1e-9);  // 300 ms over 12 frames

  // Two disjoint ranges pool as one: 4 + 3 latencies, 7 + 2 frames in 2 s,
  // 0.1 + 0.08 CPU seconds.
  const WindowStats split =
      pooled_stats(sent, lane, {{0.0, 1.0, 0.1}, {2.0, 3.0, 0.08}});
  EXPECT_DOUBLE_EQ(split.frames_per_s, 4.5);
  EXPECT_NEAR(split.latency_p95_ms, 20.0, 1e-9);
  EXPECT_NEAR(split.cpu_ms_per_frame, 20.0, 1e-9);
}

TEST(Window, KeepsTheIntervalsWithTheLeastSteal) {
  // Nearest-rank median of these nine is 0.013 s: five intervals kept.
  const std::vector<double> steal = {0.003, 0.061, 0.005, 0.006, 0.014,
                                     0.022, 0.044, 0.013, 0.002};
  EXPECT_EQ(least_stolen(steal), (std::vector<std::size_t>{0, 2, 3, 7, 8}));
  // A host that steals nothing keeps the whole window; ties stay in.
  EXPECT_EQ(least_stolen({0.0, 0.0, 0.0}), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(least_stolen({0.0, 0.1, 0.0, 0.1}).size(), 2u);
  EXPECT_EQ(least_stolen({0.2, 0.1, 0.1, 0.3}).size(), 2u);
}

TEST(Arrivals, OfferAFixedCountPerSegment) {
  const std::vector<double> bounds = {0.0, 2.0, 7.0, 12.0};
  const std::vector<double> a = fixed_count_arrivals(150.0, bounds, 7);
  ASSERT_EQ(a.size(), 300u + 750u + 750u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 12.0);
  EXPECT_EQ(std::count_if(a.begin(), a.end(),
                          [](double t) { return t >= 2.0 && t < 7.0; }),
            750);
  EXPECT_EQ(a, fixed_count_arrivals(150.0, bounds, 7));  // seeded
  EXPECT_NE(a, fixed_count_arrivals(150.0, bounds, 8));
}

TEST(Procfs, SumsCpuTimeOverWorkerProcesses) {
  // Field 14/15 (utime/stime) counted after the last ')': a command name
  // with spaces and parentheses must not shift them.
  const std::string self =
      "100 (seneca_perfbench) S 1 100 100 0 -1 4194304 500 0 0 0 "
      "250 50 0 0 20 0 6 0 1000 1000000 2000";
  const std::string worker =
      "201 (odd (name) x) S 100 100 100 0 -1 4194304 10 0 0 0 "
      "120 30 0 0 20 0 2 0 1100 500000 900";
  EXPECT_DOUBLE_EQ(parse_stat_cpu_seconds(self, 100), 3.0);
  EXPECT_DOUBLE_EQ(parse_stat_cpu_seconds(worker, 100), 1.5);
  EXPECT_DOUBLE_EQ(sum_stat_cpu_seconds({self, worker, worker}, 100), 6.0);
  EXPECT_THROW(parse_stat_cpu_seconds("12 (x) S 1 2", 100), std::runtime_error);
}

TEST(Procfs, ReadsHostStealTime) {
  const std::string stat =
      "cpu  1154145 0 44952 3349908 248 0 56237 38261 0 0\n"
      "cpu0 288536 0 11238 837477 62 0 14059 9565 0 0\n";
  EXPECT_DOUBLE_EQ(parse_steal_seconds(stat, 100), 382.61);
  EXPECT_THROW(parse_steal_seconds("cpu  1 2 3 4 5 6 7\ncpu0 1 2 3 4 5 6 7 8\n", 100),
               std::runtime_error);
  EXPECT_THROW(parse_steal_seconds("intr 1 2 3\n", 100), std::runtime_error);
  EXPECT_GE(host_steal_seconds(), 0.0);
}

TEST(Procfs, ReadsPeakResidentSet) {
  const std::string status =
      "Name:\tseneca_boardd\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\n"
      "VmRSS:\t   40000 kB\n";
  EXPECT_DOUBLE_EQ(parse_vmhwm_mb(status), 50.0);
  EXPECT_THROW(parse_vmhwm_mb("Name:\tx\n"), std::runtime_error);
  // The live process has one.
  EXPECT_GT(processes_vmhwm_mb({::getpid()}), 0.0);
  EXPECT_GE(processes_cpu_seconds({::getpid()}), 0.0);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  const Clock::time_point t0{};
  auto at = [&](int us) { return t0 + std::chrono::microseconds(us); };
  std::vector<Span> spans(4);
  spans[0] = {1, 0, 16, "request", at(0), at(100), {}};
  spans[1] = {2, 1, 16, "submit", at(10), at(30), {}};
  spans[2] = {3, 1, 16, "in_flight", at(20), at(90), {}};  // overlaps submit
  spans[3] = {4, 3, 16, "kernel", at(40), at(50), {}};
  const std::vector<double> self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 20.0);  // 100 - union [10, 90)
  EXPECT_DOUBLE_EQ(self[1], 20.0);
  EXPECT_DOUBLE_EQ(self[2], 60.0);
  EXPECT_DOUBLE_EQ(self[3], 10.0);
}

}  // namespace
}  // namespace seneca::perfbench
