// BoardDaemon + RemoteBoard integration, all in-process (the daemon runs on
// a thread, no fork): hello handshake, request round-trips over loopback and
// unix sockets, wrong-shaped frame rejection, telemetry-backed board probes,
// control verbs, dead-worker semantics, cross-board migration through a
// ClusterRouter of RemoteBoards, online re-pricing visibility end to end, and
// a fake worker whose rung table or level the router must not trust.

#include <gtest/gtest.h>
#include <unistd.h>

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/workflow.hpp"
#include "serve/cluster/router.hpp"
#include "serve/net/boardd.hpp"
#include "serve/net/remote_board.hpp"

namespace {

using namespace seneca;
using serve::net::BoardDaemon;
using serve::net::BoardDaemonConfig;
using serve::net::Endpoint;
using serve::net::FrameType;
using serve::net::RemoteBoard;
using serve::net::RemoteBoardConfig;
using serve::net::WireHello;

serve::ServerConfig small_server(std::size_t capacity = 16) {
  serve::ServerConfig cfg;
  cfg.queue.capacity = capacity;
  cfg.batcher.max_batch_size = 4;
  cfg.batcher.max_wait_ms = 1.0;
  cfg.batcher.interactive_max_wait_ms = 0.0;
  cfg.batcher.interactive_max_batch_size = 1;
  return cfg;
}

serve::cluster::BoardConfig small_board(const std::string& name,
                                        const dpu::XModel& xm) {
  serve::cluster::BoardConfig cfg;
  cfg.name = name;
  cfg.ladder.push_back({"2M", xm, 2});
  cfg.server = small_server();
  cfg.sim_images = 4;  // cheap DES pricing pass
  return cfg;
}

tensor::TensorI8 make_input(std::int64_t side) {
  tensor::TensorI8 t(tensor::Shape{side, side, 1});
  std::int8_t v = 1;
  for (auto& x : t) x = v++;
  return t;
}

/// One compiled 2M model shared by every test (compilation dominates).
const dpu::XModel& shared_xmodel() {
  static const dpu::XModel xm =
      core::build_timing_xmodel("2M", dpu::DpuArch::b4096(), 32);
  return xm;
}

/// BoardDaemon on a background thread + its endpoint.
class DaemonFixture {
 public:
  explicit DaemonFixture(serve::cluster::BoardConfig board,
                         Endpoint listen = {}) {
    BoardDaemonConfig cfg;
    cfg.board = std::move(board);
    cfg.listen = listen;
    cfg.poll_ms = 20.0;
    daemon_ = std::make_unique<BoardDaemon>(std::move(cfg));
    thread_ = std::thread([this] { daemon_->run(); });
  }
  ~DaemonFixture() {
    daemon_->stop();
    thread_.join();
  }
  const Endpoint& endpoint() const { return daemon_->endpoint(); }
  BoardDaemon& daemon() { return *daemon_; }

 private:
  std::unique_ptr<BoardDaemon> daemon_;
  std::thread thread_;
};

RemoteBoardConfig fast_remote() {
  RemoteBoardConfig cfg;
  cfg.heartbeat_interval_ms = 10.0;
  return cfg;
}

// ------------------------------------------------------------ round trips

TEST(RemoteBoardTest, HelloCarriesIdentityAndCosts) {
  DaemonFixture fx(small_board("wire0", shared_xmodel()));
  RemoteBoard board(0, fx.endpoint(), fast_remote());
  EXPECT_EQ(board.name(), "wire0");
  ASSERT_EQ(board.num_rungs(), 1u);
  EXPECT_EQ(board.queue_capacity(), 16u);
  const auto cost = board.rung_cost(0);
  EXPECT_EQ(cost.model, "2M");
  EXPECT_GT(cost.seconds_per_frame, 0.0);
  EXPECT_GT(cost.joules_per_frame, 0.0);
  board.shutdown();
}

TEST(RemoteBoardTest, SubmitRoundTripsOverTcp) {
  DaemonFixture fx(small_board("wire0", shared_xmodel()));
  RemoteBoard board(0, fx.endpoint(), fast_remote());
  const serve::Response r =
      board.submit(serve::Priority::kInteractive, make_input(32), 0.0).get();
  EXPECT_EQ(r.status, serve::Status::kOk);
  EXPECT_EQ(r.model_used, "2M");
  EXPECT_GT(r.output.numel(), 0);
  EXPECT_GT(r.total_ms, 0.0);
  board.shutdown();
}

TEST(RemoteBoardTest, SubmitRoundTripsOverUnixSocket) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = "/tmp/seneca-boardtest-" + std::to_string(::getpid()) + ".sock";
  DaemonFixture fx(small_board("wire0", shared_xmodel()), ep);
  RemoteBoard board(0, fx.endpoint(), fast_remote());
  const serve::Response r =
      board.submit(serve::Priority::kBatch, make_input(32), 0.0).get();
  EXPECT_EQ(r.status, serve::Status::kOk);
  board.shutdown();
}

TEST(RemoteBoardTest, ManyConcurrentSubmitsAllComplete) {
  DaemonFixture fx(small_board("wire0", shared_xmodel()));
  RemoteBoard board(0, fx.endpoint(), fast_remote());
  std::vector<std::future<serve::Response>> futs;
  for (int i = 0; i < 24; ++i) {
    futs.push_back(
        board.submit(i % 3 == 0 ? serve::Priority::kInteractive
                                : serve::Priority::kBatch,
                     make_input(32), 0.0));
  }
  int ok = 0;
  for (auto& f : futs) {
    const serve::Response r = f.get();
    // Under burst the tiny queue may reject; the contract is every future
    // resolves with a terminal status, nothing lost on the wire.
    if (r.status == serve::Status::kOk) ++ok;
    EXPECT_NE(r.status, serve::Status::kMigrated);
  }
  EXPECT_GT(ok, 0);
  board.shutdown();
}

// ------------------------------------------------------- telemetry probes

TEST(RemoteBoardTest, TelemetryBacksBoardProbes) {
  DaemonFixture fx(small_board("wire0", shared_xmodel()));
  RemoteBoard board(0, fx.endpoint(), fast_remote());
  (void)board.submit(serve::Priority::kBatch, make_input(32), 0.0).get();
  ASSERT_TRUE(board.refresh(2000.0));
  // Asked right after the probe: fault_injected() also reads stale
  // telemetry as a fault.
  EXPECT_FALSE(board.fault_injected());
  EXPECT_GE(board.frames_served(), 1u);
  EXPECT_GT(board.energy_joules(), 0.0);
  EXPECT_GT(board.busy_seconds(), 0.0);
  const serve::MetricsSnapshot m = board.metrics();
  EXPECT_GE(m.submitted, 1u);
  EXPECT_GE(m.served, 1u);
  board.shutdown();
}

TEST(RemoteBoardTest, ControlFaultRoundTrips) {
  DaemonFixture fx(small_board("wire0", shared_xmodel()));
  RemoteBoard board(0, fx.endpoint(), fast_remote());
  board.inject_fault(true);
  // The fault flag arrives with the next telemetry.
  bool saw_fault = false;
  for (int i = 0; i < 100 && !saw_fault; ++i) {
    ASSERT_TRUE(board.refresh(2000.0));
    saw_fault = board.fault_injected();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(fx.daemon().board().fault_injected());
  board.inject_fault(false);
  board.shutdown();
}

TEST(RemoteBoardTest, WrongShapedFrameIsRejectedAndWorkerSurvives) {
  // A wire frame's tensor shape comes from outside the worker; a wrong one
  // must be rejected without taking the worker down.
  DaemonFixture fx(small_board("wire0", shared_xmodel()));
  RemoteBoard board(0, fx.endpoint(), fast_remote());
  const serve::Response bad =
      board.submit(serve::Priority::kInteractive, make_input(31), 0.0).get();
  EXPECT_EQ(bad.status, serve::Status::kRejected);
  const serve::Response good =
      board.submit(serve::Priority::kInteractive, make_input(32), 0.0).get();
  EXPECT_EQ(good.status, serve::Status::kOk);
  // fault_injected() also reads stale telemetry as a fault, so probe right
  // before asking.
  ASSERT_TRUE(board.refresh(2000.0));
  EXPECT_FALSE(board.dead());
  EXPECT_FALSE(board.fault_injected());
  // The same worker answered both: a restarted one would have lost the
  // rejection from its counters.
  const serve::MetricsSnapshot m = board.metrics();
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.errors, 0u);
  EXPECT_EQ(m.served, 1u);
  board.shutdown();
}

// ----------------------------------------------------------- dead workers

TEST(RemoteBoardTest, DaemonStopFailsPendingWithError) {
  auto fx = std::make_unique<DaemonFixture>(
      small_board("wire0", shared_xmodel()));
  RemoteBoard board(0, fx->endpoint(), fast_remote());
  // Wedge the wire: kill the daemon while requests may be queued.
  std::vector<std::future<serve::Response>> futs;
  for (int i = 0; i < 8; ++i) {
    futs.push_back(board.submit(serve::Priority::kBatch, make_input(32), 0.0));
  }
  fx.reset();  // daemon torn down; connection drops
  for (auto& f : futs) {
    const serve::Response r = f.get();  // must not hang
    EXPECT_TRUE(r.status == serve::Status::kOk ||
                r.status == serve::Status::kError ||
                r.status == serve::Status::kMigrated)
        << to_string(r.status);
  }
  // The hangup reaches the board's reader thread asynchronously: if every
  // request was answered before the socket closed, no future waited for it.
  // A dead worker cannot answer a probe, and the probe returns once the
  // write fails or the reader has seen the hangup.
  EXPECT_FALSE(board.refresh(2000.0));
  EXPECT_TRUE(board.dead());
  EXPECT_TRUE(board.fault_injected()) << "dead board must read as faulted";
  // Submits after death fail fast instead of hanging.
  const serve::Response late =
      board.submit(serve::Priority::kBatch, make_input(32), 0.0).get();
  EXPECT_EQ(late.status, serve::Status::kError);
  board.shutdown();
}

// -------------------------------------------------- migration end to end

TEST(RemoteBoardTest, RouterMigratesOffDeadRemoteBoard) {
  auto fx0 = std::make_unique<DaemonFixture>(
      small_board("wire0", shared_xmodel()));
  DaemonFixture fx1(small_board("wire1", shared_xmodel()));

  serve::cluster::ClusterConfig ccfg;
  ccfg.policy = serve::cluster::PolicyKind::kJoinShortestQueue;
  ccfg.migrate.enable = true;
  ccfg.migrate.monitor_interval_ms = 5.0;
  std::vector<std::shared_ptr<serve::cluster::Board>> fleet;
  fleet.push_back(std::make_shared<RemoteBoard>(0, fx0->endpoint(),
                                                fast_remote()));
  fleet.push_back(std::make_shared<RemoteBoard>(1, fx1.endpoint(),
                                                fast_remote()));
  serve::cluster::ClusterRouter router(std::move(fleet), std::move(ccfg));

  std::vector<std::future<serve::Response>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(
        router.submit(serve::Priority::kBatch, make_input(32), 0.0));
  }
  fx0.reset();  // board 0 dies mid-run; its pendings fail -> router re-routes
  int ok = 0;
  for (auto& f : futs) {
    const serve::Response r = f.get();
    // The client-visible contract: kMigrated never leaks, nothing hangs.
    EXPECT_NE(r.status, serve::Status::kMigrated);
    if (r.status == serve::Status::kOk) ++ok;
  }
  // Everything either served (possibly after a re-route) or was rejected by
  // a full queue — with no deadline, nothing may be lost as expired.
  const serve::cluster::ClusterSnapshot snap = router.snapshot();
  EXPECT_EQ(snap.expired, 0u);
  EXPECT_GT(ok, 0);
  router.shutdown();
}

// ------------------------------------------------------ online re-pricing

TEST(RemoteBoardTest, OnlineRepriceReachesRemoteCostView) {
  serve::cluster::BoardConfig bc = small_board("wire0", shared_xmodel());
  bc.online_reprice = true;
  DaemonFixture fx(std::move(bc));
  RemoteBoard board(0, fx.endpoint(), fast_remote());
  const auto des_cost = board.rung_cost(0);
  for (int i = 0; i < 6; ++i) {
    (void)board.submit(serve::Priority::kBatch, make_input(32), 0.0).get();
  }
  ASSERT_TRUE(board.refresh(2000.0));
  const auto live_cost = board.rung_cost(0);
  // Wall-clock-observed service time replaces the DES estimate; on a dev
  // host the two have no reason to coincide.
  EXPECT_GT(live_cost.seconds_per_frame, 0.0);
  EXPECT_NE(live_cost.seconds_per_frame, des_cost.seconds_per_frame);
  // And the daemon's own board agrees (same source of truth).
  const auto local = fx.daemon().board().observed(0);
  EXPECT_GT(local.samples, 0u);
  board.shutdown();
}

// ------------------------------------------------ untrusted worker tables

/// A fake worker on loopback: sends `hello`, then answers every heartbeat
/// with telemetry at `level` until the router side hangs up.
class FakeWorker {
 public:
  FakeWorker(WireHello hello, std::int32_t level)
      : listener_(serve::net::Listener::bind(Endpoint{})) {
    thread_ = std::thread([this, hello = std::move(hello), level] {
      try {
        serve::net::Socket s = listener_.accept(5000.0);
        s.write_frame(FrameType::kHello, hello.encode(), 1000.0);
        for (;;) {
          const serve::net::Frame f = s.read_frame(5000.0);
          if (f.type == FrameType::kGoodbye) return;
          if (f.type != FrameType::kHeartbeat) continue;
          serve::net::WireTelemetry t;
          t.seq = serve::net::WireHeartbeat::decode(f.payload).seq;
          t.level = level;
          t.rungs.resize(hello.rungs.size());
          s.write_frame(FrameType::kTelemetry, t.encode(), 1000.0);
        }
      } catch (const std::exception&) {
        // The router side refused the hello or hung up.
      }
    });
  }
  ~FakeWorker() { thread_.join(); }
  const Endpoint& endpoint() const { return listener_.local_endpoint(); }

 private:
  serve::net::Listener listener_;
  std::thread thread_;
};

TEST(RemoteBoardTest, HelloWithoutRungsIsRefused) {
  // Telemetry levels index the hello's rung table: a worker announcing no
  // rung could only be priced from outside it.
  WireHello hello;
  hello.name = "empty";
  hello.queue_capacity = 4;
  FakeWorker worker(hello, 0);
  EXPECT_THROW(
      { RemoteBoard board(0, worker.endpoint(), fast_remote()); },
      serve::net::FrameError);
}

TEST(RemoteBoardTest, TelemetryLevelOutsideRungTableFaultsTheBoard) {
  for (const std::int32_t level : {7, -1}) {
    WireHello hello;
    hello.name = "liar";
    hello.queue_capacity = 4;
    hello.rungs.push_back({"4M", 0.01, 9.0, 0.09, 1u});
    hello.rungs.push_back({"2M", 0.005, 8.0, 0.04, 2u});
    FakeWorker worker(hello, level);
    RemoteBoard board(0, worker.endpoint(), fast_remote());
    EXPECT_FALSE(board.refresh(2000.0)) << "level " << level;
    EXPECT_TRUE(board.fault_injected()) << "level " << level;
    EXPECT_GE(board.level(), 0) << "level " << level;
    EXPECT_LT(board.level(), static_cast<int>(board.num_rungs()))
        << "level " << level;
    board.shutdown();
  }
}

}  // namespace
