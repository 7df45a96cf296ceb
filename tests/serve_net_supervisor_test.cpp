// Supervisor: real fork/exec of the seneca_boardd binary (path injected by
// CMake as SENECA_BOARDD_PATH). Covers the full process lifecycle — spawn +
// endpoint handshake, SIGKILL mid-run with automatic restart and zero lost
// non-expired requests, join/leave while traffic flows — and the compile-
// once deploy path: one .xmodel per rung per fleet, restarts that load the
// same file, and workers refused for good at the load gate or the hello.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/workflow.hpp"
#include "serve/cluster/router.hpp"
#include "serve/net/frame.hpp"
#include "serve/net/supervisor.hpp"
#include "util/io.hpp"

namespace {

using namespace seneca;
using serve::cluster::ClusterConfig;
using serve::cluster::ClusterRouter;
using serve::net::Supervisor;
using serve::net::SupervisorConfig;
using serve::net::WorkerRefused;
using serve::net::WorkerSpec;

SupervisorConfig base_config() {
  SupervisorConfig cfg;
  cfg.boardd_path = SENECA_BOARDD_PATH;
  cfg.remote.heartbeat_interval_ms = 10.0;
  cfg.restart_backoff_initial_ms = 20.0;
  cfg.poll_interval_ms = 5.0;
  return cfg;
}

WorkerSpec tiny_worker() {
  WorkerSpec spec;
  spec.ladder = {"2M"};
  spec.input = 32;  // smallest legal input for the 2M ladder depth
  spec.queue_capacity = 16;
  return spec;
}

ClusterConfig migrating_cluster() {
  ClusterConfig cfg;
  cfg.policy = serve::cluster::PolicyKind::kJoinShortestQueue;
  cfg.migrate.enable = true;
  cfg.migrate.monitor_interval_ms = 5.0;
  return cfg;
}

tensor::TensorI8 make_input(std::int64_t side = 32) {
  tensor::TensorI8 t(tensor::Shape{side, side, 1});
  for (auto& x : t) x = 3;
  return t;
}

bool wait_until(double timeout_ms, const std::function<bool()>& pred) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double, std::milli>(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

TEST(SupervisorTest, SpawnsWorkerAndServesThroughRouter) {
  ClusterRouter router(std::vector<std::shared_ptr<serve::cluster::Board>>{},
                       migrating_cluster());
  Supervisor sup(base_config(), router);
  const int slot = sup.add_worker(tiny_worker());
  EXPECT_EQ(sup.num_workers(), 1u);
  EXPECT_GT(sup.worker_pid(slot), 0);
  ASSERT_EQ(router.num_boards(), 1u);

  const serve::Response r =
      router.submit(serve::Priority::kInteractive, make_input(), 0.0).get();
  EXPECT_EQ(r.status, serve::Status::kOk);
  EXPECT_EQ(r.model_used, "2M");
  sup.stop();
  EXPECT_EQ(router.num_boards(), 0u);
  router.shutdown();
}

TEST(SupervisorTest, RestartsSigkilledWorker) {
  ClusterRouter router(std::vector<std::shared_ptr<serve::cluster::Board>>{},
                       migrating_cluster());
  Supervisor sup(base_config(), router);
  const int slot = sup.add_worker(tiny_worker());
  sup.start();

  const pid_t first_pid = sup.worker_pid(slot);
  ASSERT_GT(first_pid, 0);
  ::kill(first_pid, SIGKILL);

  // Bounded recovery: the monitor must reap, back off, respawn, reconnect.
  ASSERT_TRUE(wait_until(20000.0, [&] {
    const pid_t pid = sup.worker_pid(slot);
    auto board = sup.worker_board(slot);
    return pid > 0 && pid != first_pid && board && !board->dead();
  })) << "worker was not restarted";
  EXPECT_GE(sup.stats().restarts, 1u);

  // The restarted worker serves again through the SAME router slot.
  const serve::Response r =
      router.submit(serve::Priority::kBatch, make_input(), 0.0).get();
  EXPECT_EQ(r.status, serve::Status::kOk);
  sup.stop();
  router.shutdown();
}

TEST(SupervisorTest, SigkillMidTrafficLosesNoNonExpiredRequests) {
  ClusterRouter router(std::vector<std::shared_ptr<serve::cluster::Board>>{},
                       migrating_cluster());
  Supervisor sup(base_config(), router);
  const int victim = sup.add_worker(tiny_worker());
  sup.add_worker(tiny_worker());
  sup.start();

  std::vector<std::future<serve::Response>> futs;
  for (int i = 0; i < 24; ++i) {
    futs.push_back(
        router.submit(serve::Priority::kBatch, make_input(), 0.0));
  }
  ::kill(sup.worker_pid(victim), SIGKILL);
  for (int i = 0; i < 24; ++i) {
    futs.push_back(
        router.submit(serve::Priority::kBatch, make_input(), 0.0));
  }

  int ok = 0, rejected = 0, errors = 0;
  for (auto& f : futs) {
    const serve::Response r = f.get();  // every future must resolve
    EXPECT_NE(r.status, serve::Status::kMigrated) << "kMigrated leaked";
    EXPECT_NE(r.status, serve::Status::kExpired)
        << "deadline-free request reported expired";
    switch (r.status) {
      case serve::Status::kOk: ++ok; break;
      case serve::Status::kRejected: ++rejected; break;
      default: ++errors; break;
    }
  }
  // "Zero lost non-expired requests": every submit got a terminal answer,
  // and the surviving board kept serving (ok > 0). Queue-full rejects are
  // legitimate admission control, not loss. kError terminals are allowed
  // only for requests that exhausted max_hops during the outage window.
  EXPECT_GT(ok, 0);
  EXPECT_EQ(ok + rejected + errors, 48);

  const serve::cluster::ClusterSnapshot snap = router.snapshot();
  EXPECT_EQ(snap.expired, 0u);
  sup.stop();
  router.shutdown();
}

TEST(SupervisorTest, JoinAndLeaveWithoutDrainingFleet) {
  ClusterRouter router(std::vector<std::shared_ptr<serve::cluster::Board>>{},
                       migrating_cluster());
  Supervisor sup(base_config(), router);
  sup.add_worker(tiny_worker());
  sup.start();

  // Background traffic the whole time.
  std::atomic<bool> stop{false};
  std::atomic<int> ok{0};
  std::thread client([&] {
    while (!stop.load()) {
      const serve::Response r =
          router.submit(serve::Priority::kBatch, make_input(), 0.0).get();
      if (r.status == serve::Status::kOk) ok.fetch_add(1);
    }
  });

  const int joined = sup.add_worker(tiny_worker());  // join under load
  EXPECT_EQ(router.num_boards(), 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  sup.remove_worker(joined);  // leave under load
  EXPECT_EQ(router.num_boards(), 1u);
  EXPECT_EQ(sup.num_workers(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  stop.store(true);
  client.join();
  EXPECT_GT(ok.load(), 0);
  sup.stop();
  router.shutdown();
}

// ------------------------------------------------- compile once, then load

/// A private work_dir, so a test can count and corrupt the fleet's files.
struct TempDir {
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "seneca-sup-XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) throw std::runtime_error("mkdtemp");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::vector<std::filesystem::path> xmodels() const {
    std::vector<std::filesystem::path> out;
    for (const auto& e : std::filesystem::directory_iterator(path)) {
      if (e.path().extension() == ".xmodel") out.push_back(e.path());
    }
    return out;
  }
  /// The .xmodel compiled for `rung` (named ...-<rung>-<input>.xmodel).
  std::filesystem::path xmodel_for(const std::string& rung) const {
    for (const auto& p : xmodels()) {
      if (p.filename().string().find("-" + rung + "-") != std::string::npos) {
        return p;
      }
    }
    return {};
  }
  std::filesystem::path path;
};

SupervisorConfig config_in(const TempDir& dir) {
  SupervisorConfig cfg = base_config();
  cfg.work_dir = dir.path.string();
  return cfg;
}

std::uint32_t file_crc(const std::filesystem::path& p) {
  const std::vector<std::uint8_t> bytes = util::read_file(p);
  return serve::net::crc32(bytes.data(), bytes.size());
}

TEST(SupervisorDeploy, CompilesEachRungOncePerFleet) {
  TempDir dir;
  ClusterRouter router(std::vector<std::shared_ptr<serve::cluster::Board>>{},
                       migrating_cluster());
  {
    Supervisor sup(config_in(dir), router);
    WorkerSpec spec = tiny_worker();
    spec.ladder = {"4M", "2M"};
    const int a = sup.add_worker(spec);
    const auto files = dir.xmodels();
    ASSERT_EQ(files.size(), 2u);
    std::vector<std::filesystem::file_time_type> written;
    for (const auto& f : files) {
      written.push_back(std::filesystem::last_write_time(f));
    }

    const int b = sup.add_worker(spec);  // same ladder: no second compile
    ASSERT_EQ(dir.xmodels().size(), 2u);
    for (std::size_t i = 0; i < files.size(); ++i) {
      EXPECT_EQ(std::filesystem::last_write_time(files[i]), written[i]);
    }

    // Each worker's hello names, rung by rung, the bytes on disk.
    const std::vector<std::uint32_t> expected = {
        file_crc(dir.xmodel_for("4M")), file_crc(dir.xmodel_for("2M"))};
    EXPECT_EQ(sup.worker_board(a)->model_digests(), expected);
    EXPECT_EQ(sup.worker_board(b)->model_digests(), expected);
    sup.stop();
  }
  // The files live and die with their Supervisor.
  EXPECT_TRUE(dir.xmodels().empty());
  router.shutdown();
}

TEST(SupervisorDeploy, RestartLoadsTheSameFileAndServesReferenceBytes) {
  TempDir dir;
  ClusterRouter router(std::vector<std::shared_ptr<serve::cluster::Board>>{},
                       migrating_cluster());
  Supervisor sup(config_in(dir), router);
  const int slot = sup.add_worker(tiny_worker());
  sup.start();
  ASSERT_EQ(dir.xmodels().size(), 1u);
  const std::filesystem::path file = dir.xmodels().front();
  const auto written = std::filesystem::last_write_time(file);

  const pid_t first_pid = sup.worker_pid(slot);
  ASSERT_GT(first_pid, 0);
  ::kill(first_pid, SIGKILL);
  ASSERT_TRUE(wait_until(20000.0, [&] {
    const pid_t pid = sup.worker_pid(slot);
    auto board = sup.worker_board(slot);
    return pid > 0 && pid != first_pid && board && !board->dead();
  })) << "worker was not restarted";
  EXPECT_EQ(dir.xmodels().size(), 1u);
  EXPECT_EQ(std::filesystem::last_write_time(file), written);

  // The restarted worker serves exactly what the INT8 reference executor
  // computes on the graph the file was compiled from.
  tensor::TensorI8 input(tensor::Shape{32, 32, 1});
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    input[i] = static_cast<std::int8_t>((i * 37) % 256 - 128);
  }
  const tensor::TensorI8 ref =
      core::build_timing_qgraph("2M", 32).forward(input);
  const serve::Response r =
      router.submit(serve::Priority::kInteractive, input, 0.0).get();
  ASSERT_EQ(r.status, serve::Status::kOk);
  ASSERT_EQ(r.output.shape(), ref.shape());
  for (std::int64_t i = 0; i < ref.numel(); ++i) {
    ASSERT_EQ(r.output[i], ref[i]) << "elem " << i;
  }
  sup.stop();
  router.shutdown();
}

TEST(SupervisorDeploy, ModelRefusedAtLoadIsNeverRespawned) {
  TempDir dir;
  ClusterRouter router(std::vector<std::shared_ptr<serve::cluster::Board>>{},
                       migrating_cluster());
  SupervisorConfig cfg = config_in(dir);
  cfg.restart_backoff_max_ms = 40.0;
  Supervisor sup(cfg, router);
  const int slot = sup.add_worker(tiny_worker());
  sup.start();
  const std::filesystem::path file = dir.xmodels().front();
  const std::vector<std::uint8_t> good = util::read_file(file);

  // Truncated, failing verification, then with a bad magic: boardd's load
  // gate refuses each, and add_worker reports a refusal, not a transient
  // spawn failure.
  util::write_file(file, good.data(), good.size() / 2);
  EXPECT_THROW(sup.add_worker(tiny_worker()), WorkerRefused);
  dpu::XModel mutant = dpu::XModel::deserialize(good);
  mutant.layers[static_cast<std::size_t>(mutant.output_layer)]
      .output_resident = true;
  mutant.save(file);
  EXPECT_THROW(sup.add_worker(tiny_worker()), WorkerRefused);
  std::vector<std::uint8_t> corrupt = good;
  corrupt[0] ^= 0xFF;
  util::write_file(file, corrupt.data(), corrupt.size());
  EXPECT_THROW(sup.add_worker(tiny_worker()), WorkerRefused);
  EXPECT_EQ(sup.num_workers(), 1u);

  // A crash while the file is bad: the restart is refused, and the slot is
  // given up rather than retried in the backoff loop, so restoring the
  // file later brings nothing back.
  ::kill(sup.worker_pid(slot), SIGKILL);
  ASSERT_TRUE(wait_until(20000.0, [&] { return sup.stats().refused == 1; }))
      << "the restart was not refused";
  util::write_file(file, good.data(), good.size());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_EQ(sup.worker_pid(slot), -1);
  EXPECT_EQ(sup.worker_board(slot), nullptr);
  EXPECT_EQ(sup.stats().restarts, 0u);
  EXPECT_EQ(router.num_boards(), 0u);
  sup.stop();
  router.shutdown();
}

/// A stand-in worker on loopback: sends `hello`, then reads until the
/// supervisor side hangs up (as RemoteBoardTest.HelloWithoutRungsIsRefused
/// builds its fake).
class FakeWorker {
 public:
  explicit FakeWorker(serve::net::WireHello hello)
      : listener_(serve::net::Listener::bind(serve::net::Endpoint{})) {
    thread_ = std::thread([this, hello = std::move(hello)] {
      try {
        serve::net::Socket s = listener_.accept(20000.0);
        s.write_frame(serve::net::FrameType::kHello, hello.encode(), 1000.0);
        for (;;) s.read_frame(5000.0);
      } catch (const std::exception&) {
        // The supervisor refused the hello and hung up.
      }
    });
  }
  ~FakeWorker() { thread_.join(); }
  const serve::net::Endpoint& endpoint() const {
    return listener_.local_endpoint();
  }

 private:
  serve::net::Listener listener_;
  std::thread thread_;
};

TEST(SupervisorDeploy, WorkerNamingOtherModelBytesIsRefused) {
  TempDir dir;
  serve::net::WireHello hello;
  hello.name = "stale";
  hello.queue_capacity = 16;
  hello.rungs.push_back({"2M", 0.005, 8.0, 0.04, 0x5A5A5A5Au});
  FakeWorker worker(hello);

  // The "boardd" the supervisor execs publishes the fake's endpoint, then
  // idles until the supervisor reaps it.
  const std::filesystem::path script = dir.path / "fake_boardd.sh";
  {
    std::ofstream out(script);
    out << "#!/bin/sh\n"
        << "while [ $# -gt 0 ]; do\n"
        << "  if [ \"$1\" = --endpoint-file ]; then\n"
        << "    echo '" << worker.endpoint().to_string()
        << "' > \"$2.tmp\" && mv \"$2.tmp\" \"$2\"\n"
        << "  fi\n"
        << "  shift\n"
        << "done\n"
        << "exec sleep 30\n";
  }
  ASSERT_EQ(::chmod(script.c_str(), 0755), 0);

  ClusterRouter router(std::vector<std::shared_ptr<serve::cluster::Board>>{},
                       migrating_cluster());
  SupervisorConfig cfg = config_in(dir);
  cfg.boardd_path = script.string();
  Supervisor sup(cfg, router);
  EXPECT_THROW(sup.add_worker(tiny_worker()), WorkerRefused);
  EXPECT_EQ(sup.num_workers(), 0u);
  EXPECT_EQ(router.num_boards(), 0u);
  sup.stop();
  router.shutdown();
}

TEST(SupervisorDeploy, CompilingARungTwiceGivesTheSameBytes) {
  for (const char* rung : {"4M", "2M"}) {
    const std::vector<std::uint8_t> a =
        core::build_timing_xmodel(rung, dpu::DpuArch::b4096(), 32).serialize();
    const std::vector<std::uint8_t> b =
        core::build_timing_xmodel(rung, dpu::DpuArch::b4096(), 32).serialize();
    EXPECT_EQ(a, b) << rung;
    // Canonical encoding: what a worker loads re-serializes to the same
    // bytes, so its hello digest can name the file.
    EXPECT_EQ(dpu::XModel::deserialize(a).serialize(), a) << rung;
  }
}

}  // namespace
