// SENECA-Wire gate bench: proves the distributed serving tier keeps the
// in-process cluster's throughput and its fault story once real processes
// and real sockets sit between the router and the boards.
//
// Three acts, same ladder ("4M","2M" at --input resolution) everywhere:
//   inproc — N-board in-process ClusterRouter (BoardSims), closed-loop
//            episode: the simulated-FPS baseline;
//   wire   — the same fleet as N seneca_boardd worker processes on
//            loopback TCP, spawned by a Supervisor and routed to through
//            RemoteBoards; the gate is
//              wire sim-FPS >= --min-ratio x inproc sim-FPS;
//   chaos  — on the live wire fleet: SIGKILL one worker mid-traffic.
//            Every future must resolve, no kMigrated/kExpired may leak to
//            clients, the cluster must report zero expired, and the
//            supervisor must restart the dead worker (bounded wait). The
//            act reports restart_ms, crash-to-ready: from the SIGKILL to
//            the first 1 ms poll that sees the slot with a new pid and a
//            live board (-1 on timeout). It is a reading, not a gate.
//
// Simulated FPS is DES-priced board time (the ZCU104s under simulation),
// so the ratio measures what the wire costs the serving pipeline —
// batching opportunity, pacing — not host scheduling noise.
//
//   ./cluster_wire [--boards 4] [--clients 6] [--requests 240]
//                  [--input 32] [--workers 2] [--min-ratio 0.8]
//                  [--json cluster_wire.json] [--strict]
//
// --strict exits nonzero unless the ratio gate AND every chaos invariant
// hold. SENECA_BOARDD_PATH is injected by CMake from the build tree.

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/workflow.hpp"
#include "eval/table.hpp"
#include "serve/cluster/router.hpp"
#include "serve/net/supervisor.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace seneca;
using serve::cluster::ClusterConfig;
using serve::cluster::ClusterRouter;
using serve::net::Supervisor;
using serve::net::SupervisorConfig;
using serve::net::WorkerSpec;

constexpr const char* kLadder[] = {"4M", "2M"};

/// Mirrors seneca_boardd's server config so the in-process baseline and the
/// worker processes run identical queue/batcher/degrade policies.
serve::ServerConfig boardd_server_config(std::size_t capacity) {
  serve::ServerConfig cfg;
  cfg.queue.capacity = capacity;
  cfg.batcher.max_batch_size = 4;
  cfg.batcher.max_wait_ms = 15.0;
  cfg.batcher.interactive_max_wait_ms = 0.0;
  cfg.batcher.interactive_max_batch_size = 1;
  cfg.degrade.queue_depth_high = 6;
  cfg.degrade.queue_depth_low = 2;
  cfg.degrade.min_dwell_ms = 25.0;
  return cfg;
}

ClusterConfig cluster_config() {
  ClusterConfig cfg;
  cfg.policy = serve::cluster::PolicyKind::kJoinShortestQueue;
  cfg.migrate.enable = true;
  cfg.migrate.monitor_interval_ms = 5.0;
  return cfg;
}

struct EpisodeResult {
  int ok = 0;
  int rejected = 0;
  int errors = 0;
  int leaked = 0;  // kMigrated or kExpired seen by a client: must stay 0
  double wall_s = 0.0;
};

/// Closed loop: `clients` threads share `requests` submissions (3:1
/// interactive:batch, all deadline-free so nothing can legitimately
/// expire), each pacing on its own previous future.
EpisodeResult run_episode(ClusterRouter& router, int clients, int requests,
                          std::int64_t input) {
  std::atomic<int> next{0};
  std::mutex result_mutex;
  EpisodeResult out;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> fleet;
  fleet.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      util::Rng rng(static_cast<std::uint64_t>(c) + 1);
      tensor::TensorI8 in(tensor::Shape{input, input, 1});
      for (auto& v : in) {
        v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
      }
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= requests) return;
        const serve::Priority lane = i % 4 == 3
                                         ? serve::Priority::kBatch
                                         : serve::Priority::kInteractive;
        const serve::Response r = router.submit(lane, in, 0.0).get();
        std::lock_guard lock(result_mutex);
        switch (r.status) {
          case serve::Status::kOk: ++out.ok; break;
          case serve::Status::kRejected: ++out.rejected; break;
          case serve::Status::kMigrated:
          case serve::Status::kExpired: ++out.leaked; break;
          default: ++out.errors; break;
        }
      }
    });
  }
  for (auto& t : fleet) t.join();
  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

/// Milliseconds from `t0` to the first 1 ms poll at which `pred` holds;
/// -1 once `timeout_ms` has passed without it.
double ms_until(std::chrono::steady_clock::time_point t0, double timeout_ms,
                const std::function<bool()>& pred) {
  for (;;) {
    const bool hit = pred();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (hit) return ms;
    if (ms >= timeout_ms) return -1.0;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const int boards = static_cast<int>(cli.get_int("boards", 4));
  const int clients = static_cast<int>(cli.get_int("clients", 6));
  const int requests = static_cast<int>(cli.get_int("requests", 240));
  const std::int64_t input = cli.get_int("input", 32);
  const int workers = static_cast<int>(cli.get_int("workers", 2));
  const double min_ratio = cli.get_double("min-ratio", 0.8);
  const std::string json_path = cli.get("json", "");
  const bool strict = cli.get_bool("strict", false);

  bench::print_banner(
      "cluster_wire",
      "Distributed serving gate: loopback-TCP boardd fleet vs the "
      "in-process cluster, plus SIGKILL/restart/migration under load.");

  // ---- act 1: in-process baseline -------------------------------------
  std::printf("building ladder:");
  std::vector<serve::ModelSpec> ladder;
  for (const char* name : kLadder) {
    std::printf(" %s", name);
    std::fflush(stdout);
    ladder.push_back(
        {name, core::build_timing_xmodel(name, dpu::DpuArch::b4096(), input),
         workers});
  }
  std::printf(" done\n");

  EpisodeResult inproc;
  serve::cluster::ClusterSnapshot inproc_snap;
  {
    ClusterRouter router(
        serve::cluster::replicate_ladder(
            ladder, boards,
            boardd_server_config(/*capacity=*/32)),
        cluster_config());
    inproc = run_episode(router, clients, requests, input);
    inproc_snap = router.snapshot();
    router.shutdown();
  }
  std::printf("inproc: %d boards, %.1f sim-FPS, %d/%d ok (%.2f s wall)\n",
              boards, inproc_snap.simulated_fps, inproc.ok, requests,
              inproc.wall_s);

  // ---- act 2: the same fleet over loopback TCP ------------------------
  SupervisorConfig scfg;
  scfg.boardd_path = SENECA_BOARDD_PATH;
  scfg.remote.heartbeat_interval_ms = 10.0;
  scfg.restart_backoff_initial_ms = 50.0;
  scfg.poll_interval_ms = 5.0;

  ClusterRouter router(std::vector<std::shared_ptr<serve::cluster::Board>>{},
                       cluster_config());
  Supervisor sup(scfg, router);
  std::vector<int> slots;
  std::printf("spawning %d seneca_boardd workers on loopback TCP...\n",
              boards);
  for (int b = 0; b < boards; ++b) {
    WorkerSpec spec;
    spec.ladder.assign(std::begin(kLadder), std::end(kLadder));
    spec.input = static_cast<int>(input);
    spec.workers = workers;
    spec.queue_capacity = 32;
    spec.name = "wire" + std::to_string(b);
    slots.push_back(sup.add_worker(spec));
  }
  sup.start();

  const EpisodeResult wire = run_episode(router, clients, requests, input);
  // Force one synchronous telemetry round so the snapshot reflects the
  // whole episode rather than the last heartbeat cadence tick.
  for (const int slot : slots) {
    if (auto board = sup.worker_board(slot)) board->refresh(2000.0);
  }
  const serve::cluster::ClusterSnapshot wire_snap = router.snapshot();
  const double ratio = inproc_snap.simulated_fps > 0.0
                           ? wire_snap.simulated_fps / inproc_snap.simulated_fps
                           : 0.0;
  std::printf(
      "wire:   %d boardd procs, %.1f sim-FPS, %d/%d ok (%.2f s wall) -> "
      "%.2fx inproc\n",
      boards, wire_snap.simulated_fps, wire.ok, requests, wire.wall_s, ratio);

  // ---- act 3: chaos on the live wire fleet ----------------------------
  const int victim = slots.front();
  const pid_t victim_pid = sup.worker_pid(victim);
  std::vector<std::future<serve::Response>> futs;
  futs.reserve(static_cast<std::size_t>(requests));
  const int half = requests / 2;
  tensor::TensorI8 chaos_in(tensor::Shape{input, input, 1});
  for (auto& v : chaos_in) v = 3;
  for (int i = 0; i < half; ++i) {
    futs.push_back(
        router.submit(serve::Priority::kBatch, chaos_in, 0.0));
  }
  std::printf("chaos:  SIGKILL worker slot %d (pid %d) mid-traffic\n", victim,
              static_cast<int>(victim_pid));
  const auto killed_at = std::chrono::steady_clock::now();
  ::kill(victim_pid, SIGKILL);
  // Crash-to-ready is polled beside the traffic, not after it drains.
  std::future<double> restart = std::async(std::launch::async, [&] {
    return ms_until(killed_at, 20000.0, [&] {
      const pid_t pid = sup.worker_pid(victim);
      auto board = sup.worker_board(victim);
      return pid > 0 && pid != victim_pid && board && !board->dead();
    });
  });
  for (int i = half; i < requests; ++i) {
    futs.push_back(
        router.submit(serve::Priority::kBatch, chaos_in, 0.0));
  }

  EpisodeResult chaos;
  for (auto& f : futs) {
    const serve::Response r = f.get();  // every future must resolve
    switch (r.status) {
      case serve::Status::kOk: ++chaos.ok; break;
      case serve::Status::kRejected: ++chaos.rejected; break;
      case serve::Status::kMigrated:
      case serve::Status::kExpired: ++chaos.leaked; break;
      default: ++chaos.errors; break;
    }
  }
  const double restart_ms = restart.get();
  const bool restarted = restart_ms >= 0.0;
  const serve::cluster::ClusterSnapshot chaos_snap = router.snapshot();
  sup.stop();
  router.shutdown();

  // "Zero lost non-expired requests": every submit resolved terminally,
  // kMigrated/kExpired never reached a client, nothing expired cluster-wide
  // (all traffic was deadline-free), and the survivors kept serving.
  const bool chaos_ok = chaos.leaked == 0 && chaos.ok > 0 &&
                        chaos.ok + chaos.rejected + chaos.errors == requests &&
                        chaos_snap.expired == 0 && restarted;
  std::printf(
      "chaos:  %d ok, %d rejected, %d errors, %d leaked; expired=%llu, "
      "migrations=%llu, restart %s, restart_ms=%.1f\n",
      chaos.ok, chaos.rejected, chaos.errors, chaos.leaked,
      static_cast<unsigned long long>(chaos_snap.expired),
      static_cast<unsigned long long>(chaos_snap.migrations),
      restarted ? "ok" : "TIMED OUT", restart_ms);

  eval::Table table({"Act", "Boards", "sim FPS", "FPS/W", "OK", "Rejected",
                     "Errors", "Wall s"});
  const auto add_act = [&](const char* act, const EpisodeResult& e,
                           const serve::cluster::ClusterSnapshot& s) {
    table.add_row({act, std::to_string(boards),
                   eval::Table::num(s.simulated_fps, 1),
                   eval::Table::num(s.fps_per_watt, 2), std::to_string(e.ok),
                   std::to_string(e.rejected), std::to_string(e.errors),
                   eval::Table::num(e.wall_s, 2)});
  };
  add_act("inproc", inproc, inproc_snap);
  add_act("wire", wire, wire_snap);
  add_act("chaos", chaos, chaos_snap);
  std::printf("%s\n", table.render().c_str());

  const bool ratio_ok = ratio >= min_ratio;
  const bool pass = ratio_ok && chaos_ok;
  std::printf("wire/inproc sim-FPS ratio: %.2f (gate >= %.2f) -> %s\n", ratio,
              min_ratio, ratio_ok ? "PASS" : "FAIL");
  std::printf("cluster_wire check: %s\n", pass ? "PASS" : "FAIL");

  bench::JsonWriter json;
  json.obj()
      .field("act", "inproc")
      .field("sim_fps", inproc_snap.simulated_fps)
      .field("fps_per_w", inproc_snap.fps_per_watt)
      .field("ok", inproc.ok)
      .field("wall_s", inproc.wall_s);
  json.obj()
      .field("act", "wire")
      .field("sim_fps", wire_snap.simulated_fps)
      .field("fps_per_w", wire_snap.fps_per_watt)
      .field("ok", wire.ok)
      .field("wall_s", wire.wall_s)
      .field("ratio", ratio)
      .field("min_ratio", min_ratio)
      .field("ratio_ok", ratio_ok);
  json.obj()
      .field("act", "chaos")
      .field("ok", chaos.ok)
      .field("rejected", chaos.rejected)
      .field("errors", chaos.errors)
      .field("leaked", chaos.leaked)
      .field("expired", static_cast<std::uint64_t>(chaos_snap.expired))
      .field("migrations", static_cast<std::uint64_t>(chaos_snap.migrations))
      .field("restarted", restarted)
      .field("restart_ms", restart_ms)
      .field("chaos_ok", chaos_ok);
  bench::write_json_file(json_path, json.str());
  return strict && !pass ? 1 : 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "cluster_wire: %s\n", e.what());
  return 1;
}
