#pragma once
// RemoteBoard: a socket-attached seneca_boardd worker process presented to
// ClusterRouter through the same cluster::Board interface an in-process
// BoardSim implements — the router routes over TCP or Unix-domain sockets
// exactly as it does in-process.
//
// Threading model (per RemoteBoard):
//   caller threads  — submit_async: register the pending callback, write a
//                     kRequest frame (serialized by write_mutex_);
//   reader thread   — blocks in read_frame; dispatches kResponse frames to
//                     their pending callbacks and folds kTelemetry frames
//                     into the cached board view the router's load/health
//                     probes read;
//   heartbeat thread— writes a kHeartbeat every heartbeat_interval_ms; the
//                     worker answers each with a kTelemetry frame.
//
// Failure semantics: any transport or protocol error marks the board dead;
// every pending request completes with Status::kError (producing no result
// twice is impossible — none arrived), and fault_injected() turns true so
// health-driven routing drains around it. Telemetry staleness (miss_limit
// heartbeat intervals without a kTelemetry) also reads as faulted: a wedged
// worker drains like a dead one even while its TCP connection lingers.

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/cluster/board.hpp"
#include "serve/net/frame.hpp"
#include "serve/net/socket.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace seneca::serve::net {

struct RemoteBoardConfig {
  double connect_timeout_ms = 2000.0;
  /// Per-frame write deadline and hello-read deadline. Individual request
  /// *responses* have no read deadline of their own (the board may be
  /// legitimately backlogged); a wedged worker is detected by telemetry
  /// staleness instead.
  double io_timeout_ms = 2000.0;
  double heartbeat_interval_ms = 20.0;
  /// Telemetry older than miss_limit * heartbeat_interval_ms marks the
  /// board faulted (wedged-worker detection).
  int miss_limit = 5;
};

class RemoteBoard : public cluster::Board {
 public:
  using RungCost = cluster::RungCost;

  /// Connects and performs the hello handshake (blocking, bounded by
  /// connect_timeout_ms + io_timeout_ms). Throws NetError/FrameError.
  RemoteBoard(int id, const Endpoint& endpoint, RemoteBoardConfig cfg = {});
  ~RemoteBoard() override;

  // ---- cluster::Board ----
  void submit_async(Priority priority, tensor::TensorI8 input,
                    double deadline_ms, TenantId tenant,
                    DoneCallback on_done) override;
  std::size_t queue_depth() const override;
  std::uint64_t inflight() const override;
  int level() const override;
  double ewma_latency_ms() const override;
  RungCost rung_cost(int level) const override;
  std::size_t num_rungs() const override { return hello_costs_.size(); }
  int rung_offset() const override { return rung_offset_; }
  void inject_fault(bool on) override;
  bool fault_injected() const override;
  std::size_t queue_capacity() const override { return queue_capacity_; }
  std::size_t evict_queued() override;
  double energy_joules() const override;
  double busy_seconds() const override;
  std::uint64_t frames_served() const override;
  MetricsSnapshot metrics() const override;
  void shutdown() override;

  // ---- transport extras ----
  const Endpoint& endpoint() const { return endpoint_; }
  bool dead() const { return dead_.load(std::memory_order_acquire); }
  /// Synchronous probe: sends one heartbeat and waits for its telemetry.
  /// Returns false on timeout or dead transport. Gives tests and benches a
  /// deterministic "snapshot now" instead of racing the heartbeat cadence.
  bool refresh(double timeout_ms);

 private:
  struct Handshake {
    Socket sock;
    WireHello hello;
  };
  RemoteBoard(int id, const Endpoint& endpoint, RemoteBoardConfig cfg,
              Handshake hs);
  static Handshake connect_handshake(const Endpoint& endpoint,
                                     const RemoteBoardConfig& cfg);

  struct PendingRemote {
    DoneCallback done;
    TenantId tenant = kDefaultTenant;
    Clock::time_point submitted_at{};
  };

  void reader_loop();
  void heartbeat_loop();
  void on_response(const WireResponse& wr);
  void on_telemetry(WireTelemetry wt);
  /// Marks dead and fails every pending request with kError. Idempotent.
  void mark_dead(const std::string& why);
  bool write_frame_checked(FrameType type,
                           const std::vector<std::uint8_t>& payload);
  bool telemetry_stale() const;

  const RemoteBoardConfig cfg_;
  const Endpoint endpoint_;
  std::vector<RungCost> hello_costs_;  // construction-time DES table
  std::size_t queue_capacity_ = 0;
  int rung_offset_ = 0;

  Socket sock_;
  util::Mutex write_mutex_;  // serializes all frame writes

  mutable util::Mutex pending_mutex_;
  std::unordered_map<std::uint64_t, PendingRemote> pending_
      GUARDED_BY(pending_mutex_);
  std::atomic<std::uint64_t> next_corr_{1};

  mutable util::Mutex telemetry_mutex_;
  util::CondVar telemetry_cv_;
  WireTelemetry telemetry_ GUARDED_BY(telemetry_mutex_);
  Clock::time_point telemetry_at_ GUARDED_BY(telemetry_mutex_){};
  bool has_telemetry_ GUARDED_BY(telemetry_mutex_) = false;

  std::atomic<std::uint64_t> heartbeat_seq_{0};
  std::atomic<bool> dead_{false};
  std::atomic<bool> stopping_{false};
  util::Mutex shutdown_mutex_;  // serializes shutdown's thread joins

  std::thread reader_;
  std::thread heartbeater_;
};

}  // namespace seneca::serve::net
