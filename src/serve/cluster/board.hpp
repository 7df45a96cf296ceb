#pragma once
// The board abstraction of the sharded serving tier, in two layers:
//
//   Board     — the transport-neutral interface ClusterRouter routes over:
//               async submit, load signals (queue depth, inflight, EWMA
//               latency, per-rung cost table), health inputs (fault, queue
//               capacity), migration (evict_queued) and simulated
//               energy/time accounting. An in-process simulated board and a
//               socket-attached worker process (net::RemoteBoard) implement
//               the same interface, so the router cannot tell them apart.
//
//   BoardSim  — one simulated ZCU104 board. Wraps a per-board
//               InferenceServer (its rung set, admission queue, and
//               hysteretic degradation) and adds:
//   - a per-rung cost table (seconds/frame, watts, J/frame) priced once at
//     construction through platform::estimate_inference_energy, so the
//     router can compare boards by estimated J/frame (the paper's FPS/W
//     framing, Table IV) instead of queue depth alone;
//   - optional ONLINE RE-PRICING: an EWMA of observed per-frame service
//     time and batch occupancy per rung, folded into the cost table the
//     router sees (rung_cost()), so energy-aware routing tracks the real
//     operating point instead of the construction-time DES estimate. The
//     DES table remains the billing authority for energy_joules() /
//     busy_seconds(): simulated FPS and FPS/W keep their meaning.
//   - cheap load signals: queue depth, inflight (submitted minus completed,
//     fed by the server's on_complete hook), and an EWMA of served latency;
//   - health inputs: operator fault injection; admission-queue saturation
//     is read from queue_depth() against queue_capacity();
//   - simulated energy/time accounting: every served frame is billed the
//     J/frame and seconds/frame of the rung that actually served it, which
//     is what cluster-level FPS/W and simulated-FPS aggregate from.
//
// A board hosting the full ladder is a replica; a board hosting a slice of
// it is a rung partition (BoardConfig::rung_offset records where the slice
// starts in the global ladder).

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "platform/power.hpp"
#include "serve/server.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace seneca::serve::cluster {

struct BoardConfig {
  std::string name = "zcu104";
  std::vector<ModelSpec> ladder;  // rungs hosted; the full ladder = replica
  ServerConfig server;
  int rung_offset = 0;  // global ladder index of ladder[0] (partition mode)
  platform::ZcuPowerModel power;
  int sim_images = 48;  // DES frames per rung when pricing the cost table
  /// Fold observed service time / occupancy into the routing-view cost
  /// table (rung_cost()). Off by default: the construction-time DES table
  /// is deterministic, which most tests and benches rely on.
  bool online_reprice = false;
};

/// Steady-state cost of serving one frame on a given rung of this board.
struct RungCost {
  std::string model;               // zoo label of the rung
  double seconds_per_frame = 0.0;  // simulated inverse throughput
  double watts = 0.0;              // mean wall power at that operating point
  double joules_per_frame = 0.0;   // watts / fps — the routing currency
};

/// Observed (telemetry) view of one rung: wall-clock EWMAs that online
/// re-pricing folds into rung_cost(). samples == 0 means "never served".
struct RungObserved {
  double seconds_per_frame = 0.0;  // EWMA of service_ms / batch_size
  double occupancy = 0.0;          // EWMA batch size at this rung
  std::uint64_t samples = 0;
};

/// Transport-neutral board interface. Thread-safe like InferenceServer:
/// submit_async and every probe may be called from any thread.
class Board {
 public:
  Board(int id, std::string name) : id_(id), name_(std::move(name)) {}
  virtual ~Board() = default;

  Board(const Board&) = delete;
  Board& operator=(const Board&) = delete;

  int id() const { return id_; }
  const std::string& name() const { return name_; }

  using DoneCallback = InferenceServer::DoneCallback;

  /// Completion primitive; `on_done` fires exactly once, from whichever
  /// thread completes the request. Same contract as
  /// InferenceServer::submit_async.
  virtual void submit_async(Priority priority, tensor::TensorI8 input,
                            double deadline_ms, TenantId tenant,
                            DoneCallback on_done) = 0;

  /// Future-returning convenience over submit_async.
  std::future<Response> submit(Priority priority, tensor::TensorI8 input,
                               double deadline_ms = 0.0,
                               TenantId tenant = kDefaultTenant);

  // ---- load signals for the router ----
  virtual std::size_t queue_depth() const = 0;
  /// Requests admitted to this board not yet completed.
  virtual std::uint64_t inflight() const = 0;
  /// Current degradation rung (index into this board's own ladder).
  virtual int level() const = 0;
  virtual double ewma_latency_ms() const = 0;
  /// Routing-view cost of one frame at `level` (online-repriced when the
  /// board tracks observed costs). By value: remote boards synthesize it
  /// from telemetry.
  virtual RungCost rung_cost(int level) const = 0;
  virtual std::size_t num_rungs() const = 0;
  virtual int rung_offset() const = 0;

  // ---- health inputs ----
  virtual void inject_fault(bool on) = 0;
  /// Fault-injected, or (remote boards) dead/stale transport.
  virtual bool fault_injected() const = 0;
  virtual std::size_t queue_capacity() const = 0;

  // ---- migration ----
  /// Completes every still-queued (never dispatched) request with
  /// Status::kMigrated so the router can re-route it. For remote boards the
  /// eviction is asynchronous: responses stream back as kMigrated frames
  /// and the returned count is 0.
  virtual std::size_t evict_queued() = 0;

  // ---- simulated accounting over served frames ----
  virtual double energy_joules() const = 0;
  virtual double busy_seconds() const = 0;
  virtual std::uint64_t frames_served() const = 0;

  virtual MetricsSnapshot metrics() const = 0;
  /// Stops the board; idempotent. Outstanding requests complete first
  /// (in-process) or fail with kError (remote, transport torn down).
  virtual void shutdown() = 0;

 private:
  const int id_;
  const std::string name_;
};

class BoardSim : public Board {
 public:
  BoardSim(int id, BoardConfig cfg);

  void submit_async(Priority priority, tensor::TensorI8 input,
                    double deadline_ms, TenantId tenant,
                    DoneCallback on_done) override;

  // ---- load signals for the router ----
  std::size_t queue_depth() const override {
    return server_->queue_stats().depth;
  }
  std::uint64_t inflight() const override;
  int level() const override { return server_->degrade_level(); }
  double ewma_latency_ms() const override;
  RungCost rung_cost(int level) const override;
  /// Construction-time DES-priced table (never repriced; the billing and
  /// telemetry-hello authority).
  const std::vector<RungCost>& priced_costs() const { return costs_; }
  RungObserved observed(int level) const;
  std::size_t num_rungs() const override { return costs_.size(); }
  int rung_offset() const override { return rung_offset_; }

  // ---- health inputs ----
  void inject_fault(bool on) override {
    fault_.store(on, std::memory_order_relaxed);
  }
  bool fault_injected() const override {
    return fault_.load(std::memory_order_relaxed);
  }
  std::size_t queue_capacity() const override { return queue_capacity_; }

  std::size_t evict_queued() override { return server_->evict_queued(); }

  // ---- simulated accounting over served frames ----
  double energy_joules() const override;
  double busy_seconds() const override;
  std::uint64_t frames_served() const override {
    return frames_served_.load(std::memory_order_relaxed);
  }

  MetricsSnapshot metrics() const override { return server_->metrics(); }
  QueueStats queue_stats() const { return server_->queue_stats(); }
  InferenceServer& server() { return *server_; }
  void shutdown() override { server_->shutdown(); }

 private:
  void on_complete(const Response& r);

  const int rung_offset_;
  const bool online_reprice_;
  std::vector<RungCost> costs_;
  std::unordered_map<std::string, std::size_t> cost_by_model_;
  std::size_t queue_capacity_ = 0;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> frames_served_{0};
  std::atomic<bool> fault_{false};

  mutable util::Mutex accounting_mutex_;
  // EWMA alpha = 0.2 over served total_ms.
  double ewma_latency_ms_ GUARDED_BY(accounting_mutex_) = 0.0;
  double energy_joules_ GUARDED_BY(accounting_mutex_) = 0.0;
  double busy_seconds_ GUARDED_BY(accounting_mutex_) = 0.0;
  // Per-rung observed wall-clock costs (EWMA alpha = 0.2), the online
  // re-pricing inputs. Tracked even when re-pricing is off so telemetry
  // can always report occupancy.
  std::vector<RungObserved> observed_ GUARDED_BY(accounting_mutex_);

  std::unique_ptr<InferenceServer> server_;  // constructed last
};

}  // namespace seneca::serve::cluster
