#pragma once
// ClusterRouter: the sharded serving tier in front of N boards.
//
//   clients --submit()--> Router --policy.pick(BoardState[])--> Board[i]
//                                                                  |
//                                                 in-process BoardSim, or
//                                            net::RemoteBoard -> seneca_boardd
//
// Boards implement the transport-neutral Board interface, so the router
// routes identically over in-process simulated boards and socket-attached
// worker processes. Two topologies, built with the helpers below:
//   replicate_ladder  — every board hosts the full degradation ladder; the
//                       policy only picks the board, each board's own
//                       hysteretic controller picks the rung.
//   partition_ladder  — the ladder is split into contiguous rung slices,
//                       one slice per board; picking a board then *is*
//                       picking a rung band (energy-aware routing sends
//                       deadline-feasible traffic to the cheapest band).
//
// Health-driven drain: before every pick the router assesses each board
// (fault injection and admission-queue saturation — see health.hpp) and
// policies route around unhealthy boards, so a sick board drains to its
// peers while its queued work finishes locally.
//
// Cross-board migration (opt-in, MigrationConfig::enable): the router keeps
// a copy of each request's input and its client callback. When a board
// completes a request with kMigrated (evicted from its admission queue
// before dispatch) or kError (dead transport / failed batch — no result was
// produced), the router re-routes the stored input to another board,
// deadline permitting and up to max_hops times. Double execution is
// impossible for kMigrated (the request never dispatched) and harmless for
// kError (the first attempt produced no result; inference is stateless).
// The client callback fires exactly once either way. A monitor thread
// evicts the queues of faulted boards so their backlog migrates without
// waiting for a client-visible failure.

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/cluster/board.hpp"
#include "serve/cluster/health.hpp"
#include "serve/cluster/policy.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace seneca::serve::cluster {

struct MigrationConfig {
  /// Master switch. Off preserves the PR-3 behaviour: board failures
  /// surface to clients as kMigrated-free kRejected/kError statuses.
  bool enable = false;
  /// Maximum re-routes per request; beyond this the request completes with
  /// kRejected (kMigrated never reaches a client).
  int max_hops = 3;
  /// Health-monitor period. The monitor evicts the queues of FAULTED
  /// boards (not merely saturated ones — that would thrash) so queued work
  /// migrates promptly. <= 0 disables the monitor thread; eviction then
  /// only happens via Supervisor/remove_board/explicit evict_queued.
  double monitor_interval_ms = 5.0;
};

struct ClusterConfig {
  PolicyKind policy = PolicyKind::kRoundRobin;
  HealthPolicy health;
  MigrationConfig migrate;
  /// Optional shared tenant registry: the router becomes the tenant front
  /// door (token buckets charged once, here) and every board's server is
  /// wired to the same registry with throttling off, so DRR fair dequeue
  /// and per-tenant latency attribution still happen per board while the
  /// cluster-wide roll-up stays single-counted.
  std::shared_ptr<tenant::TenantRegistry> tenants;
};

/// Cluster-wide roll-up. Timing and energy are *simulated* quantities from
/// the boards' rung cost tables (the DES is the timing authority, not the
/// dev host's wall clock): boards run in parallel, so cluster busy time is
/// the max over boards and simulated FPS = frames / max busy seconds, while
/// energy adds up and FPS/W = frames / total joules.
struct ClusterSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  std::uint64_t errors = 0;
  std::uint64_t degraded = 0;
  /// Requests evicted still-queued from board admission queues (board view).
  std::uint64_t migrated = 0;
  /// Successful router re-routes of migrated/errored requests.
  std::uint64_t migrations = 0;
  double energy_joules = 0.0;
  double busy_seconds_max = 0.0;
  double simulated_fps = 0.0;
  double fps_per_watt = 0.0;
  std::vector<MetricsSnapshot> boards;
  /// Cluster-wide per-tenant accounting (present when the router runs with
  /// a TenantRegistry).
  std::vector<TenantSnapshot> tenants;

  std::string format() const;
};

class ClusterRouter {
 public:
  /// In-process fleet: constructs one BoardSim per config.
  ClusterRouter(std::vector<BoardConfig> boards, ClusterConfig cfg);
  /// Pre-built fleet (e.g. net::RemoteBoard instances from a Supervisor).
  /// May be empty: boards can join later via add_board.
  ClusterRouter(std::vector<std::shared_ptr<Board>> boards, ClusterConfig cfg);
  ~ClusterRouter();

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  /// Thread-safe. Routes per the configured policy; the future always
  /// resolves (same contract as InferenceServer::submit).
  std::future<Response> submit(Priority priority, tensor::TensorI8 input,
                               double deadline_ms = 0.0) {
    return submit(priority, std::move(input), deadline_ms, kDefaultTenant);
  }

  /// Tenant-attributed submit: charges `tenant`'s token bucket at the
  /// router (the front door), then routes to a board, which dequeues under
  /// the tenant's DRR weight.
  std::future<Response> submit(Priority priority, tensor::TensorI8 input,
                               double deadline_ms, TenantId tenant);

  /// Callback-completing submit; the cluster-level completion primitive.
  void submit_async(Priority priority, tensor::TensorI8 input,
                    double deadline_ms, TenantId tenant,
                    Board::DoneCallback on_done);

  /// Joins a board to the live fleet (no drain of existing traffic).
  void add_board(std::shared_ptr<Board> board);
  /// Leaves a board: detaches it from routing, evicts its queue so queued
  /// work migrates (when migration is enabled), and returns it — NOT shut
  /// down, the caller owns teardown. Returns nullptr for an unknown id.
  std::shared_ptr<Board> remove_board(int id);

  std::size_t num_boards() const;
  /// Position-indexed access (stable while no add/remove is concurrent).
  Board& board(std::size_t i);
  const Board& board(std::size_t i) const;
  const RoutingPolicy& policy() const { return *policy_; }

  /// Per-board states as the policy would see them right now.
  std::vector<BoardState> states() const;
  ClusterSnapshot snapshot() const;

  /// Stops the monitor and every board; idempotent, called by the
  /// destructor.
  void shutdown();

 private:
  /// One client request's routing context, owned by the completion chain.
  /// `input` is only populated when migration is enabled.
  struct RouteTask {
    Priority priority = Priority::kBatch;
    TenantId tenant = kDefaultTenant;
    double deadline_ms = 0.0;  // original relative budget (for re-submits)
    Clock::time_point deadline = Clock::time_point::max();
    tensor::TensorI8 input;  // migration copy
    int hops = 0;
    int last_board = -1;  // Board::id of the previous attempt
    Board::DoneCallback done;
  };

  void route(RouteTask task);
  void on_board_done(RouteTask task, Response resp);
  std::vector<std::shared_ptr<Board>> boards_snapshot() const;
  void monitor_loop();

  ClusterConfig cfg_;
  mutable util::Mutex boards_mutex_;
  std::vector<std::shared_ptr<Board>> boards_ GUARDED_BY(boards_mutex_);
  std::unique_ptr<RoutingPolicy> policy_;
  std::atomic<std::uint64_t> migrations_{0};
  std::atomic<bool> stopping_{false};
  std::thread monitor_;
};

/// Every board hosts the full ladder (replication). Board i is named
/// "<prefix>i".
std::vector<BoardConfig> replicate_ladder(
    const std::vector<ModelSpec>& ladder, int boards,
    const ServerConfig& server, const platform::ZcuPowerModel& power = {},
    const std::string& prefix = "board");

/// Contiguous rung slices, one per board (partitioning): board 0 gets the
/// best rungs, the last board the cheapest. Requires boards <= ladder size.
std::vector<BoardConfig> partition_ladder(
    const std::vector<ModelSpec>& ladder, int boards,
    const ServerConfig& server, const platform::ZcuPowerModel& power = {},
    const std::string& prefix = "board");

}  // namespace seneca::serve::cluster
