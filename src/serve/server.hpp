#pragma once
// InferenceServer: the serving front-end over the VART-analog runtime.
//
//   clients --submit()--> AdmissionQueue --MicroBatcher--> scheduler thread
//                                                             |
//                                               degradation ladder pick
//                                                             |
//                                       VartRunner::run_batch of ladder[level]
//
// One server owns a degradation ladder of compiled models, largest (best
// quality) first — e.g. the paper's zoo 8M -> 4M -> 2M -> 1M — each with its
// own VartRunner worker pool. A single scheduler thread drains the
// interactive lane before the batch lane (AdmissionQueue pop order), forms
// micro-batches, and runs each batch to completion on the ladder rung
// selected by the overload controller. The admission queue is therefore the
// only queue between a request and a core, and its capacity and overload
// policy are the server's only backpressure. When queue depth or the
// sliding-window p99 of interactive latency crosses the high threshold the
// server steps down to a smaller/faster model (graceful degradation — §IV's
// quality/latency trade made at serving time); when load subsides it steps
// back up. Outputs are always bit-exact with the serving model's reference
// execution: the ladder changes *which* model runs, never how it runs.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dpu/xmodel.hpp"
#include "runtime/vart.hpp"
#include "serve/batcher.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"
#include "serve/tenant/tenant.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace seneca::serve {

struct ModelSpec {
  std::string name;   // zoo label, e.g. "4M"
  dpu::XModel model;  // compiled artifact (owned by the server)
  int workers = 2;    // VART worker threads for this rung
};

struct DegradeConfig {
  /// Step one rung down when queue depth reaches this at dispatch time.
  std::size_t queue_depth_high = 32;
  /// Step one rung up (recover) only when depth is back at or below this.
  std::size_t queue_depth_low = 4;
  /// Also step down when the sliding-window interactive p99 exceeds this
  /// (milliseconds); 0 disables the latency trigger.
  double p99_high_ms = 0.0;
  /// Sliding window length for the p99 trigger.
  std::size_t p99_window = 64;
  /// Minimum time between level changes (hysteresis).
  double min_dwell_ms = 20.0;
};

struct ServerConfig {
  QueueConfig queue;
  BatcherConfig batcher;
  DegradeConfig degrade;
  /// Optional multi-tenant registry: token-bucket admission, DRR weights,
  /// and per-tenant metrics. Null = single implicit tenant (kDefaultTenant),
  /// which preserves the pre-tenant behaviour exactly.
  std::shared_ptr<tenant::TenantRegistry> tenants;
  /// Whether THIS server consumes token buckets at submit. The cluster tier
  /// sets this false on its boards (the router is the front door and has
  /// already charged the bucket); standalone servers keep the default.
  bool tenant_throttle = true;
  /// Optional observer invoked (from the completing thread) just before a
  /// response's promise is fulfilled, whatever its status. Must be cheap
  /// and must not throw; used by the cluster tier for per-board inflight,
  /// latency, and energy accounting.
  std::function<void(const Response&)> on_complete;
};

class InferenceServer {
 public:
  /// `ladder` is ordered best-first; index 0 is the undegraded model.
  /// All ladder models must share one input shape.
  InferenceServer(std::vector<ModelSpec> ladder, ServerConfig cfg);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Thread-safe. `deadline_ms` is relative to now; <= 0 means no deadline.
  /// The future always resolves: kOk with an output, or kRejected/kExpired.
  /// An input whose shape differs from the ladder's input shape is
  /// kRejected at once, before it is queued.
  std::future<Response> submit(Priority priority, tensor::TensorI8 input,
                               double deadline_ms = 0.0) {
    return submit(priority, std::move(input), deadline_ms, kDefaultTenant);
  }

  /// Tenant-attributed submit: the request is charged against `tenant`'s
  /// token bucket (when this server throttles), dequeued under its DRR
  /// weight, and counted in its per-tenant metrics.
  std::future<Response> submit(Priority priority, tensor::TensorI8 input,
                               double deadline_ms, TenantId tenant);

  /// Invoked exactly once per request, from whichever thread completes it
  /// (scheduler, submit on rejection, evict_queued, shutdown). Must not
  /// call back into this server.
  using DoneCallback = std::function<void(Response)>;

  /// Callback-completing submit: like submit(), but delivers the Response
  /// to `on_done` instead of a future. This is the completion primitive the
  /// network tier builds on (boardd writes the response frame from the
  /// callback; no per-request waiter thread). Returns the request id.
  std::uint64_t submit_async(Priority priority, tensor::TensorI8 input,
                             double deadline_ms, TenantId tenant,
                             DoneCallback on_done);

  /// Drains every still-queued (never dispatched) request and completes it
  /// with Status::kMigrated so the cluster tier can re-route it to another
  /// board. In-flight batches are untouched. Returns how many migrated.
  std::size_t evict_queued();

  /// Stops admission, drains queued work, joins the scheduler. Idempotent;
  /// the destructor calls it.
  void shutdown();

  /// Snapshot including per-lane queue gauges; per-tenant entries are
  /// attached when this server fronts a TenantRegistry itself (boards
  /// behind a ClusterRouter leave tenant roll-up to the router).
  MetricsSnapshot metrics() const;
  QueueStats queue_stats() const { return queue_.stats(); }
  const std::shared_ptr<tenant::TenantRegistry>& tenants() const {
    return cfg_.tenants;
  }
  /// Current degradation rung (0 = full-quality model).
  int degrade_level() const {
    return level_.load(std::memory_order_relaxed);
  }
  std::size_t ladder_size() const { return ladder_.size(); }
  const std::string& model_name(int level) const {
    return ladder_[static_cast<std::size_t>(level)].name;
  }
  const dpu::XModel& model(int level) const {
    return ladder_[static_cast<std::size_t>(level)].model;
  }
  int workers(int level) const {
    return ladder_[static_cast<std::size_t>(level)].workers;
  }
  /// Direct access to a rung's runner (fault injection).
  runtime::VartRunner& runner(int level) {
    return *runners_[static_cast<std::size_t>(level)];
  }

 private:
  struct Pending {
    DoneCallback on_done;  // future-backed submits wrap a promise in one
    Clock::time_point submitted_at;
    TenantId tenant = kDefaultTenant;
  };

  void scheduler_loop();
  void update_level(Clock::time_point now, std::size_t depth);
  void complete_failed(const Request& r, Status status,
                       bool throttled = false);
  void publish_queue_gauges();
  std::optional<Pending> take_pending(std::uint64_t id);

  const std::vector<ModelSpec> ladder_;
  const ServerConfig cfg_;
  std::vector<std::unique_ptr<runtime::VartRunner>> runners_;

  AdmissionQueue queue_;
  ServeMetrics metrics_;

  util::Mutex pending_mutex_;
  std::unordered_map<std::uint64_t, Pending> pending_
      GUARDED_BY(pending_mutex_);
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> served_seq_{0};
  std::atomic<int> level_{0};
  std::atomic<bool> stopping_{false};

  // Scheduler-thread-only state for the latency trigger.
  std::deque<double> recent_interactive_ms_;
  Clock::time_point last_level_change_;

  std::thread scheduler_;
};

}  // namespace seneca::serve
