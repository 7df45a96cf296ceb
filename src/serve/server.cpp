#include "serve/server.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/timer.hpp"

namespace seneca::serve {

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

InferenceServer::InferenceServer(std::vector<ModelSpec> ladder,
                                 ServerConfig cfg)
    : ladder_(std::move(ladder)), cfg_(cfg), queue_(cfg.queue) {
  if (ladder_.empty()) {
    throw std::invalid_argument("InferenceServer: empty model ladder");
  }
  for (const auto& spec : ladder_) {
    if (!(spec.model.input_shape == ladder_.front().model.input_shape)) {
      throw std::invalid_argument(
          "InferenceServer: ladder models must share one input shape");
    }
  }
  runners_.reserve(ladder_.size());
  for (const auto& spec : ladder_) {
    runners_.push_back(
        std::make_unique<runtime::VartRunner>(spec.model, spec.workers));
  }
  last_level_change_ = Clock::now();
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

InferenceServer::~InferenceServer() { shutdown(); }

std::future<Response> InferenceServer::submit(Priority priority,
                                              tensor::TensorI8 input,
                                              double deadline_ms,
                                              TenantId tenant) {
  auto promise = std::make_shared<std::promise<Response>>();
  auto future = promise->get_future();
  submit_async(priority, std::move(input), deadline_ms, tenant,
               [promise](Response resp) { promise->set_value(std::move(resp)); });
  return future;
}

std::uint64_t InferenceServer::submit_async(Priority priority,
                                            tensor::TensorI8 input,
                                            double deadline_ms, TenantId tenant,
                                            DoneCallback on_done) {
  const auto now = Clock::now();
  tenant::TenantRegistry* registry = cfg_.tenants.get();
  Request r;
  r.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  r.priority = priority;
  r.tenant = tenant;
  r.weight = registry != nullptr ? registry->weight(tenant) : 1;
  r.input = std::move(input);
  if (deadline_ms > 0.0) {
    r.deadline = now + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(deadline_ms));
  }

  {
    util::LockGuard lock(pending_mutex_);
    pending_.emplace(r.id, Pending{std::move(on_done), now, tenant});
  }
  metrics_.on_submitted();
  // The front door (the layer that throttles) owns per-tenant submit and
  // throttle counts; boards behind a router skip them so cluster traffic is
  // not double-counted in the shared registry.
  if (registry != nullptr && cfg_.tenant_throttle) {
    registry->on_submitted(tenant);
  }

  const std::uint64_t id = r.id;
  if (stopping_.load(std::memory_order_acquire)) {
    complete_failed(r, Status::kRejected);
    return id;
  }

  // A wrong-shaped frame would fail in the core and take its whole batch
  // down with kError; turn it away at the door instead.
  if (r.input.shape() != ladder_.front().model.input_shape) {
    complete_failed(r, Status::kRejected);
    return id;
  }

  // Token-bucket admission happens before the request can occupy queue
  // capacity: an out-of-budget tenant is rejected at the door.
  if (registry != nullptr && cfg_.tenant_throttle &&
      !registry->try_admit(tenant, now)) {
    complete_failed(r, Status::kRejected, /*throttled=*/true);
    return id;
  }

  auto result = queue_.push(std::move(r), now);
  if (result.admitted) {
    metrics_.on_admitted();
  }
  for (const auto& victim : result.rejected) {
    complete_failed(victim, Status::kRejected);
  }
  for (const auto& victim : result.expired) {
    complete_failed(victim, Status::kExpired);
  }
  publish_queue_gauges();
  return id;
}

std::size_t InferenceServer::evict_queued() {
  std::vector<Request> evicted = queue_.evict_all();
  const auto now = Clock::now();
  for (Request& r : evicted) {
    auto pending = take_pending(r.id);
    if (!pending) continue;
    metrics_.on_migrated();
    // No tenant outcome accounting here: the migrated request's terminal
    // status is attributed wherever the router lands it next.
    Response resp;
    resp.id = r.id;
    resp.tenant = r.tenant;
    resp.status = Status::kMigrated;
    resp.total_ms = ms_between(pending->submitted_at, now);
    if (cfg_.on_complete) cfg_.on_complete(resp);
    pending->on_done(std::move(resp));
  }
  publish_queue_gauges();
  return evicted.size();
}

void InferenceServer::publish_queue_gauges() {
  const QueueStats qs = queue_.stats();
  metrics_.set_queue_depth(qs.depth);
  metrics_.set_lane_depths(qs.depth_interactive, qs.depth_batch);
}

std::optional<InferenceServer::Pending> InferenceServer::take_pending(
    std::uint64_t id) {
  util::LockGuard lock(pending_mutex_);
  auto it = pending_.find(id);
  if (it == pending_.end()) return std::nullopt;
  Pending p = std::move(it->second);
  pending_.erase(it);
  return p;
}

void InferenceServer::complete_failed(const Request& r, Status status,
                                      bool throttled) {
  auto pending = take_pending(r.id);
  if (!pending) return;  // already completed elsewhere; nothing to count
  tenant::TenantRegistry* registry = cfg_.tenants.get();
  if (status == Status::kExpired) {
    metrics_.on_expired();
    if (registry != nullptr) registry->on_expired(r.tenant);
  } else if (status == Status::kError) {
    metrics_.on_error();
    if (registry != nullptr) registry->on_error(r.tenant);
  } else {
    metrics_.on_rejected();
    if (registry != nullptr) {
      if (throttled) {
        registry->on_throttled(r.tenant);
      } else {
        registry->on_rejected(r.tenant);
      }
    }
  }
  Response resp;
  resp.id = r.id;
  resp.tenant = r.tenant;
  resp.status = status;
  resp.total_ms = ms_between(pending->submitted_at, Clock::now());
  if (cfg_.on_complete) cfg_.on_complete(resp);
  pending->on_done(std::move(resp));
}

void InferenceServer::update_level(Clock::time_point now, std::size_t depth) {
  int level = level_.load(std::memory_order_relaxed);
  const auto& d = cfg_.degrade;
  if (ms_between(last_level_change_, now) < d.min_dwell_ms) return;

  double window_p99 = 0.0;
  if (d.p99_high_ms > 0.0 && !recent_interactive_ms_.empty()) {
    // Ceil-based nearest rank: a floor-based index under-reads the tail so
    // badly at small window sizes (n = 2 yields the minimum) that the
    // latency trigger fired late or never.
    window_p99 = nearest_rank_quantile(
        {recent_interactive_ms_.begin(), recent_interactive_ms_.end()}, 0.99);
  }

  const bool overloaded =
      depth >= d.queue_depth_high ||
      (d.p99_high_ms > 0.0 && window_p99 > d.p99_high_ms);
  const bool calm = depth <= d.queue_depth_low &&
                    (d.p99_high_ms <= 0.0 || window_p99 < 0.5 * d.p99_high_ms);

  if (overloaded && level + 1 < static_cast<int>(ladder_.size())) {
    ++level;
  } else if (calm && level > 0) {
    --level;
  } else {
    return;
  }
  last_level_change_ = now;
  level_.store(level, std::memory_order_relaxed);
}

void InferenceServer::scheduler_loop() {
  MicroBatcher batcher(queue_, cfg_.batcher);
  for (;;) {
    std::vector<Request> batch = batcher.next_batch();
    if (batch.empty()) break;  // queue closed and drained

    const auto dispatch_at = Clock::now();
    // Backlog as seen by this dispatch cycle: what is still queued plus
    // what was just popped into the batch. Sampling after the pop alone
    // would systematically understate pressure by one batch.
    const QueueStats qs = queue_.stats();
    const std::size_t backlog = qs.depth + batch.size();
    metrics_.set_queue_depth(backlog);
    metrics_.set_lane_depths(qs.depth_interactive, qs.depth_batch);

    std::vector<Request> live;
    live.reserve(batch.size());
    for (auto& r : batch) {
      if (r.expired(dispatch_at)) {
        complete_failed(r, Status::kExpired);
      } else {
        live.push_back(std::move(r));
      }
    }
    if (live.empty()) continue;

    update_level(dispatch_at, backlog);
    const int level = level_.load(std::memory_order_relaxed);
    auto& runner = *runners_[static_cast<std::size_t>(level)];

    std::vector<tensor::TensorI8> inputs;
    inputs.reserve(live.size());
    for (auto& r : live) inputs.push_back(std::move(r.input));

    util::Timer service_timer;
    std::vector<tensor::TensorI8> outputs;
    try {
      outputs = runner.run_batch(inputs);
    } catch (...) {
      // A dispatch fault (injected or real) must not escape the scheduler
      // thread: that terminates the process and strands every pending
      // promise. Fail only this batch and keep serving.
      for (const Request& r : live) complete_failed(r, Status::kError);
      continue;
    }
    const double service_ms = service_timer.millis();
    const auto done_at = Clock::now();

    for (std::size_t i = 0; i < live.size(); ++i) {
      const Request& r = live[i];
      auto pending = take_pending(r.id);
      if (!pending) continue;
      Response resp;
      resp.id = r.id;
      resp.tenant = r.tenant;
      resp.status = Status::kOk;
      resp.output = std::move(outputs[i]);
      resp.model_used = ladder_[static_cast<std::size_t>(level)].name;
      resp.degraded = level > 0;
      resp.queue_ms = ms_between(r.admitted_at, dispatch_at);
      resp.service_ms = service_ms;
      resp.total_ms = ms_between(pending->submitted_at, done_at);
      resp.served_seq = served_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
      resp.batch_size = static_cast<std::uint32_t>(live.size());
      metrics_.on_served(r.priority, resp.total_ms, resp.degraded);
      if (cfg_.tenants != nullptr) {
        cfg_.tenants->on_served(r.tenant, resp.total_ms, resp.degraded);
      }
      if (r.priority == Priority::kInteractive) {
        recent_interactive_ms_.push_back(resp.total_ms);
        while (recent_interactive_ms_.size() > cfg_.degrade.p99_window) {
          recent_interactive_ms_.pop_front();
        }
      }
      if (cfg_.on_complete) cfg_.on_complete(resp);
      pending->on_done(std::move(resp));
    }
  }
}

void InferenceServer::shutdown() {
  stopping_.store(true, std::memory_order_release);
  queue_.close();
  if (scheduler_.joinable()) scheduler_.join();

  // Safety net: fail any promise that somehow never reached the scheduler.
  std::vector<std::pair<std::uint64_t, Pending>> leftovers;
  {
    util::LockGuard lock(pending_mutex_);
    for (auto& [id, pending] : pending_) {
      leftovers.emplace_back(id, std::move(pending));
    }
    pending_.clear();
  }
  for (auto& [id, pending] : leftovers) {
    Response resp;
    resp.id = id;
    resp.tenant = pending.tenant;
    resp.status = Status::kRejected;
    resp.total_ms = ms_between(pending.submitted_at, Clock::now());
    metrics_.on_rejected();
    if (cfg_.tenants != nullptr) cfg_.tenants->on_rejected(pending.tenant);
    if (cfg_.on_complete) cfg_.on_complete(resp);
    pending.on_done(std::move(resp));
  }
}

MetricsSnapshot InferenceServer::metrics() const {
  MetricsSnapshot s = metrics_.snapshot();
  const QueueStats qs = queue_.stats();
  s.queue_depth_interactive = qs.depth_interactive;
  s.queue_depth_batch = qs.depth_batch;
  s.queue_high_water_interactive = std::max(s.queue_high_water_interactive,
                                            qs.high_water_interactive);
  s.queue_high_water_batch =
      std::max(s.queue_high_water_batch, qs.high_water_batch);
  if (cfg_.tenants != nullptr && cfg_.tenant_throttle) {
    s.tenants = cfg_.tenants->snapshot();
  }
  return s;
}

}  // namespace seneca::serve
