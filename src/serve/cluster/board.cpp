#include "serve/cluster/board.hpp"

#include <stdexcept>
#include <utility>

namespace seneca::serve::cluster {

std::future<Response> Board::submit(Priority priority, tensor::TensorI8 input,
                                    double deadline_ms, TenantId tenant) {
  auto promise = std::make_shared<std::promise<Response>>();
  auto future = promise->get_future();
  submit_async(priority, std::move(input), deadline_ms, tenant,
               [promise](Response r) { promise->set_value(std::move(r)); });
  return future;
}

BoardSim::BoardSim(int id, BoardConfig cfg)
    : Board(id, std::move(cfg.name)),
      rung_offset_(cfg.rung_offset),
      online_reprice_(cfg.online_reprice) {
  if (cfg.ladder.empty()) {
    throw std::invalid_argument("BoardSim: empty rung set");
  }
  costs_.reserve(cfg.ladder.size());
  for (std::size_t i = 0; i < cfg.ladder.size(); ++i) {
    const ModelSpec& spec = cfg.ladder[i];
    const auto e = platform::estimate_inference_energy(
        cfg.power, spec.model, spec.workers, cfg.sim_images);
    costs_.push_back(
        {spec.name, e.seconds_per_frame, e.watts, e.joules_per_frame});
    cost_by_model_.emplace(spec.name, i);
  }
  observed_.resize(costs_.size());
  queue_capacity_ = cfg.server.queue.capacity;
  // Chain the board's accounting in front of any caller-provided observer.
  ServerConfig server_cfg = cfg.server;
  auto outer = std::move(server_cfg.on_complete);
  server_cfg.on_complete = [this, outer](const Response& r) {
    on_complete(r);
    if (outer) outer(r);
  };
  server_ = std::make_unique<InferenceServer>(std::move(cfg.ladder),
                                              std::move(server_cfg));
}

void BoardSim::submit_async(Priority priority, tensor::TensorI8 input,
                            double deadline_ms, TenantId tenant,
                            DoneCallback on_done) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  server_->submit_async(priority, std::move(input), deadline_ms, tenant,
                        std::move(on_done));
}

std::uint64_t BoardSim::inflight() const {
  const std::uint64_t submitted = submitted_.load(std::memory_order_relaxed);
  const std::uint64_t completed = completed_.load(std::memory_order_relaxed);
  return submitted > completed ? submitted - completed : 0;
}

double BoardSim::ewma_latency_ms() const {
  util::LockGuard lock(accounting_mutex_);
  return ewma_latency_ms_;
}

RungCost BoardSim::rung_cost(int level) const {
  RungCost cost = costs_[static_cast<std::size_t>(level)];
  if (!online_reprice_) return cost;
  util::LockGuard lock(accounting_mutex_);
  const RungObserved& obs = observed_[static_cast<std::size_t>(level)];
  if (obs.samples == 0) return cost;  // nothing observed yet: DES estimate
  // Re-price throughput from the observed per-frame service time; keep the
  // power model's watts, so J/frame = watts * s/frame tracks the operating
  // point (a rung batching 4-deep serves frames ~4x cheaper than the DES
  // single-stream estimate assumed).
  cost.seconds_per_frame = obs.seconds_per_frame;
  cost.joules_per_frame = cost.watts * obs.seconds_per_frame;
  return cost;
}

RungObserved BoardSim::observed(int level) const {
  util::LockGuard lock(accounting_mutex_);
  return observed_[static_cast<std::size_t>(level)];
}

double BoardSim::energy_joules() const {
  util::LockGuard lock(accounting_mutex_);
  return energy_joules_;
}

double BoardSim::busy_seconds() const {
  util::LockGuard lock(accounting_mutex_);
  return busy_seconds_;
}

void BoardSim::on_complete(const Response& r) {
  // Every status is terminal for THIS board — even kMigrated means the
  // request left its queue for good (the router re-routes it as a fresh
  // submission elsewhere) — so all of them close the inflight window.
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (r.status != Status::kOk) return;
  frames_served_.fetch_add(1, std::memory_order_relaxed);
  const auto it = cost_by_model_.find(r.model_used);
  if (it == cost_by_model_.end()) return;  // foreign model label; unbilled
  const RungCost& cost = costs_[it->second];
  util::LockGuard lock(accounting_mutex_);
  constexpr double kAlpha = 0.2;
  ewma_latency_ms_ = ewma_latency_ms_ == 0.0
                         ? r.total_ms
                         : kAlpha * r.total_ms + (1.0 - kAlpha) * ewma_latency_ms_;
  // Billing stays on the DES-priced table: simulated energy/time keep
  // their construction-time meaning whether or not re-pricing is on.
  energy_joules_ += cost.joules_per_frame;
  busy_seconds_ += cost.seconds_per_frame;
  // Observed wall-clock cost of this frame: the whole batch took
  // service_ms, so one frame's share is service_ms / batch_size.
  RungObserved& obs = observed_[it->second];
  const double batch = r.batch_size > 0 ? static_cast<double>(r.batch_size) : 1.0;
  const double s_per_frame = (r.service_ms / batch) / 1e3;
  if (obs.samples == 0) {
    obs.seconds_per_frame = s_per_frame;
    obs.occupancy = batch;
  } else {
    obs.seconds_per_frame =
        kAlpha * s_per_frame + (1.0 - kAlpha) * obs.seconds_per_frame;
    obs.occupancy = kAlpha * batch + (1.0 - kAlpha) * obs.occupancy;
  }
  ++obs.samples;
}

}  // namespace seneca::serve::cluster
