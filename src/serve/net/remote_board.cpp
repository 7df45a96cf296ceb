#include "serve/net/remote_board.hpp"

#include <chrono>
#include <utility>

namespace seneca::serve::net {

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

RemoteBoard::Handshake RemoteBoard::connect_handshake(
    const Endpoint& endpoint, const RemoteBoardConfig& cfg) {
  Handshake hs;
  hs.sock = Socket::connect(endpoint, cfg.connect_timeout_ms);
  Frame f = hs.sock.read_frame(cfg.io_timeout_ms);
  if (f.type != FrameType::kHello) {
    throw FrameError("RemoteBoard: expected kHello, got " +
                     std::string(to_string(f.type)));
  }
  hs.hello = WireHello::decode(f.payload);
  return hs;
}

RemoteBoard::RemoteBoard(int id, const Endpoint& endpoint,
                         RemoteBoardConfig cfg)
    : RemoteBoard(id, endpoint, cfg, connect_handshake(endpoint, cfg)) {}

RemoteBoard::RemoteBoard(int id, const Endpoint& endpoint,
                         RemoteBoardConfig cfg, Handshake hs)
    : Board(id, hs.hello.name),
      cfg_(cfg),
      endpoint_(endpoint),
      queue_capacity_(static_cast<std::size_t>(hs.hello.queue_capacity)),
      rung_offset_(hs.hello.rung_offset),
      sock_(std::move(hs.sock)) {
  hello_costs_.reserve(hs.hello.rungs.size());
  for (const auto& r : hs.hello.rungs) {
    hello_costs_.push_back(
        {r.model, r.seconds_per_frame, r.watts, r.joules_per_frame});
    model_digests_.push_back(r.digest);
  }
  {
    // The staleness clock starts at connect: a worker that never answers a
    // single heartbeat turns faulted after miss_limit intervals.
    util::LockGuard lock(telemetry_mutex_);
    telemetry_at_ = Clock::now();
  }
  reader_ = std::thread([this] { reader_loop(); });
  heartbeater_ = std::thread([this] { heartbeat_loop(); });
}

RemoteBoard::~RemoteBoard() { shutdown(); }

bool RemoteBoard::write_frame_checked(
    FrameType type, const std::vector<std::uint8_t>& payload) {
  if (dead()) return false;
  try {
    util::LockGuard lock(write_mutex_);
    sock_.write_frame(type, payload, cfg_.io_timeout_ms);
    return true;
  } catch (const NetError& e) {
    mark_dead(e.what());
    return false;
  }
}

void RemoteBoard::submit_async(Priority priority, tensor::TensorI8 input,
                               double deadline_ms, TenantId tenant,
                               DoneCallback on_done) {
  const auto now = Clock::now();
  const std::uint64_t corr =
      next_corr_.fetch_add(1, std::memory_order_relaxed);
  const auto fail_now = [&](DoneCallback done) {
    Response resp;
    resp.id = corr;
    resp.tenant = tenant;
    resp.status = Status::kError;
    done(std::move(resp));
  };
  if (dead()) {
    fail_now(std::move(on_done));
    return;
  }
  {
    util::LockGuard lock(pending_mutex_);
    pending_.emplace(corr, PendingRemote{std::move(on_done), tenant, now});
  }
  WireRequest wr;
  wr.corr_id = corr;
  wr.priority = priority;
  wr.tenant = tenant;
  wr.deadline_rel_ms = deadline_ms > 0.0 ? deadline_ms : 0.0;
  wr.input = std::move(input);
  if (!write_frame_checked(FrameType::kRequest, wr.encode())) {
    // mark_dead (inside the failed write) usually fails the pending entry
    // already; reclaim it only if we won the race.
    PendingRemote mine;
    bool have = false;
    {
      util::LockGuard lock(pending_mutex_);
      auto it = pending_.find(corr);
      if (it != pending_.end()) {
        mine = std::move(it->second);
        pending_.erase(it);
        have = true;
      }
    }
    if (have) fail_now(std::move(mine.done));
  }
}

void RemoteBoard::reader_loop() {
  while (!stopping_.load(std::memory_order_acquire) && !dead()) {
    Frame f;
    try {
      // Wake at heartbeat cadence to re-check the stop flag; actual frame
      // gaps are normal (an idle board only talks when beaten).
      f = sock_.read_frame(cfg_.heartbeat_interval_ms);
    } catch (const NetError& e) {
      if (e.kind() == NetError::Kind::kTimeout) continue;
      mark_dead(e.what());
      return;
    } catch (const FrameError& e) {
      // Protocol corruption: nothing downstream of this byte can be
      // trusted, so the connection is done.
      mark_dead(e.what());
      return;
    }
    try {
      switch (f.type) {
        case FrameType::kResponse:
          on_response(WireResponse::decode(f.payload));
          break;
        case FrameType::kTelemetry:
          on_telemetry(WireTelemetry::decode(f.payload));
          break;
        case FrameType::kGoodbye:
          mark_dead("worker said goodbye");
          return;
        default:
          // Unexpected-but-valid frame type for this direction; ignore.
          break;
      }
    } catch (const FrameError& e) {
      mark_dead(e.what());
      return;
    }
  }
}

void RemoteBoard::heartbeat_loop() {
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(cfg_.heartbeat_interval_ms));
  while (!stopping_.load(std::memory_order_acquire) && !dead()) {
    WireHeartbeat hb;
    hb.seq = heartbeat_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (!write_frame_checked(FrameType::kHeartbeat, hb.encode())) return;
    std::this_thread::sleep_for(interval);
  }
}

void RemoteBoard::on_response(WireResponse wr) {
  PendingRemote pending;
  {
    util::LockGuard lock(pending_mutex_);
    auto it = pending_.find(wr.corr_id);
    if (it == pending_.end()) return;  // duplicate or post-death response
    pending = std::move(it->second);
    pending_.erase(it);
  }
  Response resp;
  resp.id = wr.corr_id;
  resp.tenant = pending.tenant;
  resp.status = wr.status;
  resp.degraded = wr.degraded;
  resp.batch_size = wr.batch_size;
  resp.served_seq = wr.served_seq;
  resp.queue_ms = wr.queue_ms;
  resp.service_ms = wr.service_ms;
  resp.model_used = std::move(wr.model_used);
  if (wr.has_output) resp.output = std::move(wr.output);
  // Client-visible total includes the wire: measured here, not on the
  // worker (the worker's own total_ms rides in wr.total_ms if anyone wants
  // the board-local view).
  resp.total_ms = ms_between(pending.submitted_at, Clock::now());
  pending.done(std::move(resp));
}

void RemoteBoard::on_telemetry(WireTelemetry wt) {
  // The level indexes the hello's rung table (rung_cost); a worker naming a
  // rung it never announced breaks the protocol, so it is never stored.
  if (wt.level < 0 ||
      static_cast<std::size_t>(wt.level) >= hello_costs_.size()) {
    mark_dead("telemetry: level " + std::to_string(wt.level) +
              " outside the hello's rung table");
    return;
  }
  {
    util::LockGuard lock(telemetry_mutex_);
    telemetry_ = std::move(wt);
    telemetry_at_ = Clock::now();
    has_telemetry_ = true;
  }
  telemetry_cv_.notify_all();
}

void RemoteBoard::mark_dead(const std::string&) {
  if (dead_.exchange(true, std::memory_order_acq_rel)) return;
  std::vector<PendingRemote> orphans;
  {
    util::LockGuard lock(pending_mutex_);
    orphans.reserve(pending_.size());
    for (auto& [corr, p] : pending_) orphans.push_back(std::move(p));
    pending_.clear();
  }
  for (auto& p : orphans) {
    Response resp;
    resp.tenant = p.tenant;
    resp.status = Status::kError;
    resp.total_ms = ms_between(p.submitted_at, Clock::now());
    p.done(std::move(resp));
  }
  telemetry_cv_.notify_all();
}

bool RemoteBoard::telemetry_stale() const {
  util::LockGuard lock(telemetry_mutex_);
  const double age_ms = ms_between(telemetry_at_, Clock::now());
  return age_ms >
         cfg_.heartbeat_interval_ms * static_cast<double>(cfg_.miss_limit);
}

bool RemoteBoard::refresh(double timeout_ms) {
  if (dead()) return false;
  WireHeartbeat hb;
  hb.seq = heartbeat_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!write_frame_checked(FrameType::kHeartbeat, hb.encode())) return false;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(timeout_ms));
  util::LockGuard lock(telemetry_mutex_);
  telemetry_cv_.wait_until(lock, deadline, [this, &hb]() REQUIRES(telemetry_mutex_) {
    return (has_telemetry_ && telemetry_.seq >= hb.seq) ||
           dead_.load(std::memory_order_acquire);
  });
  return has_telemetry_ && telemetry_.seq >= hb.seq;
}

std::size_t RemoteBoard::queue_depth() const {
  util::LockGuard lock(telemetry_mutex_);
  return telemetry_.queue_depth;
}

std::uint64_t RemoteBoard::inflight() const {
  util::LockGuard lock(pending_mutex_);
  return pending_.size();
}

int RemoteBoard::level() const {
  util::LockGuard lock(telemetry_mutex_);
  return telemetry_.level;
}

double RemoteBoard::ewma_latency_ms() const {
  util::LockGuard lock(telemetry_mutex_);
  return telemetry_.ewma_latency_ms;
}

RemoteBoard::RungCost RemoteBoard::rung_cost(int level) const {
  RungCost cost = hello_costs_[static_cast<std::size_t>(level)];
  util::LockGuard lock(telemetry_mutex_);
  // Telemetry carries the worker's *effective* per-rung costs (DES table
  // or online-repriced, per the worker's config) — prefer them once seen.
  const auto idx = static_cast<std::size_t>(level);
  if (has_telemetry_ && idx < telemetry_.rungs.size()) {
    cost.seconds_per_frame = telemetry_.rungs[idx].seconds_per_frame;
    cost.joules_per_frame = telemetry_.rungs[idx].joules_per_frame;
  }
  return cost;
}

void RemoteBoard::inject_fault(bool on) {
  WireControl ctl;
  ctl.op = on ? WireControl::Op::kFaultOn : WireControl::Op::kFaultOff;
  write_frame_checked(FrameType::kControl, ctl.encode());
}

bool RemoteBoard::fault_injected() const {
  if (dead()) return true;
  if (telemetry_stale()) return true;
  util::LockGuard lock(telemetry_mutex_);
  return telemetry_.fault;
}

std::size_t RemoteBoard::evict_queued() {
  WireControl ctl;
  ctl.op = WireControl::Op::kEvictQueued;
  write_frame_checked(FrameType::kControl, ctl.encode());
  return 0;  // eviction responses stream back asynchronously as kMigrated
}

double RemoteBoard::energy_joules() const {
  util::LockGuard lock(telemetry_mutex_);
  return telemetry_.energy_joules;
}

double RemoteBoard::busy_seconds() const {
  util::LockGuard lock(telemetry_mutex_);
  return telemetry_.busy_seconds;
}

std::uint64_t RemoteBoard::frames_served() const {
  util::LockGuard lock(telemetry_mutex_);
  return telemetry_.frames_served;
}

MetricsSnapshot RemoteBoard::metrics() const {
  util::LockGuard lock(telemetry_mutex_);
  MetricsSnapshot s;
  s.submitted = telemetry_.submitted;
  s.served = telemetry_.served;
  s.rejected = telemetry_.rejected;
  s.expired = telemetry_.expired;
  s.errors = telemetry_.errors;
  s.degraded = telemetry_.degraded;
  s.migrated = telemetry_.migrated;
  s.queue_depth = telemetry_.queue_depth;
  return s;
}

void RemoteBoard::shutdown() {
  // Serialized: concurrent shutdowns must not race the thread joins.
  util::LockGuard lock(shutdown_mutex_);
  if (!stopping_.exchange(true, std::memory_order_acq_rel)) {
    // Best-effort orderly close; the worker survives (it goes back to its
    // accept loop), only this attachment ends.
    write_frame_checked(FrameType::kGoodbye, {});
    sock_.shutdown_rw();
  }
  if (reader_.joinable()) reader_.join();
  if (heartbeater_.joinable()) heartbeater_.join();
  mark_dead("shutdown");
  sock_.close();
}

}  // namespace seneca::serve::net
