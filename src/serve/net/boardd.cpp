#include "serve/net/boardd.hpp"

#include <utility>

namespace seneca::serve::net {

void BoardDaemon::Conn::write(FrameType type,
                              const std::vector<std::uint8_t>& payload) {
  if (!alive.load(std::memory_order_acquire)) return;
  try {
    util::LockGuard lock(write_mutex);
    sock.write_frame(type, payload, io_timeout_ms);
  } catch (const NetError&) {
    // Router gone (or wedged past the write deadline): drop this and every
    // later write on the connection; the accept loop takes over.
    alive.store(false, std::memory_order_release);
  }
}

BoardDaemon::BoardDaemon(BoardDaemonConfig cfg)
    : cfg_(std::move(cfg)), listener_(Listener::bind(cfg_.listen)) {
  board_ = std::make_unique<cluster::BoardSim>(0, cfg_.board);
}

BoardDaemon::~BoardDaemon() {
  stop();
  board_->shutdown();
}

std::vector<std::uint8_t> BoardDaemon::hello_payload() const {
  WireHello hello;
  hello.name = board_->name();
  hello.rung_offset = board_->rung_offset();
  hello.queue_capacity = board_->queue_capacity();
  for (const auto& c : board_->priced_costs()) {
    hello.rungs.push_back(
        {c.model, c.seconds_per_frame, c.watts, c.joules_per_frame});
  }
  return hello.encode();
}

std::vector<std::uint8_t> BoardDaemon::telemetry_payload(
    std::uint64_t seq) const {
  const MetricsSnapshot m = board_->metrics();
  WireTelemetry t;
  t.seq = seq;
  t.submitted = m.submitted;
  t.served = m.served;
  t.rejected = m.rejected;
  t.expired = m.expired;
  t.errors = m.errors;
  t.degraded = m.degraded;
  t.migrated = m.migrated;
  t.queue_depth = static_cast<std::uint32_t>(board_->queue_depth());
  t.level = board_->level();
  t.fault = board_->fault_injected();
  t.ewma_latency_ms = board_->ewma_latency_ms();
  t.frames_served = board_->frames_served();
  t.energy_joules = board_->energy_joules();
  t.busy_seconds = board_->busy_seconds();
  for (std::size_t i = 0; i < board_->num_rungs(); ++i) {
    // rung_cost() is the board's EFFECTIVE cost view — online-repriced
    // when BoardConfig::online_reprice is set — which is exactly what the
    // router's energy-aware policy should route on.
    const cluster::RungCost c = board_->rung_cost(static_cast<int>(i));
    const cluster::RungObserved o = board_->observed(static_cast<int>(i));
    t.rungs.push_back({c.seconds_per_frame, c.joules_per_frame, o.occupancy});
  }
  return t.encode();
}

void BoardDaemon::handle_request(const std::shared_ptr<Conn>& conn,
                                 WireRequest wr) {
  const std::uint64_t corr = wr.corr_id;
  board_->submit_async(
      wr.priority, std::move(wr.input), wr.deadline_rel_ms, wr.tenant,
      [conn, corr](Response resp) {
        WireResponse out;
        out.corr_id = corr;
        out.status = resp.status;
        out.degraded = resp.degraded;
        out.batch_size = resp.batch_size;
        out.served_seq = resp.served_seq;
        out.queue_ms = resp.queue_ms;
        out.service_ms = resp.service_ms;
        out.total_ms = resp.total_ms;
        out.model_used = resp.model_used;
        if (resp.status == Status::kOk) {
          out.has_output = true;
          out.output = std::move(resp.output);
        }
        conn->write(FrameType::kResponse, out.encode());
      });
}

void BoardDaemon::handle_heartbeat(const std::shared_ptr<Conn>& conn,
                                   const WireHeartbeat& hb) {
  conn->write(FrameType::kTelemetry, telemetry_payload(hb.seq));
}

bool BoardDaemon::handle_control(const std::shared_ptr<Conn>& conn,
                                 const WireControl& ctl) {
  switch (ctl.op) {
    case WireControl::Op::kEvictQueued:
      // Evicted requests complete with kMigrated through the same
      // completion path as served ones — they stream back as kResponse
      // frames for the router to re-route.
      board_->evict_queued();
      return true;
    case WireControl::Op::kFaultOn:
      board_->inject_fault(true);
      return true;
    case WireControl::Op::kFaultOff:
      board_->inject_fault(false);
      return true;
    case WireControl::Op::kShutdown:
      conn->write(FrameType::kGoodbye, {});
      stop();
      return false;
  }
  return true;
}

void BoardDaemon::serve_connection(const std::shared_ptr<Conn>& conn) {
  conn->write(FrameType::kHello, hello_payload());
  while (!stopping() && conn->alive.load(std::memory_order_acquire)) {
    Frame f;
    try {
      f = conn->sock.read_frame(cfg_.poll_ms);
    } catch (const NetError& e) {
      if (e.kind() == NetError::Kind::kTimeout) continue;  // stop-flag poll
      return;  // router closed or transport died: back to accept
    } catch (const FrameError&) {
      // Mid-frame corruption from the one peer we have: the stream offset
      // is unrecoverable, drop the connection.
      return;
    }
    try {
      switch (f.type) {
        case FrameType::kRequest:
          handle_request(conn, WireRequest::decode(f.payload));
          break;
        case FrameType::kHeartbeat:
          handle_heartbeat(conn, WireHeartbeat::decode(f.payload));
          break;
        case FrameType::kControl:
          if (!handle_control(conn, WireControl::decode(f.payload))) return;
          break;
        case FrameType::kGoodbye:
          return;  // orderly detach; worker survives
        default:
          break;  // valid frame, wrong direction; ignore
      }
    } catch (const FrameError&) {
      return;  // malformed payload: drop the connection, never the process
    }
  }
}

void BoardDaemon::run() {
  while (!stopping()) {
    Socket sock;
    try {
      sock = listener_.accept(cfg_.poll_ms);
    } catch (const NetError& e) {
      if (e.kind() == NetError::Kind::kTimeout) continue;  // stop-flag poll
      if (stopping()) return;
      continue;  // transient accept failure (e.g. EMFILE); keep serving
    }
    auto conn = std::make_shared<Conn>();
    conn->sock = std::move(sock);
    conn->io_timeout_ms = cfg_.io_timeout_ms;
    serve_connection(conn);
    conn->alive.store(false, std::memory_order_release);
  }
}

}  // namespace seneca::serve::net
