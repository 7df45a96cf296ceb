#pragma once
// BoardDaemon: the serving core of the seneca_boardd worker process. Wraps
// one BoardSim-backed InferenceServer behind a blocking SENECA-Wire accept
// loop:
//
//   router ──connect──▶ [accept] ──▶ kHello (rung costs + model digests)
//          ──kRequest──▶ submit_async ──(completion cb)──▶ kResponse
//          ──kHeartbeat─▶ kTelemetry (live stats + effective rung costs)
//          ──kControl───▶ evict_queued / fault on,off / shutdown
//          ──kGoodbye───▶ back to [accept] (worker survives detachment)
//
// One attached router at a time (a board has one upstream); responses are
// written from the server's completion threads, serialized by a per-
// connection write mutex. A dropped connection strands nothing: pending
// completions notice the dead connection and drop their writes, and the
// daemon returns to accept for the supervisor's reconnect.
//
// The class is embeddable (tests run it on a thread in-process, the
// seneca_boardd binary wraps it behind CLI flags + SIGTERM handling).

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/cluster/board.hpp"
#include "serve/net/frame.hpp"
#include "serve/net/socket.hpp"
#include "util/mutex.hpp"

namespace seneca::serve::net {

/// seneca_boardd's exit status when its load gate refuses a model: an
/// .xmodel that cannot be read or parsed, or one dpu::verify reports an
/// error finding in (sysexits' EX_DATAERR). The Supervisor treats it as
/// permanent: the same file would be refused again.
constexpr int kModelRefusedExit = 65;

struct BoardDaemonConfig {
  cluster::BoardConfig board;
  /// Endpoint to bind. tcp port 0 binds ephemeral; endpoint() reports the
  /// resolved port (the --endpoint-file handshake hinges on this).
  Endpoint listen;
  /// Per-frame write deadline towards the router.
  double io_timeout_ms = 2000.0;
  /// Cadence at which blocking accept/read wake up to check stop().
  double poll_ms = 200.0;
};

class BoardDaemon {
 public:
  /// Binds the listener and constructs the board; throws on either failing.
  explicit BoardDaemon(BoardDaemonConfig cfg);
  ~BoardDaemon();

  BoardDaemon(const BoardDaemon&) = delete;
  BoardDaemon& operator=(const BoardDaemon&) = delete;

  /// The bound endpoint (ephemeral tcp port resolved).
  const Endpoint& endpoint() const { return listener_.local_endpoint(); }

  /// Blocking accept/serve loop; returns after stop() (or a kShutdown
  /// control frame). Callable once.
  void run();

  /// Signal-safe request to exit run(): sets a flag the loops poll. The
  /// board itself shuts down when the daemon is destroyed.
  void stop() { stopping_.store(true, std::memory_order_release); }
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

  cluster::BoardSim& board() { return *board_; }

 private:
  /// One attached router connection; shared with in-flight completion
  /// callbacks, which outlive the connection when the router vanishes.
  struct Conn {
    Socket sock;
    util::Mutex write_mutex;
    std::atomic<bool> alive{true};
    double io_timeout_ms = 0.0;

    /// Serialized best-effort frame write; marks the connection dead on
    /// any transport error (completion callbacks then drop silently).
    void write(FrameType type, const std::vector<std::uint8_t>& payload);
  };

  void serve_connection(const std::shared_ptr<Conn>& conn);
  void handle_request(const std::shared_ptr<Conn>& conn, WireRequest wr);
  void handle_heartbeat(const std::shared_ptr<Conn>& conn,
                        const WireHeartbeat& hb);
  /// True = keep this connection; false = orderly detach (kGoodbye).
  bool handle_control(const std::shared_ptr<Conn>& conn,
                      const WireControl& ctl);
  std::vector<std::uint8_t> hello_payload() const;
  std::vector<std::uint8_t> telemetry_payload(std::uint64_t seq) const;

  BoardDaemonConfig cfg_;  // the ladder moves into board_ at construction
  Listener listener_;
  std::vector<std::uint32_t> digests_;  // CRC32 of each rung's XModel bytes
  std::unique_ptr<cluster::BoardSim> board_;
  std::atomic<bool> stopping_{false};
};

}  // namespace seneca::serve::net
