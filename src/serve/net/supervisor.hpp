#pragma once
// Supervisor: the board babysitter. Forks/execs N seneca_boardd worker
// processes, attaches each to a ClusterRouter as a net::RemoteBoard, and
// keeps the fleet alive:
//
//   - compile: each distinct (rung, input) is compiled once, on the host,
//     into an .xmodel in work_dir, as VAI_C compiles for the board; every
//     worker spawned or restarted loads those files (--xmodel), and they
//     are deleted with the Supervisor;
//   - spawn: fork/exec seneca_boardd with an --endpoint-file handshake
//     (the worker binds an ephemeral port and writes its actual endpoint;
//     the supervisor polls the file, connects, and router.add_board()s the
//     RemoteBoard under a stable per-slot board id);
//   - monitor: a thread reaps children (waitpid WNOHANG) and watches each
//     RemoteBoard's transport health (dead connection, stale telemetry);
//   - restart: a crashed or wedged worker is detached from the router
//     (detaching + the dead transport fail its outstanding requests with
//     kError/kMigrated, which the router migrates to surviving boards),
//     then re-spawned with exponential backoff and re-attached under the
//     same slot id — join/leave without draining the fleet;
//   - leave/join: add_worker and remove_worker are callable any time while
//     traffic flows;
//   - refuse: a worker whose load gate rejects its files (exit status
//     kModelRefusedExit), or whose hello names model bytes other than the
//     files written here, is reaped and never restarted (WorkerRefused).
//
// The supervisor does not own the router (callers typically stack-allocate
// both); it must be stopped or destroyed before the router dies.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/cluster/router.hpp"
#include "serve/net/remote_board.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace seneca::serve::net {

/// What one worker process serves; rendered into seneca_boardd CLI flags.
struct WorkerSpec {
  std::vector<std::string> ladder = {"4M", "2M"};  // zoo rungs, best first
  int input = 32;             // model input resolution
  int workers = 2;            // VART worker threads per rung
  std::size_t queue_capacity = 32;
  int rung_offset = 0;        // partition mode: global index of ladder[0]
  bool online_reprice = false;
  std::string name;           // defaults to "worker<slot>"
};

/// A worker the Supervisor will not run: seneca_boardd refused its models
/// at load, or its hello named different model bytes. Thrown by add_worker;
/// the monitor stops restarting such a worker.
class WorkerRefused : public std::runtime_error {
 public:
  explicit WorkerRefused(const std::string& what) : std::runtime_error(what) {}
};

struct SupervisorConfig {
  /// Path to the seneca_boardd binary (tests/benches use the build tree's
  /// SENECA_BOARDD_PATH compile definition).
  std::string boardd_path;
  /// Directory for endpoint files, unix sockets and compiled .xmodel files.
  std::string work_dir = "/tmp";
  Endpoint::Kind transport = Endpoint::Kind::kTcp;
  /// How long a freshly spawned worker gets to bind + write its endpoint
  /// file (includes loading and verifying its .xmodel files).
  double spawn_timeout_ms = 30000.0;
  double restart_backoff_initial_ms = 100.0;
  double restart_backoff_max_ms = 2000.0;
  /// Monitor cadence; crash-to-restart latency is bounded by this plus the
  /// backoff plus the spawn time.
  double poll_interval_ms = 10.0;
  RemoteBoardConfig remote;
};

class Supervisor {
 public:
  Supervisor(SupervisorConfig cfg, cluster::ClusterRouter& router);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Compiles any rung of `spec` not yet compiled, spawns a worker, waits
  /// for its endpoint, connects, checks its model digests and attaches it
  /// to the router. Returns the slot id (also the RemoteBoard's board id).
  /// Throws WorkerRefused when the worker refuses its models or names other
  /// bytes, NetError/FrameError on spawn/connect failure.
  int add_worker(WorkerSpec spec);

  /// Orderly leave: detach from the router (queued work migrates), then
  /// SIGTERM the worker (boardd treats it as stop), escalating to SIGKILL.
  void remove_worker(int slot);

  /// Starts the monitor thread (restarts crashed workers). Idempotent.
  void start();
  /// Stops monitoring and tears down every worker. Idempotent; the
  /// destructor calls it.
  void stop();

  pid_t worker_pid(int slot) const;
  std::shared_ptr<RemoteBoard> worker_board(int slot) const;
  std::size_t num_workers() const;

  struct Stats {
    std::uint64_t restarts = 0;  // successful restart cycles
    std::size_t alive = 0;       // workers currently attached and healthy
    std::size_t refused = 0;     // workers the monitor gave up on for good
  };
  Stats stats() const;

 private:
  /// One compiled (rung, input): the file every worker serving it loads,
  /// and the CRC32 of its bytes, which the worker's hello must repeat.
  struct ModelFile {
    std::string path;
    std::uint32_t digest = 0;
  };

  struct Worker {
    int slot = -1;
    WorkerSpec spec;
    std::vector<ModelFile> models;  // spec.ladder's files, in ladder order
    pid_t pid = -1;
    int generation = 0;  // bumped per spawn; names endpoint files uniquely
    std::shared_ptr<RemoteBoard> board;
    bool want_alive = true;
    bool refused = false;
    double backoff_ms = 0.0;
    Clock::time_point next_attempt{};
    std::uint64_t restarts = 0;
  };

  /// The files for `spec`'s ladder, compiling each rung not yet compiled.
  std::vector<ModelFile> models_for(const WorkerSpec& spec);
  /// fork/exec + endpoint-file wait + connect + digest check. Fills
  /// pid/board; throws on failure (pid reaped).
  void spawn_locked(Worker& w) REQUIRES(workers_mutex_);
  pid_t exec_boardd(const Worker& w, const std::string& listen_spec,
                    const std::string& endpoint_file) const;
  std::string endpoint_file_for(const Worker& w) const;
  void monitor_loop();
  /// Detach a dead/wedged worker's board from the router and reap the
  /// process if it still runs.
  void detach_locked(Worker& w) REQUIRES(workers_mutex_);

  SupervisorConfig cfg_;
  cluster::ClusterRouter& router_;
  /// work_dir/seneca-boardd-<pid>-<n>: names this Supervisor's files apart
  /// from any other's in the same directory.
  std::string file_prefix_;

  /// Compiled files by (rung, input); held apart from workers_mutex_ so a
  /// compile never stalls the monitor.
  util::Mutex models_mutex_;
  std::map<std::pair<std::string, int>, ModelFile> models_
      GUARDED_BY(models_mutex_);

  mutable util::Mutex workers_mutex_;
  std::vector<std::unique_ptr<Worker>> workers_ GUARDED_BY(workers_mutex_);
  int next_slot_ GUARDED_BY(workers_mutex_) = 0;
  std::uint64_t restarts_ GUARDED_BY(workers_mutex_) = 0;

  std::atomic<bool> monitoring_{false};
  std::atomic<bool> stopping_{false};
  std::thread monitor_;
};

}  // namespace seneca::serve::net
