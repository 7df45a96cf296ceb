#include "serve/net/supervisor.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/workflow.hpp"
#include "serve/net/boardd.hpp"
#include "util/io.hpp"

namespace seneca::serve::net {

namespace {

std::atomic<unsigned> g_supervisors{0};  // names each Supervisor's files

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// waitpid(WNOHANG) with EINTR retry. Returns true once the child is
/// reaped, with its wait status in `*status` when given (0 if another
/// waiter reaped it).
bool try_reap(pid_t pid, int* status = nullptr) {
  while (true) {
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    if (r == 0) return false;
    if (r < 0 && errno == EINTR) continue;
    return true;  // ECHILD: someone else reaped it; treat as gone
  }
}

/// SIGTERM, grace period, then SIGKILL + blocking reap. Never hangs: after
/// SIGKILL the child is unschedulable, so waitpid must return.
void reap_with_grace(pid_t pid, double grace_ms) {
  if (pid <= 0) return;
  ::kill(pid, SIGTERM);
  const Clock::time_point start = Clock::now();
  while (ms_since(start) < grace_ms) {
    if (try_reap(pid)) return;
    ::usleep(2000);
  }
  ::kill(pid, SIGKILL);
  while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace

Supervisor::Supervisor(SupervisorConfig cfg, cluster::ClusterRouter& router)
    : cfg_(std::move(cfg)), router_(router) {
  std::ostringstream os;
  os << cfg_.work_dir << "/seneca-boardd-" << ::getpid() << "-"
     << g_supervisors.fetch_add(1, std::memory_order_relaxed);
  file_prefix_ = os.str();
}

Supervisor::~Supervisor() {
  stop();
  util::LockGuard lock(models_mutex_);
  for (const auto& entry : models_) std::remove(entry.second.path.c_str());
}

std::string Supervisor::endpoint_file_for(const Worker& w) const {
  return file_prefix_ + "-s" + std::to_string(w.slot) + "-g" +
         std::to_string(w.generation) + ".ep";
}

std::vector<Supervisor::ModelFile> Supervisor::models_for(
    const WorkerSpec& spec) {
  util::LockGuard lock(models_mutex_);
  std::vector<ModelFile> files;
  for (const std::string& rung : spec.ladder) {
    auto it = models_.find({rung, spec.input});
    if (it == models_.end()) {
      const std::vector<std::uint8_t> bytes =
          core::build_timing_xmodel(rung, dpu::DpuArch::b4096(), spec.input)
              .serialize();
      ModelFile file;
      file.path = file_prefix_ + "-" + rung + "-" +
                  std::to_string(spec.input) + ".xmodel";
      file.digest = crc32(bytes.data(), bytes.size());
      util::write_file(file.path, bytes.data(), bytes.size());
      it = models_.emplace(std::make_pair(rung, spec.input), file).first;
    }
    files.push_back(it->second);
  }
  return files;
}

pid_t Supervisor::exec_boardd(const Worker& w, const std::string& listen_spec,
                              const std::string& endpoint_file) const {
  std::string xmodels;
  for (const ModelFile& m : w.models) {
    if (!xmodels.empty()) xmodels += ',';
    xmodels += m.path;
  }
  std::vector<std::string> argv_s = {
      cfg_.boardd_path,
      "--listen",         listen_spec,
      "--endpoint-file",  endpoint_file,
      "--xmodel",         xmodels,
      "--workers",        std::to_string(w.spec.workers),
      "--queue-capacity", std::to_string(w.spec.queue_capacity),
      "--rung-offset",    std::to_string(w.spec.rung_offset),
      "--name",           w.spec.name,
  };
  if (w.spec.online_reprice) argv_s.push_back("--online-reprice");

  std::vector<char*> argv;
  argv.reserve(argv_s.size() + 1);
  for (auto& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw NetError(NetError::Kind::kSystem,
                   "fork for " + cfg_.boardd_path + " failed");
  }
  if (pid == 0) {
    // Child. Only async-signal-safe calls from here to exec.
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  return pid;
}

void Supervisor::spawn_locked(Worker& w) {
  ++w.generation;
  const std::string ep_file = endpoint_file_for(w);
  std::remove(ep_file.c_str());

  std::string listen_spec;
  if (cfg_.transport == Endpoint::Kind::kTcp) {
    listen_spec = "tcp:127.0.0.1:0";  // ephemeral; worker reports the port
  } else {
    listen_spec = "unix:" + file_prefix_ + "-s" + std::to_string(w.slot) +
                  "-g" + std::to_string(w.generation) + ".sock";
  }

  const pid_t pid = exec_boardd(w, listen_spec, ep_file);

  // The worker writes its resolved endpoint via write-to-temp + rename, so
  // once the file exists its contents are complete.
  Endpoint ep;
  const Clock::time_point start = Clock::now();
  bool got_endpoint = false;
  while (ms_since(start) < cfg_.spawn_timeout_ms) {
    int status = 0;
    if (try_reap(pid, &status)) {
      std::remove(ep_file.c_str());
      const std::string who =
          "boardd worker (slot " + std::to_string(w.slot) + ")";
      if (WIFEXITED(status) && WEXITSTATUS(status) == kModelRefusedExit) {
        throw WorkerRefused(who + " refused its .xmodel files at load");
      }
      throw NetError(NetError::Kind::kSystem,
                     who + " exited before publishing its endpoint");
    }
    std::ifstream in(ep_file);
    if (in) {
      std::string spec;
      std::getline(in, spec);
      if (!spec.empty()) {
        ep = Endpoint::parse(spec);
        got_endpoint = true;
        break;
      }
    }
    ::usleep(2000);
  }
  if (!got_endpoint) {
    reap_with_grace(pid, 100.0);
    std::remove(ep_file.c_str());
    throw NetError(NetError::Kind::kTimeout,
                   "boardd worker (slot " + std::to_string(w.slot) +
                       ") did not publish an endpoint within " +
                       std::to_string(cfg_.spawn_timeout_ms) + "ms");
  }
  std::remove(ep_file.c_str());

  std::shared_ptr<RemoteBoard> board;
  try {
    board = std::make_shared<RemoteBoard>(w.slot, ep, cfg_.remote);
  } catch (...) {
    reap_with_grace(pid, 100.0);
    throw;
  }
  std::vector<std::uint32_t> expected;
  for (const ModelFile& m : w.models) expected.push_back(m.digest);
  if (board->model_digests() != expected) {
    board->shutdown();
    reap_with_grace(pid, 100.0);
    throw WorkerRefused("boardd worker (slot " + std::to_string(w.slot) +
                        ") serves model bytes other than the .xmodel files "
                        "its supervisor wrote");
  }

  w.pid = pid;
  w.board = std::move(board);
  router_.add_board(w.board);
}

int Supervisor::add_worker(WorkerSpec spec) {
  std::vector<ModelFile> models = models_for(spec);
  util::LockGuard lock(workers_mutex_);
  auto w = std::make_unique<Worker>();
  w->slot = next_slot_++;
  w->spec = std::move(spec);
  w->models = std::move(models);
  if (w->spec.name.empty()) w->spec.name = "worker" + std::to_string(w->slot);
  spawn_locked(*w);
  const int slot = w->slot;
  workers_.push_back(std::move(w));
  return slot;
}

void Supervisor::detach_locked(Worker& w) {
  router_.remove_board(w.slot);
  if (w.board) {
    w.board->shutdown();
    w.board.reset();
  }
  if (w.pid > 0) {
    reap_with_grace(w.pid, 200.0);
    w.pid = -1;
  }
}

void Supervisor::remove_worker(int slot) {
  util::LockGuard lock(workers_mutex_);
  for (auto it = workers_.begin(); it != workers_.end(); ++it) {
    if ((*it)->slot != slot) continue;
    // Detach first: queued work on this board migrates to the survivors
    // before the process goes away. Then SIGTERM (boardd treats it as an
    // orderly stop), escalating to SIGKILL.
    (*it)->want_alive = false;
    detach_locked(**it);
    workers_.erase(it);
    return;
  }
}

void Supervisor::start() {
  if (monitoring_.exchange(true)) return;
  stopping_.store(false, std::memory_order_release);
  monitor_ = std::thread([this] { monitor_loop(); });
}

void Supervisor::stop() {
  stopping_.store(true, std::memory_order_release);
  if (monitor_.joinable()) monitor_.join();
  monitoring_.store(false, std::memory_order_release);

  util::LockGuard lock(workers_mutex_);
  for (auto& w : workers_) {
    w->want_alive = false;
    detach_locked(*w);
  }
  workers_.clear();
}

void Supervisor::monitor_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    {
      util::LockGuard lock(workers_mutex_);
      for (auto& wp : workers_) {
        Worker& w = *wp;
        if (!w.want_alive) continue;

        if (w.board) {
          const bool process_gone = w.pid > 0 && try_reap(w.pid);
          if (process_gone) w.pid = -1;
          // Restart on a dead process or a dead transport — NOT on an
          // injected fault, which is a health experiment the tests own.
          if (process_gone || w.board->dead()) {
            detach_locked(w);
            w.backoff_ms = w.backoff_ms <= 0.0
                               ? cfg_.restart_backoff_initial_ms
                               : std::min(w.backoff_ms * 2.0,
                                          cfg_.restart_backoff_max_ms);
            w.next_attempt =
                Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       w.backoff_ms));
          }
        }

        if (!w.board && Clock::now() >= w.next_attempt) {
          try {
            spawn_locked(w);
            ++w.restarts;
            ++restarts_;
            w.backoff_ms = 0.0;
          } catch (const WorkerRefused&) {
            // The same files would be refused again: give the slot up.
            w.want_alive = false;
            w.refused = true;
          } catch (const std::exception&) {
            w.backoff_ms =
                std::min(std::max(w.backoff_ms * 2.0,
                                  cfg_.restart_backoff_initial_ms),
                         cfg_.restart_backoff_max_ms);
            w.next_attempt =
                Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       w.backoff_ms));
          }
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        cfg_.poll_interval_ms));
  }
}

pid_t Supervisor::worker_pid(int slot) const {
  util::LockGuard lock(workers_mutex_);
  for (const auto& w : workers_) {
    if (w->slot == slot) return w->pid;
  }
  return -1;
}

std::shared_ptr<RemoteBoard> Supervisor::worker_board(int slot) const {
  util::LockGuard lock(workers_mutex_);
  for (const auto& w : workers_) {
    if (w->slot == slot) return w->board;
  }
  return nullptr;
}

std::size_t Supervisor::num_workers() const {
  util::LockGuard lock(workers_mutex_);
  return workers_.size();
}

Supervisor::Stats Supervisor::stats() const {
  util::LockGuard lock(workers_mutex_);
  Stats s;
  s.restarts = restarts_;
  for (const auto& w : workers_) {
    if (w->board && !w->board->dead()) ++s.alive;
    if (w->refused) ++s.refused;
  }
  return s;
}

}  // namespace seneca::serve::net
