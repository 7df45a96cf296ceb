#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench_math.hpp"
#include "core/workflow.hpp"
#include "data/dataset.hpp"
#include "dpu/compiler.hpp"
#include "dpu/verify.hpp"
#include "platform/power.hpp"
#include "procfs.hpp"
#include "quant/kernels.hpp"
#include "quant/quantizer.hpp"
#include "replay.hpp"
#include "serve/cluster/router.hpp"
#include "serve/net/frame.hpp"
#include "serve/net/supervisor.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace seneca::perfbench {

std::atomic<bool> g_interrupted{false};

namespace {

using serve::Priority;
using tensor::TensorI8;

// Why these numbers: traffic runs kWarmupS before the measured window so
// arenas, pools and the workers' caches are warm when it opens. The window
// is cut into kIntervalS intervals, and the timing figures pool the
// intervals in which the hypervisor stole the least CPU time (see
// least_stolen): on a shared host, 100 ms of steal in a second doubles the
// p95 of that second's 5 ms requests, and steal comes in bursts of a few
// seconds, so one-second intervals cut around them. Setup is repeated
// kSetupReps times and reported as a median. kVolumes x kSlicesPerVolume
// distinct slices keep the scalar reference pass short.
constexpr double kWarmupS = 2.0;
constexpr double kIntervalS = 1.0;
constexpr int kSetupReps = 5;
constexpr int kVolumes = 2;
constexpr int kSlicesPerVolume = 8;
constexpr double kDrainTimeoutS = 30.0;
constexpr double kReplayBudgetS = 2.0;
constexpr int kPricingImages = 48;  // BoardSim's default DES frame count
constexpr int kMaxMismatchReports = 10;

struct WorkloadSpec {
  const char* name;
  std::vector<std::string> ladder;  // zoo rungs, best first
  std::int64_t input;               // slice edge
  int vart_workers;                 // per rung
  int batch_depth;            // closed-loop batch slices in flight; 0 = none
  double interactive_rate;    // open-loop Poisson arrivals per second
  double limit_ms;            // latency limit of the measured lane
  int boards;                 // seneca_boardd processes; 0 = in-process
};

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = {
      {"volume_offline", {"16M"}, 64, 2, 8, 0.0, 1000.0, 0},
      {"clinic_wire", {"4M", "2M"}, 32, 1, 0, 50.0, 50.0, 2},
  };
  return all;
}

/// seneca_boardd's server settings, so every workload serves with them.
serve::ServerConfig boardd_server_config() {
  serve::ServerConfig cfg;
  cfg.queue.capacity = 32;
  cfg.batcher.max_batch_size = 4;
  cfg.batcher.max_wait_ms = 15.0;
  cfg.batcher.interactive_max_wait_ms = 0.0;
  cfg.batcher.interactive_max_batch_size = 1;
  cfg.degrade.queue_depth_high = 6;
  cfg.degrade.queue_depth_low = 2;
  cfg.degrade.min_dwell_ms = 25.0;
  return cfg;
}

void check_interrupt() {
  if (g_interrupted.load(std::memory_order_relaxed)) throw Interrupted{};
}

/// Interruptible sleep.
void sleep_until(Clock::time_point t) {
  for (;;) {
    check_interrupt();
    const Clock::time_point now = Clock::now();
    if (now >= t) return;
    std::this_thread::sleep_for(
        std::min<Clock::duration>(t - now, std::chrono::milliseconds(20)));
  }
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

bool same_bytes(const TensorI8& a, const TensorI8& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel())) == 0;
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

// ---- preparation (untimed: the benchmark's own inputs and references) ----

struct Rung {
  std::string name;
  quant::QGraph qgraph;
  dpu::XModel xmodel;
  RungPrice price;
};

struct Prepared {
  std::vector<Rung> rungs;
  std::vector<TensorI8> slices;
  std::vector<std::vector<TensorI8>> refs;  // [rung][slice], scalar backend
  std::vector<double> build_ms;             // top rung samples
  std::vector<double> compile_ms;           // top rung samples
  double price_ms = 0.0;                    // top rung
};

Prepared prepare(const WorkloadSpec& spec, std::uint64_t seed, Tracer* tr) {
  Prepared p;
  Tracer::Scope root(tr, "prepare", kSetupTrace);
  for (const std::string& name : spec.ladder) {
    check_interrupt();
    Rung rung;
    rung.name = name;
    {
      Tracer::Scope s(tr, "core.build_timing_qgraph", kSetupTrace, root.id());
      const Clock::time_point t0 = Clock::now();
      rung.qgraph = core::build_timing_qgraph(name, spec.input);
      if (p.rungs.empty()) p.build_ms.push_back(ms_between(t0, Clock::now()));
    }
    {
      Tracer::Scope s(tr, "dpu.compile", kSetupTrace, root.id());
      dpu::CompileOptions copts;
      copts.model_name = name;
      const Clock::time_point t0 = Clock::now();
      rung.xmodel = dpu::compile(rung.qgraph, copts);
      if (p.rungs.empty()) p.compile_ms.push_back(ms_between(t0, Clock::now()));
    }
    {
      Tracer::Scope s(tr, "platform.price", kSetupTrace, root.id());
      const Clock::time_point t0 = Clock::now();
      const auto e = platform::estimate_inference_energy(
          platform::ZcuPowerModel{}, rung.xmodel, spec.vart_workers,
          kPricingImages);
      if (p.rungs.empty()) p.price_ms = ms_between(t0, Clock::now());
      rung.price = {e.seconds_per_frame, e.joules_per_frame};
      s.attr("joules_per_frame", e.joules_per_frame);
    }
    p.rungs.push_back(std::move(rung));
  }

  {
    Tracer::Scope s(tr, "data.build_dataset", kSetupTrace, root.id());
    data::DatasetConfig dc;
    dc.num_volumes = kVolumes;
    dc.slices_per_volume = kSlicesPerVolume;
    dc.resolution = spec.input;
    dc.seed = seed;
    const data::Dataset ds = data::build_dataset(dc);
    for (const auto* split : {&ds.train, &ds.val, &ds.test}) {
      for (const auto& rec : *split) {
        p.slices.push_back(
            quant::quantize_input(p.rungs[0].qgraph, rec.sample.image));
      }
    }
    if (p.slices.empty()) throw std::runtime_error("dataset has no slices");
  }

  // References with the scalar backend, then back to the dispatcher's pick
  // before anything is timed.
  Tracer::Scope s(tr, "reference.scalar", kSetupTrace, root.id());
  quant::kernels::set_backend(quant::kernels::Backend::kScalar);
  p.refs.resize(p.rungs.size());
  for (std::size_t r = 0; r < p.rungs.size(); ++r) {
    for (const TensorI8& x : p.slices) {
      check_interrupt();
      p.refs[r].push_back(p.rungs[r].qgraph.forward(x));
    }
  }
  quant::kernels::set_backend(quant::kernels::Backend::kAuto);
  return p;
}

// ---- the program under test ---------------------------------------------

using DoneFn = std::function<void(serve::Response)>;

/// One served deployment: an in-process InferenceServer, or a
/// ClusterRouter over a Supervisor-spawned seneca_boardd fleet.
class Deployment {
 public:
  Deployment() = default;
  virtual ~Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  virtual void submit(Priority lane, TensorI8 input, double deadline_ms,
                      DoneFn done) = 0;
  /// Worker process ids (empty in-process).
  virtual std::vector<pid_t> worker_pids() const { return {}; }
  /// rejected + expired + errors as the program counts them.
  virtual std::uint64_t failed_count() const = 0;
  /// Largest share of served frames on one board (0 without a cluster).
  virtual double board_share_max() const { return 0.0; }
  virtual void shutdown() = 0;
};

class InProcessDeployment final : public Deployment {
 public:
  explicit InProcessDeployment(std::vector<serve::ModelSpec> ladder)
      : server_(std::move(ladder), boardd_server_config()) {}
  void submit(Priority lane, TensorI8 input, double deadline_ms,
              DoneFn done) override {
    server_.submit_async(lane, std::move(input), deadline_ms,
                         serve::kDefaultTenant, std::move(done));
  }
  std::uint64_t failed_count() const override {
    const serve::MetricsSnapshot m = server_.metrics();
    return m.rejected + m.expired + m.errors;
  }
  void shutdown() override { server_.shutdown(); }

 private:
  serve::InferenceServer server_;
};

/// Removes the fleet's scratch directory on every exit path.
struct ScratchDir {
  explicit ScratchDir(std::string path) : path(std::move(path)) {
    std::filesystem::create_directories(this->path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string path;
};

class WireDeployment final : public Deployment {
 public:
  /// Spawns `boards` workers; each spawn's wall time lands in `spawn_ms`.
  WireDeployment(const WorkloadSpec& spec, const RunOptions& opts,
                 std::vector<double>& spawn_ms, Tracer* tr,
                 std::uint32_t parent)
      : router_(std::vector<std::shared_ptr<serve::cluster::Board>>{},
                cluster_config()),
        supervisor_(supervisor_config(opts), router_) {
    for (int b = 0; b < spec.boards; ++b) {
      check_interrupt();
      serve::net::WorkerSpec ws;
      ws.ladder = spec.ladder;
      ws.input = static_cast<int>(spec.input);
      ws.workers = spec.vart_workers;
      ws.queue_capacity = boardd_server_config().queue.capacity;
      Tracer::Scope s(tr, "net.add_worker", kSetupTrace, parent);
      const Clock::time_point t0 = Clock::now();
      slots_.push_back(supervisor_.add_worker(ws));
      spawn_ms.push_back(ms_between(t0, Clock::now()));
    }
  }
  void submit(Priority lane, TensorI8 input, double deadline_ms,
              DoneFn done) override {
    router_.submit_async(lane, std::move(input), deadline_ms,
                         serve::kDefaultTenant, std::move(done));
  }
  std::vector<pid_t> worker_pids() const override {
    std::vector<pid_t> pids;
    for (int slot : slots_) {
      const pid_t pid = supervisor_.worker_pid(slot);
      if (pid > 0) pids.push_back(pid);
    }
    return pids;
  }
  std::uint64_t failed_count() const override {
    const auto s = router_.snapshot();
    return s.rejected + s.expired + s.errors;
  }
  double board_share_max() const override {
    const auto s = router_.snapshot();
    std::uint64_t total = 0, most = 0;
    for (const auto& b : s.boards) {
      total += b.served;
      most = std::max(most, b.served);
    }
    return total == 0 ? 0.0
                      : static_cast<double>(most) / static_cast<double>(total);
  }
  void shutdown() override {
    supervisor_.stop();
    router_.shutdown();
  }

 private:
  static serve::cluster::ClusterConfig cluster_config() {
    serve::cluster::ClusterConfig cfg;
    cfg.policy = serve::cluster::PolicyKind::kJoinShortestQueue;
    return cfg;
  }
  static serve::net::SupervisorConfig supervisor_config(const RunOptions& o) {
    serve::net::SupervisorConfig cfg;
    cfg.boardd_path = o.boardd_path;
    cfg.work_dir = o.work_dir;
    return cfg;
  }

  serve::cluster::ClusterRouter router_;
  serve::net::Supervisor supervisor_;  // stops before the router dies
  std::vector<int> slots_;
};

/// One timed setup: the program's own preparation until it can serve.
std::unique_ptr<Deployment> set_up(const WorkloadSpec& spec,
                                   const RunOptions& opts, Prepared& prep,
                                   std::vector<double>& spawn_ms, Tracer* tr) {
  Tracer::Scope root(tr, "setup", kSetupTrace);
  if (spec.boards > 0) {
    return std::make_unique<WireDeployment>(spec, opts, spawn_ms, tr,
                                            root.id());
  }
  std::vector<serve::ModelSpec> ladder;
  for (const std::string& name : spec.ladder) {
    check_interrupt();
    Clock::time_point t0 = Clock::now();
    quant::QGraph qg;
    {
      Tracer::Scope s(tr, "core.build_timing_qgraph", kSetupTrace, root.id());
      qg = core::build_timing_qgraph(name, spec.input);
    }
    if (ladder.empty()) prep.build_ms.push_back(ms_between(t0, Clock::now()));
    t0 = Clock::now();
    dpu::CompileOptions copts;
    copts.model_name = name;
    serve::ModelSpec ms{name, {}, spec.vart_workers};
    {
      Tracer::Scope s(tr, "dpu.compile", kSetupTrace, root.id());
      ms.model = dpu::compile(qg, copts);
    }
    if (ladder.empty()) prep.compile_ms.push_back(ms_between(t0, Clock::now()));
    ladder.push_back(std::move(ms));
  }
  Tracer::Scope s(tr, "serve.construct", kSetupTrace, root.id());
  return std::make_unique<InProcessDeployment>(std::move(ladder));
}

// ---- traffic --------------------------------------------------------------

/// Shared by the generator threads and the completion callbacks.
class Traffic {
 public:
  Traffic(const WorkloadSpec& spec, const Prepared& prep, Deployment& dep,
          Clock::time_point epoch)
      : spec_(spec), prep_(prep), dep_(dep), epoch_(epoch),
        served_top_(prep.slices.size()) {}

  double secs(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  /// Closed loop on the batch lane, `spec.batch_depth` slices in flight,
  /// cycling through a seeded slice order until `stop_at`.
  void batch_loop(std::uint64_t seed, Clock::time_point stop_at) {
    std::vector<int> order(prep_.slices.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    util::Rng rng(seed);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    }
    for (std::size_t k = 0;; ++k) {
      {
        std::unique_lock lock(inflight_mutex_);
        inflight_cv_.wait_for(lock, std::chrono::milliseconds(20), [&] {
          return inflight_ < spec_.batch_depth;
        });
        if (Clock::now() >= stop_at || g_interrupted.load()) return;
        if (inflight_ >= spec_.batch_depth) continue;
        ++inflight_;
      }
      const Clock::time_point now = Clock::now();
      send(batch_, Priority::kBatch, order[k % order.size()], now, now, 0.0);
    }
  }

  /// Open loop on the interactive lane: one request per arrival offset
  /// (seconds after `start`), each carrying the workload's latency limit
  /// from its scheduled send time as its deadline.
  void open_loop(const std::vector<double>& arrivals,
                 const std::vector<int>& slices, Clock::time_point start) {
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(arrivals[i]));
      while (Clock::now() < due) {
        if (g_interrupted.load()) return;
        std::this_thread::sleep_until(
            std::min(due, Clock::now() + std::chrono::milliseconds(20)));
      }
      const Clock::time_point now = Clock::now();
      const double budget = spec_.limit_ms - ms_between(due, now);
      // deadline_ms <= 0 would mean "no deadline"; a late request still
      // carries one and expires.
      send(interactive_, Priority::kInteractive, slices[i], due, now,
           std::max(budget, 1e-3));
    }
  }

  /// Waits until every sent request completed; false on timeout.
  bool drain(double timeout_s) {
    const Clock::time_point until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    while (completed_.load(std::memory_order_acquire) !=
           submitted_.load(std::memory_order_acquire)) {
      if (Clock::now() >= until) return false;
      check_interrupt();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  }

  /// Records whose scheduled send time lies in [begin_s, end_s).
  std::vector<RequestRecord> window(double begin_s, double end_s) const {
    std::vector<RequestRecord> out;
    for (const auto* lane : {&batch_, &interactive_}) {
      for (const RequestRecord& r : *lane) {
        if (r.scheduled_s >= begin_s && r.scheduled_s < end_s) out.push_back(r);
      }
    }
    return out;
  }

  /// The first top-rung output served for each slice (empty if none).
  const std::vector<TensorI8>& served_top() const { return served_top_; }
  int mismatches() const { return mismatches_.load(); }

 private:
  void send(std::deque<RequestRecord>& lane, Priority priority, int slice,
            Clock::time_point due, Clock::time_point now, double deadline_ms) {
    RequestRecord& rec = lane.emplace_back();
    rec.lane = priority;
    rec.slice = slice;
    rec.scheduled_s = secs(due);
    rec.submit_begin_s = secs(now);
    submitted_.fetch_add(1, std::memory_order_acq_rel);
    dep_.submit(priority, prep_.slices[static_cast<std::size_t>(slice)],
                deadline_ms,
                [this, &rec](serve::Response r) { complete(rec, std::move(r)); });
    rec.submit_end_s = secs(Clock::now());
  }

  void complete(RequestRecord& rec, serve::Response r) {
    rec.completed_s = secs(Clock::now());
    rec.status = r.status;
    rec.queue_ms = r.queue_ms;
    rec.service_ms = r.service_ms;
    rec.batch_size = r.batch_size;
    const auto it = std::find(spec_.ladder.begin(), spec_.ladder.end(),
                              r.model_used);
    rec.rung = it == spec_.ladder.end()
                   ? -1
                   : static_cast<int>(it - spec_.ladder.begin());
    if (r.status == serve::Status::kOk) {
      const auto slice = static_cast<std::size_t>(rec.slice);
      rec.match = rec.rung >= 0 &&
                  same_bytes(r.output,
                             prep_.refs[static_cast<std::size_t>(rec.rung)][slice]);
      if (!rec.match && mismatches_.fetch_add(1) < kMaxMismatchReports) {
        std::fprintf(stderr,
                     "perfbench: output mismatch: rung %d (%s) slice %zu\n",
                     rec.rung, r.model_used.c_str(), slice);
      }
      if (rec.rung == 0) {
        std::lock_guard lock(served_mutex_);
        if (served_top_[slice].numel() == 0) served_top_[slice] = std::move(r.output);
      }
    }
    if (rec.lane == Priority::kBatch) {
      {
        std::lock_guard lock(inflight_mutex_);
        --inflight_;
      }
      inflight_cv_.notify_one();
    }
    completed_.fetch_add(1, std::memory_order_acq_rel);
  }

  const WorkloadSpec& spec_;
  const Prepared& prep_;
  Deployment& dep_;
  const Clock::time_point epoch_;

  // Each lane is appended to by its one generator thread only; std::deque
  // keeps element addresses stable, so callbacks hold plain references.
  std::deque<RequestRecord> batch_;
  std::deque<RequestRecord> interactive_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<int> mismatches_{0};

  std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  int inflight_ = 0;  // guarded by inflight_mutex_

  std::mutex served_mutex_;
  std::vector<TensorI8> served_top_;  // guarded by served_mutex_
};

/// A traffic generator thread. join() rethrows what the generator threw;
/// the destructor joins on every other exit path.
class Generator {
 public:
  explicit Generator(std::function<void()> body)
      : thread_([this, body = std::move(body)] {
          try {
            body();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  ~Generator() {
    if (thread_.joinable()) thread_.join();
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void join() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::exception_ptr error_;  // written by the thread, read after join
  std::thread thread_;
};

/// Shuts the deployment down on every exit path, before the traffic state
/// its completion callbacks write into is destroyed.
struct ShutdownGuard {
  Deployment& dep;
  ~ShutdownGuard() { dep.shutdown(); }
};

void add(std::vector<Metric>& out, const char* name, double value,
         const char* unit) {
  out.push_back({name, value, unit});
}

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& s : specs()) names.emplace_back(s.name);
  return names;
}

RunOutcome run_workload(const RunOptions& opts) {
  const auto spec_it =
      std::find_if(specs().begin(), specs().end(),
                   [&](const WorkloadSpec& s) { return opts.workload == s.name; });
  if (spec_it == specs().end()) {
    throw std::runtime_error("unknown workload '" + opts.workload + "'");
  }
  const WorkloadSpec& spec = *spec_it;
  if (spec.boards > 0) {
    const std::vector<pid_t> stray = find_processes("seneca_boardd");
    if (!stray.empty()) {
      throw std::runtime_error(
          "a seneca_boardd process is already running (pid " +
          std::to_string(stray.front()) +
          "); refusing to start so it cannot skew the run");
    }
  }

  const Clock::time_point epoch = Clock::now();
  Tracer tracer(epoch);
  Tracer* tr = opts.trace ? &tracer : nullptr;
  const std::uint64_t seed = opts.seed;

  Prepared prep = prepare(spec, seed, tr);

  std::unique_ptr<ScratchDir> scratch;
  if (spec.boards > 0) {
    scratch = std::make_unique<ScratchDir>(opts.work_dir);
  }

  // ---- setup, repeated; the last deployment serves ----
  std::vector<double> setup_s;
  std::vector<double> spawn_ms;
  std::unique_ptr<Deployment> dep;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (dep) dep->shutdown();
    dep.reset();
    const Clock::time_point t0 = Clock::now();
    dep = set_up(spec, opts, prep, spawn_ms, tr);
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }

  // ---- traffic: warm-up, then the measured window ----
  Traffic traffic(spec, prep, *dep, epoch);
  ShutdownGuard guard{*dep};
  const Clock::time_point start = Clock::now();
  const auto dur = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  const Clock::time_point win_begin = start + dur(kWarmupS);
  const Clock::time_point win_end = win_begin + dur(opts.seconds);

  // CPU and steal time are sampled at every interval boundary, and
  // open-loop load is offered interval by interval.
  const int intervals = std::max(1, static_cast<int>(opts.seconds / kIntervalS));
  const double interval_s = opts.seconds / intervals;
  std::vector<double> arrivals;
  std::vector<int> arrival_slices;
  if (spec.interactive_rate > 0.0) {
    std::vector<double> bounds = {0.0};
    for (int k = 0; k <= intervals; ++k) bounds.push_back(kWarmupS + k * interval_s);
    arrivals = fixed_count_arrivals(spec.interactive_rate, bounds,
                                    seed ^ 0xA5A5A5A5ULL);
    util::Rng rng(seed ^ 0x5A5A5A5AULL);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      arrival_slices.push_back(
          static_cast<int>(rng.uniform_index(prep.slices.size())));
    }
  }

  std::vector<pid_t> pids = dep->worker_pids();
  pids.insert(pids.begin(), ::getpid());
  std::vector<double> cpu, steal;
  {
    std::optional<Generator> batch_gen, open_gen;
    if (spec.batch_depth > 0) {
      batch_gen.emplace([&] { traffic.batch_loop(seed, win_end); });
    }
    if (!arrivals.empty()) {
      open_gen.emplace(
          [&] { traffic.open_loop(arrivals, arrival_slices, start); });
    }
    for (int k = 0; k <= intervals; ++k) {
      sleep_until(k == intervals ? win_end : win_begin + dur(k * interval_s));
      cpu.push_back(processes_cpu_seconds(pids));
      steal.push_back(host_steal_seconds());
    }
    if (batch_gen) batch_gen->join();
    if (open_gen) open_gen->join();
  }
  check_interrupt();
  const bool drained = traffic.drain(kDrainTimeoutS);
  const double rss_mb = processes_vmhwm_mb(pids);
  const std::uint64_t program_failed = dep->failed_count();
  const double board_share = dep->board_share_max();
  dep->shutdown();  // completes anything still outstanding

  const double w0 = traffic.secs(win_begin);
  const double w1 = traffic.secs(win_end);
  const std::vector<RequestRecord> sent = traffic.window(w0, w1);
  const std::vector<RequestRecord> all = traffic.window(0.0, w1 + kDrainTimeoutS);
  const Priority latency_lane = spec.interactive_rate > 0.0
                                    ? Priority::kInteractive
                                    : Priority::kBatch;
  std::vector<RequestRecord> lane_sent;
  std::vector<double> queue_ms;
  for (const auto& r : sent) {
    if (r.lane != latency_lane) continue;
    lane_sent.push_back(r);
    if (served_ok(r)) queue_ms.push_back(r.queue_ms);
  }
  std::uint64_t ok = 0;
  for (const auto& r : sent) ok += served_ok(r) ? 1 : 0;
  std::vector<RungPrice> prices;
  for (const auto& rung : prep.rungs) prices.push_back(rung.price);
  const SimRates sim = sim_rates(sent, prices);
  std::vector<TimeRange> ranges;
  std::vector<double> steal_s;
  for (int k = 0; k < intervals; ++k) {
    ranges.push_back({w0 + k * interval_s,
                      k + 1 == intervals ? w1 : w0 + (k + 1) * interval_s,
                      cpu[k + 1] - cpu[k]});
    steal_s.push_back(steal[k + 1] - steal[k]);
  }
  std::vector<TimeRange> kept;
  std::vector<bool> used(ranges.size(), false);
  for (std::size_t k : least_stolen(steal_s)) {
    kept.push_back(ranges[k]);
    used[k] = true;
  }
  const WindowStats timing = pooled_stats(all, latency_lane, kept);
  std::string p95_list, steal_list;
  for (std::size_t k = 0; k < ranges.size(); ++k) {
    char item[32];
    std::snprintf(item, sizeof item, " %.1f%s",
                  pooled_stats(all, latency_lane, {ranges[k]}).latency_p95_ms,
                  used[k] ? "" : "x");
    p95_list += item;
    std::snprintf(item, sizeof item, " %.0f", steal_s[k] * 1e3);
    steal_list += item;
  }
  std::printf("per %.1f s interval, p95 ms (x = left out, more steal than the "
              "median):%s\nper %.1f s interval, host steal ms:%s\n"
              "timing metrics pool %zu of %zu intervals\n",
              interval_s, p95_list.c_str(), interval_s, steal_list.c_str(),
              kept.size(), ranges.size());
  std::printf("setup s per repetition:");
  for (double v : setup_s) std::printf(" %.3f", v);
  std::printf("\n");

  RunOutcome out;
  out.attempted = sent.size();
  out.failed = sent.size() - ok;
  out.correct = drained && traffic.mismatches() == 0;

  std::printf("workload %s seed %llu: sent %llu ok %llu failed %llu "
              "(window %.1f s after %.1f s warm-up)\n",
              spec.name, static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(sent.size()),
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(sent.size() - ok), opts.seconds,
              kWarmupS);

  if (!opts.trace) {
    auto& m = out.metrics;
    add(m, "setup_s", median(setup_s), "s");
    add(m, "peak_rss_mb", rss_mb, "MB");
    add(m, "frames_per_s", timing.frames_per_s, "1/s");
    add(m, "latency_p50_ms", timing.latency_p50_ms, "ms");
    add(m, "latency_p95_ms", timing.latency_p95_ms, "ms");
    add(m, "deadline_met_share", deadline_met_share(lane_sent, spec.limit_ms),
        "share");
    add(m, "ok_share", ok_share(sent), "share");
    add(m, "top_rung_share", top_rung_share(sent), "share");
    add(m, "cpu_ms_per_frame", timing.cpu_ms_per_frame, "ms");
    add(m, "sim_fps", sim.fps, "fps");
    add(m, "sim_fps_per_w", sim.fps_per_w, "fps/W");
    return out;
  }

  // ---- traced run: request spans, replay, per-layer metrics ----
  std::vector<double> lag_ms, submit_us, transport_ms, service_per_frame;
  const bool wire = spec.boards > 0;
  std::uint64_t trace_id = kFirstRequestTrace;
  for (const auto& r : sent) {
    const auto at = [&](double s) { return epoch + dur(s); };
    Span root;
    root.id = tracer.next_id();
    root.trace_id = trace_id++;
    root.name = std::string("request.") + serve::to_string(r.lane);
    root.begin = at(r.scheduled_s);
    root.end = at(r.completed_s);
    root.attrs = {{"slice", r.slice},
                  {"status", static_cast<double>(r.status)},
                  {"rung", r.rung}};
    Span call{0, root.id, root.trace_id, wire ? "cluster.submit_async" : "serve.submit_async",
              at(r.submit_begin_s), at(r.submit_end_s), {}};
    Span flight{0, root.id, root.trace_id, "in_flight", at(r.submit_end_s),
                at(r.completed_s),
                {{"queue_ms", r.queue_ms},
                 {"service_ms", r.service_ms},
                 {"batch_size", r.batch_size}}};
    tracer.add(std::move(root));
    tracer.add(std::move(call));
    tracer.add(std::move(flight));

    submit_us.push_back((r.submit_end_s - r.submit_begin_s) * 1e6);
    if (r.lane == Priority::kInteractive) {
      lag_ms.push_back((r.submit_begin_s - r.scheduled_s) * 1e3);
    }
    if (r.status == serve::Status::kOk) {
      service_per_frame.push_back(r.service_ms / std::max<std::uint32_t>(r.batch_size, 1));
      transport_ms.push_back((r.completed_s - r.submit_begin_s) * 1e3 -
                             r.queue_ms - r.service_ms);
    }
  }

  const Rung& top = prep.rungs[0];
  std::vector<double> verify_ms;
  {
    Tracer::Scope s(tr, "dpu.verify", kSetupTrace);
    for (int i = 0; i < kSetupReps; ++i) {
      const Clock::time_point t0 = Clock::now();
      const auto findings = dpu::verify(top.xmodel);
      verify_ms.push_back(ms_between(t0, Clock::now()));
      if (dpu::has_errors(findings)) out.correct = false;
    }
  }
  std::vector<TensorI8> replay_in, replay_expect;
  for (std::size_t i = 0; i < prep.slices.size(); ++i) {
    if (traffic.served_top()[i].numel() == 0) continue;
    replay_in.push_back(prep.slices[i]);
    replay_expect.push_back(traffic.served_top()[i]);
  }
  ReplayReport rep;
  {
    Tracer::Scope root(tr, "replay", kReplayTrace);
    rep = replay(top.xmodel, replay_in, replay_expect, kReplayBudgetS, tr,
                 root.id());
  }
  out.correct = out.correct && rep.bytes_match && !replay_in.empty();
  std::printf("replay of %s over %d frames (%s):\n%s", top.name.c_str(),
              rep.frames, rep.bytes_match ? "bytes match" : "BYTES DIFFER",
              format_layer_table(rep).c_str());

  const double cycles = top.xmodel.latency_cycles(1);
  std::size_t bytes_per_request = 0;
  if (wire) {
    serve::net::WireRequest req;
    req.priority = Priority::kInteractive;
    req.deadline_rel_ms = spec.limit_ms;
    req.input = prep.slices[0];
    serve::net::WireResponse resp;
    resp.status = serve::Status::kOk;
    resp.model_used = top.name;
    resp.has_output = true;
    resp.output = prep.refs[0][0];
    bytes_per_request = 2 * serve::net::kHeaderSize + req.encode().size() +
                        resp.encode().size();
  }

  auto& m = out.metrics;
  add(m, "loadgen.send_lag_p99_ms", percentile(lag_ms, 0.99), "ms");
  add(m, "cluster.submit_us_p50", wire ? percentile(submit_us, 0.5) : 0.0, "us");
  add(m, "cluster.board_share_max", board_share, "share");
  add(m, "net.transport_ms_p50", wire ? percentile(transport_ms, 0.5) : 0.0, "ms");
  add(m, "net.transport_ms_p95", wire ? percentile(transport_ms, 0.95) : 0.0, "ms");
  add(m, "net.bytes_per_request", static_cast<double>(bytes_per_request), "B");
  add(m, "net.spawn_ms", median(spawn_ms), "ms");
  add(m, "serve.submit_us_p50", wire ? 0.0 : percentile(submit_us, 0.5), "us");
  add(m, "serve.queue_ms_p50", percentile(queue_ms, 0.5), "ms");
  add(m, "serve.queue_ms_p95", percentile(queue_ms, 0.95), "ms");
  add(m, "serve.batch_size_mean", mean_batch_size(sent), "count");
  add(m, "serve.failed", static_cast<double>(program_failed), "count");
  add(m, "runtime.service_ms_per_frame_p50", percentile(service_per_frame, 0.5),
      "ms");
  add(m, "runtime.busy_share", busy_share(sent, opts.seconds), "share");
  add(m, "dpu.compile_ms", median(prep.compile_ms), "ms");
  add(m, "dpu.verify_ms", median(verify_ms), "ms");
  add(m, "dpu.cycles_per_frame", cycles, "cycles");
  add(m, "dpu.sim_ms_per_frame_p50", rep.sim_ms_p50, "ms");
  add(m, "dpu.host_ns_per_cycle", cycles > 0.0 ? rep.sim_ms_p50 * 1e6 / cycles : 0.0,
      "ns");
  add(m, "core.build_qgraph_ms", median(prep.build_ms), "ms");
  add(m, "quant.conv_ms_per_frame", rep.conv_ms, "ms");
  add(m, "quant.tconv_ms_per_frame", rep.tconv_ms, "ms");
  add(m, "quant.pool_concat_ms_per_frame", rep.pool_concat_ms, "ms");
  add(m, "quant.conv_gmac_per_s", rep.conv_gmac_per_s, "GMAC/s");
  add(m, "quant.acc64_layers", rep.acc64_layers, "count");
  add(m, "platform.price_ms", prep.price_ms, "ms");
  add(m, "platform.joules_per_frame", top.price.joules_per_frame, "J");
  add(m, "trace.frames_per_s", timing.frames_per_s, "1/s");
  add(m, "trace.latency_p50_ms", timing.latency_p50_ms, "ms");

  std::map<std::string, double> meta;
  for (const auto& metric : m) meta[metric.name] = metric.value;
  meta["setup_s"] = median(setup_s);
  meta["seed"] = static_cast<double>(opts.seed);
  std::filesystem::create_directories(
      std::filesystem::path(opts.trace_path).parent_path());
  tracer.write_chrome(opts.trace_path, meta);
  std::printf("chrome trace: %s (%zu spans)\n", opts.trace_path.c_str(),
              tracer.spans().size());
  std::printf("self time by span (ms):\n");
  for (const auto& [name, ms] : tracer.self_ms_by_name()) {
    std::printf("  %-28s %10.2f\n", name.c_str(), ms);
  }
  return out;
}

}  // namespace seneca::perfbench
