#pragma once
// The benchmark's workloads. Each drives the program from this one process
// through its public entry points — core::build_timing_qgraph,
// dpu::compile, serve::InferenceServer, and serve::cluster::ClusterRouter
// over a serve::net::Supervisor fleet of seneca_boardd processes — and
// times those calls from outside.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace seneca::perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   // measured window
  bool trace = false;      // per-layer metrics + Chrome trace
  std::string trace_path;  // where the traced run writes its trace
  std::string work_dir;    // scratch directory for worker endpoint files
  std::string boardd_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Names of the workloads run_workload accepts.
std::vector<std::string> workload_names();

/// Set from a signal handler: every wait in a run polls it and unwinds.
extern std::atomic<bool> g_interrupted;

/// Thrown when g_interrupted is seen; the run prints no result.
struct Interrupted {};

/// Runs one workload end to end. Untraced runs return the end-to-end
/// metrics, traced runs the per-layer ones. Throws on an unknown workload
/// and when the program fails.
RunOutcome run_workload(const RunOptions& opts);

}  // namespace seneca::perfbench
