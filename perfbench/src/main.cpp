// seneca_perfbench: runs one SENECA-Bench workload and prints its metrics.
//
//   seneca_perfbench --workload volume_offline|clinic_wire
//                    --seed N --seconds S --trace 0|1
//
// Run from the root of a checkout. The last line of standard output is one
// JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1, which also writes a Chrome trace to
// .bench_build/traces/<workload>-seed<N>.json). Worker endpoint files live
// in .bench_build/run/<pid>/. On SIGINT or SIGTERM the run stops its
// workers, removes that directory, and exits nonzero without a result; so
// does any failure of the program.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

using namespace seneca;

void on_signal(int) {
  perfbench::g_interrupted.store(true);  // lock-free atomic: signal-safe
}

void print_result(const perfbench::RunOutcome& out) {
  std::printf("\n%-34s %20s  %s\n", "metric", "value", "unit");
  for (const auto& m : out.metrics) {
    std::printf("%-34s %20.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  const util::Cli cli(argc, argv);
  perfbench::RunOptions opts;
  opts.workload = cli.get("workload", "");
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  opts.seconds = cli.get_double("seconds", 10.0);
  opts.trace = cli.get_int("trace", 0) != 0;
  opts.trace_path = ".bench_build/traces/" + opts.workload + "-seed" +
                    std::to_string(opts.seed) + ".json";
  opts.work_dir = ".bench_build/run/" + std::to_string(::getpid());
  opts.boardd_path = SENECA_BOARDD_PATH;
  const std::vector<std::string> names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), opts.workload) == names.end() ||
      opts.seconds <= 0.0) {
    std::string list;
    for (const auto& n : names) list += " " + n;
    std::fprintf(stderr,
                 "usage: seneca_perfbench --workload NAME --seed N --seconds "
                 "S>0 --trace 0|1 (workloads:%s)\n",
                 list.c_str());
    return 2;
  }

  try {
    print_result(perfbench::run_workload(opts));
    return 0;
  } catch (const perfbench::Interrupted&) {
    std::fprintf(stderr, "seneca_perfbench: interrupted; workers stopped\n");
    return 130;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "seneca_perfbench: failed: %s\n", e.what());
    return 1;
  }
}
