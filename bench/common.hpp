#pragma once
// Shared bench-harness helpers: standardized experiment scales, cached
// workflow artifacts, and the measurement wrappers that turn deterministic
// simulator outputs into paper-style "mean +/- std over 10 runs" rows via
// the instrumentation-noise model.
//
// Scale note (see DESIGN.md): performance/energy rows always run the full
// 256x256 pipeline through the timing models; accuracy rows train on the
// phantom at 64x64 with per-config epoch budgets sized for a single-core
// host. Trained weights are cached under artifacts/, so only the first
// bench invocation pays the training cost.

#include <cstdint>
#include <sstream>
#include <string>

#include "core/evaluate.hpp"
#include "core/model_zoo.hpp"
#include "core/workflow.hpp"
#include "eval/stats.hpp"
#include "eval/table.hpp"
#include "platform/gpu_model.hpp"
#include "platform/power.hpp"
#include "runtime/soc_sim.hpp"

namespace seneca::bench {

/// Accuracy-experiment workflow config for a zoo model. The "best model"
/// (1M) gets the deep-training profile used by Table V / Figs. 5-6; the
/// sweep profile covers all five configs for Table IV.
core::WorkflowConfig accuracy_config(const std::string& model_name,
                                     bool best_profile = false);

/// Runs (or loads from cache) the accuracy workflow for a model.
core::WorkflowArtifacts run_accuracy_workflow(const std::string& model_name,
                                              bool best_profile = false);

/// One paper-style FPGA measurement: FPS / Watt / FPS-per-Watt as
/// mean +/- std over `runs` repetitions (Table IV protocol: 2000 images,
/// 10 runs), including meter/timer noise.
struct MeasuredPerf {
  eval::RunStats fps;
  eval::RunStats watts;
  eval::RunStats ee;
};

MeasuredPerf measure_fpga(const dpu::XModel& xmodel, int threads,
                          int images = 2000, int runs = 10,
                          std::uint64_t noise_seed = 1);

/// GPU counterpart (constant power model, FPS from the analytic executor).
MeasuredPerf measure_gpu(nn::Graph& graph, int runs = 10,
                         std::uint64_t noise_seed = 2);

/// Standard banner so every bench identifies its paper artifact.
void print_banner(const char* artifact, const char* description);

/// Shared emitter for the benches' --json artifacts: a JSON array of flat
/// objects, built field by field. Replaces the per-bench ad-hoc ofstream
/// blocks so key quoting, escaping, and comma placement live in one place.
///
///   JsonWriter j;
///   j.obj().field("model", "4M").field("fps", 123.4).field("ok", true);
///   j.obj().field("model", "2M").field("fps", 456.7).field("ok", false);
///   write_json_file(path, j.str());
class JsonWriter {
 public:
  /// Starts the next object in the array. Fields attach to the most
  /// recently started object.
  JsonWriter& obj();
  JsonWriter& field(const std::string& key, const std::string& value);
  JsonWriter& field(const std::string& key, const char* value);
  JsonWriter& field(const std::string& key, double value);
  JsonWriter& field(const std::string& key, std::int64_t value);
  JsonWriter& field(const std::string& key, std::uint64_t value);
  JsonWriter& field(const std::string& key, int value);
  JsonWriter& field(const std::string& key, bool value);

  /// Renders the complete array (always valid JSON, "[]" when empty).
  std::string str() const;

 private:
  JsonWriter& key(const std::string& k);

  std::ostringstream out_;
  bool in_object_ = false;
  bool object_has_fields_ = false;
  bool array_has_objects_ = false;
};

/// Writes pre-rendered JSON to `path` and prints "wrote <path>" (the
/// convention CI artifact steps grep for). No-op when `path` is empty, so
/// callers can pass --json through unconditionally. Throws
/// std::runtime_error when the file cannot be opened or written.
void write_json_file(const std::string& path, const std::string& json);

}  // namespace seneca::bench
