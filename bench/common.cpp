#include "common.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace seneca::bench {

core::WorkflowConfig accuracy_config(const std::string& model_name,
                                     bool best_profile) {
  core::WorkflowConfig cfg;
  cfg.model_name = model_name;
  cfg.dataset.resolution = 64;
  cfg.train.learning_rate = 2e-3f;
  cfg.train.lr_decay = 0.95f;
  cfg.calibration_images = 32;
  cfg.artifacts_dir = "artifacts";
  if (best_profile) {
    // Deep-training profile for the selected SENECA model (Table V, Figs 5-6).
    cfg.dataset.num_volumes = 32;
    cfg.dataset.slices_per_volume = 14;
    cfg.train.epochs = 34;
  } else {
    // Sweep profile: same data for all five configs; epoch budget shrinks
    // with model cost so the sweep stays tractable on one host core.
    cfg.dataset.num_volumes = 24;
    cfg.dataset.slices_per_volume = 12;
    if (model_name == "1M" || model_name == "2M") {
      cfg.train.epochs = 14;
    } else if (model_name == "4M") {
      cfg.train.epochs = 12;
    } else if (model_name == "8M") {
      cfg.train.epochs = 10;
    } else {
      cfg.train.epochs = 8;
    }
  }
  return cfg;
}

core::WorkflowArtifacts run_accuracy_workflow(const std::string& model_name,
                                              bool best_profile) {
  core::Workflow workflow(accuracy_config(model_name, best_profile));
  return workflow.run();
}

MeasuredPerf measure_fpga(const dpu::XModel& xmodel, int threads, int images,
                          int runs, std::uint64_t noise_seed) {
  runtime::SocConfig soc;
  platform::ZcuPowerModel power_model;
  platform::MeasurementModel fps_meter(0.001, noise_seed);
  const double ddr_gbs_per_fps = static_cast<double>(xmodel.total_ddr_bytes()) / 1e9;

  std::vector<double> fps_samples, watt_samples, ee_samples;
  for (int run = 0; run < runs; ++run) {
    const auto report = runtime::simulate_throughput(xmodel, soc, threads, images);
    const double true_watts = power_model.watts(
        report, xmodel.compute_utilization(), ddr_gbs_per_fps * report.fps);
    // Voltcraft-style sampling of the run.
    platform::EnergyLogger logger(0.5, 0.002, noise_seed * 97 + static_cast<std::uint64_t>(run));
    logger.log_phase(true_watts, report.total_seconds);
    const double fps = fps_meter.observe(report.fps);
    const double watts = logger.mean_watts();
    fps_samples.push_back(fps);
    watt_samples.push_back(watts);
    ee_samples.push_back(fps / watts);
  }
  MeasuredPerf perf;
  perf.fps = eval::compute_stats(fps_samples);
  perf.watts = eval::compute_stats(watt_samples);
  perf.ee = eval::compute_stats(ee_samples);
  return perf;
}

MeasuredPerf measure_gpu(nn::Graph& graph, int runs, std::uint64_t noise_seed) {
  platform::GpuModel gpu;
  platform::MeasurementModel fps_meter(0.004, noise_seed);
  platform::MeasurementModel watt_meter(0.008, noise_seed + 1);
  const double true_fps = gpu.fps(graph);
  std::vector<double> fps_samples, watt_samples, ee_samples;
  for (int run = 0; run < runs; ++run) {
    const double fps = fps_meter.observe(true_fps);
    const double watts = watt_meter.observe(gpu.power_watts);
    fps_samples.push_back(fps);
    watt_samples.push_back(watts);
    ee_samples.push_back(fps / watts);
  }
  MeasuredPerf perf;
  perf.fps = eval::compute_stats(fps_samples);
  perf.watts = eval::compute_stats(watt_samples);
  perf.ee = eval::compute_stats(ee_samples);
  return perf;
}

void print_banner(const char* artifact, const char* description) {
  std::printf("\n================================================================\n");
  std::printf("SENECA reproduction — %s\n%s\n", artifact, description);
  std::printf("================================================================\n");
}

// ------------------------------------------------------------- JsonWriter

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

JsonWriter& JsonWriter::obj() {
  if (in_object_) out_ << "}";
  if (array_has_objects_) out_ << ",\n";
  out_ << "  {";
  in_object_ = true;
  object_has_fields_ = false;
  array_has_objects_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
  if (object_has_fields_) out_ << ", ";
  out_ << "\"" << json_escape(k) << "\": ";
  object_has_fields_ = true;
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, const std::string& v) {
  key(k).out_ << "\"" << json_escape(v) << "\"";
  return *this;
}
JsonWriter& JsonWriter::field(const std::string& k, const char* v) {
  return field(k, std::string(v));
}
JsonWriter& JsonWriter::field(const std::string& k, double v) {
  key(k).out_ << v;
  return *this;
}
JsonWriter& JsonWriter::field(const std::string& k, std::int64_t v) {
  key(k).out_ << v;
  return *this;
}
JsonWriter& JsonWriter::field(const std::string& k, std::uint64_t v) {
  key(k).out_ << v;
  return *this;
}
JsonWriter& JsonWriter::field(const std::string& k, int v) {
  return field(k, static_cast<std::int64_t>(v));
}
JsonWriter& JsonWriter::field(const std::string& k, bool v) {
  key(k).out_ << (v ? "true" : "false");
  return *this;
}

std::string JsonWriter::str() const {
  return "[\n" + out_.str() + (in_object_ ? "}" : "") + "\n]\n";
}

void write_json_file(const std::string& path, const std::string& json) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << json;
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace seneca::bench
