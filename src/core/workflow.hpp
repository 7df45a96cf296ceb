#pragma once
// The SENECA workflow (Fig. 1): the paper's primary contribution as a
// one-call API.
//   A. data preparation & pre-processing      (src/data)
//   B. FP32 U-Net definition                  (src/nn, model zoo)
//   C. training with weighted Focal Tversky   (src/nn)
//   D. INT8 quantization with a calibration   (src/quant)
//      set (random or frequency-corrected)
//   E. compilation to the DPU and deployment  (src/dpu, src/runtime)
//
// Trained weights are content-addressed and cached under artifacts_dir so
// repeated benches reuse them.

#include <filesystem>
#include <memory>

#include "data/calibration.hpp"
#include "data/dataset.hpp"
#include "dpu/compiler.hpp"
#include "nn/trainer.hpp"
#include "quant/quantizer.hpp"

namespace seneca::core {

struct WorkflowConfig {
  // Step A.
  data::DatasetConfig dataset;
  // Step B. Paper label from the model zoo and the network input size.
  std::string model_name = "1M";
  std::uint64_t model_seed = 42;
  // Step C.
  nn::TrainOptions train;
  bool weighted_loss = true;  // weighted Focal Tversky (false: unweighted)
  double ce_weight = 0.4;     // cross-entropy sharpening term
  // Step D.
  quant::QuantMode quant_mode = quant::QuantMode::kPTQ;
  std::size_t calibration_images = 500;
  bool manual_calibration = true;  // Table III frequency-corrected sampling
  std::uint64_t calibration_seed = 5;
  // Step E.
  dpu::DpuArch arch = dpu::DpuArch::b4096();
  // Caching.
  std::filesystem::path artifacts_dir = "artifacts";
  bool use_cache = true;
};

struct WorkflowArtifacts {
  data::Dataset dataset;
  std::unique_ptr<nn::Graph> fp32;  // trained FP32 network
  quant::FGraph folded;
  quant::QGraph qgraph;
  dpu::XModel xmodel;
  data::CalibrationSet calibration;
  bool trained_from_cache = false;
};

class Workflow {
 public:
  explicit Workflow(WorkflowConfig cfg) : cfg_(std::move(cfg)) {}

  /// Runs steps A-E (training cached by configuration fingerprint).
  WorkflowArtifacts run();

  const WorkflowConfig& config() const { return cfg_; }

  /// Cache key for the trained weights of this configuration.
  std::string train_cache_key() const;

 private:
  WorkflowConfig cfg_;
};

/// Builds + quantizes an *untrained* model of the given zoo name — the
/// QGraph fed to the compiler, for benches that compile the same graph at
/// several optimization levels (bench/compiler_passes). The fold consumes
/// the FP32 graph, so its weights are held once, never twice.
quant::QGraph build_timing_qgraph(const std::string& model_name,
                                  std::int64_t input_size = 256);

/// Builds + quantizes + compiles an *untrained* model of the given zoo name
/// at full 256x256 resolution — sufficient for timing/energy experiments,
/// whose results are weight-independent.
dpu::XModel build_timing_xmodel(const std::string& model_name,
                                const dpu::DpuArch& arch = dpu::DpuArch::b4096(),
                                std::int64_t input_size = 256,
                                int opt_level = 1);

}  // namespace seneca::core
