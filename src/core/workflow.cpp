#include "core/workflow.hpp"

#include <sstream>

#include "core/model_zoo.hpp"
#include "util/logging.hpp"

namespace seneca::core {

std::string Workflow::train_cache_key() const {
  std::ostringstream os;
  os << "unet_" << cfg_.model_name << "_s" << cfg_.dataset.resolution << "_v"
     << cfg_.dataset.num_volumes << "_sl" << cfg_.dataset.slices_per_volume
     << "_e" << cfg_.train.epochs << "_seed" << cfg_.dataset.seed << "_m"
     << cfg_.model_seed << (cfg_.weighted_loss ? "_wftl" : "_uftl");
  return os.str();
}

WorkflowArtifacts Workflow::run() {
  WorkflowArtifacts art;

  // --- Step A: dataset. ---
  art.dataset = data::build_dataset(cfg_.dataset);

  // --- Step B: model definition. ---
  const ZooEntry& entry = zoo_entry(cfg_.model_name);
  art.fp32 = nn::build_unet2d(
      unet_config(entry, cfg_.dataset.resolution, cfg_.model_seed));

  // --- Step C: training (with weight cache). ---
  const auto cache_path = cfg_.artifacts_dir / (train_cache_key() + ".weights");
  bool loaded = false;
  if (cfg_.use_cache && std::filesystem::exists(cache_path)) {
    try {
      art.fp32->load_weights(cache_path);
      loaded = true;
      art.trained_from_cache = true;
      util::log_info() << "workflow: loaded cached weights " << cache_path.string();
    } catch (const std::exception& e) {
      util::log_warn() << "workflow: cache load failed (" << e.what()
                       << "), retraining";
    }
  }
  if (!loaded) {
    const auto train_samples = art.dataset.train_samples();
    const auto freq = data::organ_frequencies(art.dataset.train);
    // Class weights: background gets the "large organ" treatment; organ
    // weights are inversely proportional to their pixel frequencies.
    std::vector<double> class_freq(static_cast<std::size_t>(data::kNumClasses));
    double organ_share = 0.0;
    for (std::size_t c = 1; c < class_freq.size(); ++c) {
      class_freq[c] = freq[c] / 100.0;
      organ_share += class_freq[c];
    }
    class_freq[0] = 12.0;  // background dominates every slice; weight ~1/12
    std::unique_ptr<nn::Loss> loss;
    if (cfg_.weighted_loss) {
      loss = nn::make_seneca_loss(class_freq, cfg_.ce_weight);
    } else {
      std::vector<std::unique_ptr<nn::Loss>> parts;
      parts.push_back(std::make_unique<nn::FocalTverskyLoss>(
          nn::FocalTverskyLoss::unweighted(data::kNumClasses)));
      parts.push_back(std::make_unique<nn::CrossEntropyLoss>());
      loss = std::make_unique<nn::CombinedLoss>(
          std::move(parts), std::vector<double>{1.0, cfg_.ce_weight});
    }
    util::log_info() << "workflow: training " << cfg_.model_name << " on "
                     << train_samples.size() << " slices ("
                     << cfg_.train.epochs << " epochs)";
    nn::train(*art.fp32, *loss, train_samples, cfg_.train);
    if (cfg_.use_cache) {
      art.fp32->save_weights(cache_path);
    }
  }

  // --- Step D: quantization. ---
  art.folded = quant::fold(*art.fp32);
  art.calibration =
      cfg_.manual_calibration
          ? data::sample_calibration_manual(art.dataset.train,
                                            cfg_.calibration_images)
          : data::sample_calibration_random(art.dataset.train,
                                            cfg_.calibration_images,
                                            cfg_.calibration_seed);
  quant::QuantizeOptions qopts;
  qopts.mode = cfg_.quant_mode;
  qopts.max_calibration_images = cfg_.calibration_images;
  art.qgraph = quant::quantize(art.folded, art.calibration.images, qopts);

  // --- Step E: compilation. ---
  dpu::CompileOptions copts;
  copts.arch = cfg_.arch;
  copts.model_name = cfg_.model_name;
  art.xmodel = dpu::compile(art.qgraph, copts);
  return art;
}

quant::QGraph build_timing_qgraph(const std::string& model_name,
                                  std::int64_t input_size) {
  const ZooEntry& entry = zoo_entry(model_name);
  quant::FGraph folded =
      quant::fold(nn::build_unet2d(unet_config(entry, input_size)));
  // One synthetic calibration image suffices: fix positions do not affect
  // the timing model.
  std::vector<tensor::TensorF> calib;
  tensor::TensorF img(tensor::Shape{input_size, input_size, 1});
  for (std::int64_t i = 0; i < img.numel(); ++i) {
    img[i] = -1.f + 2.f * static_cast<float>(i % 97) / 96.f;
  }
  calib.push_back(img);
  return quant::quantize(folded, calib);
}

dpu::XModel build_timing_xmodel(const std::string& model_name,
                                const dpu::DpuArch& arch,
                                std::int64_t input_size, int opt_level) {
  const quant::QGraph qg = build_timing_qgraph(model_name, input_size);
  dpu::CompileOptions copts;
  copts.arch = arch;
  copts.model_name = model_name;
  copts.opt_level = opt_level;
  return dpu::compile(qg, copts);
}

}  // namespace seneca::core
