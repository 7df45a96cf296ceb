// Table V: SENECA (best model, INT8 on the ZCU104 with 4 threads) vs its
// FP32 GPU counterpart vs the CT-ORG 3D U-Net baseline [17].
//
// The 3D baseline is trained here from scratch on phantom *volumes* with an
// unweighted Dice loss (the CT-ORG recipe has no class weighting), which is
// the mechanism behind its poor small-organ DSC and high per-case variance.
// Also reports SENECA's global TPR/TNR (Sec. IV-D).

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>

#include "common.hpp"
#include "nn/unet.hpp"

namespace {

using namespace seneca;

// ------------------------------------------------------ 3D baseline ------

struct VolumeSample {
  nn::Sample sample;  // DHWC image + DHW labels
  int patient_id;
};

/// Stacks preprocessed phantom slices into 3D training volumes.
std::vector<VolumeSample> build_volumes(int num, std::int64_t d,
                                        std::int64_t s, std::uint64_t seed) {
  data::PhantomConfig pcfg;
  pcfg.resolution = s;
  pcfg.slices_per_volume = static_cast<int>(d);
  data::PhantomGenerator gen(pcfg, seed);
  std::vector<VolumeSample> out;
  for (int p = 0; p < num; ++p) {
    const data::PhantomVolume vol = gen.generate_volume(p);
    VolumeSample v;
    v.patient_id = p;
    v.sample.image = tensor::TensorF(tensor::Shape{d, s, s, 1});
    v.sample.labels = nn::LabelMap(tensor::Shape{d, s, s});
    for (std::int64_t z = 0; z < d; ++z) {
      const nn::Sample slice = data::preprocess_slice(vol.slices[static_cast<std::size_t>(z)]);
      std::copy(slice.image.begin(), slice.image.end(),
                v.sample.image.begin() + z * s * s);
      std::copy(slice.labels.begin(), slice.labels.end(),
                v.sample.labels.begin() + z * s * s);
    }
    out.push_back(std::move(v));
  }
  return out;
}

struct OrganStats {
  eval::RunStats per_organ[6];
  double global_dice = 0.0;
};

/// Per-organ DSC mean +/- std across cases from per-case sample lists.
OrganStats organ_stats(const std::vector<std::vector<double>>& samples,
                       double global) {
  OrganStats st;
  for (std::int64_t c = 1; c < 6; ++c) {
    st.per_organ[c] = eval::compute_stats(samples[static_cast<std::size_t>(c)]);
  }
  st.global_dice = global;
  return st;
}

void print_table() {
  bench::print_banner("Table V",
                      "SENECA (FPGA) vs GPU counterpart vs CT-ORG 3D U-Net");

  // --- SENECA best model (deep-training profile). ---
  auto art = bench::run_accuracy_workflow("1M", /*best_profile=*/true);
  const dpu::XModel timing = core::build_timing_xmodel("1M");
  const auto fpga_perf = bench::measure_fpga(timing, 4, 2000, 10);
  auto gpu_graph = nn::build_unet2d(core::unet_config(core::zoo_entry("1M"), 256));
  const auto gpu_perf = bench::measure_gpu(*gpu_graph);

  auto ev8 = core::evaluate_int8(art.xmodel, art.dataset.test);
  auto ev32 = core::evaluate_fp32(*art.fp32, art.dataset.test);
  const auto int8_cases = core::per_case_organ_dice_int8(art.xmodel, art.dataset.test);
  const OrganStats seneca_stats = organ_stats(int8_cases, ev8.global_dice());

  // FP32 per-case stats.
  std::map<int, eval::SegmentationEvaluator> fp32_cases;
  for (const auto& rec : art.dataset.test) {
    auto [it, ins] = fp32_cases.try_emplace(rec.patient_id,
                                            eval::SegmentationEvaluator(6));
    it->second.add(core::predict_fp32(*art.fp32, rec.sample.image), rec.sample.labels);
  }
  std::vector<std::vector<double>> fp32_samples(6);
  for (auto& [p, ev] : fp32_cases) {
    for (std::int64_t c = 1; c < 6; ++c) {
      if (ev.counts(c).tp + ev.counts(c).fn == 0) continue;
      fp32_samples[static_cast<std::size_t>(c)].push_back(ev.counts(c).dice());
    }
  }
  const OrganStats gpu_stats = organ_stats(fp32_samples, ev32.global_dice());

  // --- 3D U-Net baseline (unweighted Dice, trained on volumes). ---
  std::printf("training CT-ORG-style 3D U-Net baseline (unweighted Dice)...\n");
  const std::int64_t D = 16, S = 32;
  auto volumes = build_volumes(18, D, S, 777);
  std::vector<nn::Sample> train3d;
  std::vector<VolumeSample> test3d;
  for (std::size_t i = 0; i < volumes.size(); ++i) {
    if (i < 12) {
      train3d.push_back(volumes[i].sample);
    } else {
      test3d.push_back(volumes[i]);
    }
  }
  nn::UNet3DConfig cfg3d;
  cfg3d.depth_vox = D;
  cfg3d.input_size = S;
  cfg3d.depth = 2;
  cfg3d.base_filters = 8;
  auto net3d = nn::build_unet3d(cfg3d);
  const std::filesystem::path cache = "artifacts/ctorg3d_baseline.weights";
  std::filesystem::create_directories("artifacts");
  if (std::filesystem::exists(cache)) {
    net3d->load_weights(cache);
  } else {
    nn::DiceLoss dice;
    nn::TrainOptions topts;
    topts.epochs = 16;
    topts.learning_rate = 2e-3f;
    topts.lr_decay = 0.93f;
    nn::train(*net3d, dice, train3d, topts);
    net3d->save_weights(cache);
  }
  eval::SegmentationEvaluator ev3d(6);
  std::vector<std::vector<double>> samples3d(6);
  for (const auto& v : test3d) {
    eval::SegmentationEvaluator case_ev(6);
    const auto pred = nn::predict_labels(net3d->forward(v.sample.image, false));
    case_ev.add(pred, v.sample.labels);
    ev3d.add(pred, v.sample.labels);
    for (std::int64_t c = 1; c < 6; ++c) {
      if (case_ev.counts(c).tp + case_ev.counts(c).fn == 0) continue;
      samples3d[static_cast<std::size_t>(c)].push_back(case_ev.counts(c).dice());
    }
  }
  const OrganStats ctorg_stats = organ_stats(samples3d, ev3d.global_dice());

  // 3D U-Net throughput on the GPU model: per-volume latency at an
  // inference-scale graph, FPS = slices/volume / latency, on 4 GPUs as in
  // [17] (model unspecified there; we reuse the RTX 2060 Mobile model).
  // [17]'s 3D U-Net runs at clinical scale; size the timing graph
  // accordingly (depth-3, base-16, 32x256x256 tiles).
  nn::UNet3DConfig infer3d;
  infer3d.depth = 3;
  infer3d.base_filters = 16;
  infer3d.input_size = 256;
  infer3d.depth_vox = 32;
  auto net3d_infer = nn::build_unet3d(infer3d);
  platform::GpuModel gpu_model;
  const double vol_seconds = gpu_model.inference_seconds(*net3d_infer);
  const double fps3d_4gpu = 4.0 * static_cast<double>(infer3d.depth_vox) / vol_seconds;

  // --- The table. ---
  eval::Table table({"Metric", "FPGA (SENECA)", "GPU (FP32)", "CT-ORG 3D U-Net",
                     "Paper FPGA", "Paper GPU", "Paper CT-ORG"});
  table.add_row({"FPS", eval::Table::pm(fpga_perf.fps.mean, fpga_perf.fps.stddev),
                 eval::Table::pm(gpu_perf.fps.mean, gpu_perf.fps.stddev),
                 eval::Table::num(fps3d_4gpu, 1) + " (4 GPUs)",
                 "335.4 +/- 0.34", "72.20 +/- 0.47", "[17-197]"});
  table.add_row({"Energy Efficiency",
                 eval::Table::pm(fpga_perf.ee.mean, fpga_perf.ee.stddev),
                 eval::Table::pm(gpu_perf.ee.mean, gpu_perf.ee.stddev), "n/a",
                 "11.81 +/- 0.02", "0.93 +/- 0.01", "n/a"});
  table.add_row({"Global DSC [%]",
                 eval::Table::num(100.0 * seneca_stats.global_dice),
                 eval::Table::num(100.0 * gpu_stats.global_dice),
                 eval::Table::num(100.0 * ctorg_stats.global_dice),
                 "93.04 +/- 0.07", "92.98 +/- 0.16", "88.17 +/- 5.16"});
  const char* organ_names[] = {"", "Liver DSC", "Bladder DSC", "Lungs DSC",
                               "Kidneys DSC", "Bones DSC"};
  const char* paper_fpga[] = {"", "91.63", "79.21", "96.16", "81.3", "94.35"};
  const char* paper_gpu[] = {"", "91.01", "83.25", "95.93", "82.02", "94.64"};
  const char* paper_ctorg[] = {"", "92.0 +/- 3.6", "58.1 +/- 22.3",
                               "93.8 +/- 5.9", "88.2 +/- 7.9", "82.7 +/- 7.6"};
  for (std::int64_t c = 1; c < 6; ++c) {
    table.add_row({organ_names[c],
                   eval::Table::pm(100.0 * seneca_stats.per_organ[c].mean,
                                   100.0 * seneca_stats.per_organ[c].stddev, 1),
                   eval::Table::pm(100.0 * gpu_stats.per_organ[c].mean,
                                   100.0 * gpu_stats.per_organ[c].stddev, 1),
                   eval::Table::pm(100.0 * ctorg_stats.per_organ[c].mean,
                                   100.0 * ctorg_stats.per_organ[c].stddev, 1),
                   paper_fpga[c], paper_gpu[c], paper_ctorg[c]});
  }
  std::printf("%s", table.render().c_str());

  std::printf("\nSENECA global TPR %.2f %% / TNR %.2f %% (paper: 93.06 / 99.75)\n",
              100.0 * ev8.global_tpr(), 100.0 * ev8.global_tnr());
  std::printf("FPS speedup FPGA/GPU: %.2fx (paper 4.65x); EE ratio %.1fx (paper 12.7x)\n",
              fpga_perf.fps.mean / gpu_perf.fps.mean,
              fpga_perf.ee.mean / gpu_perf.ee.mean);
  std::printf(
      "Shape check vs [17]: the unweighted-Dice 3D baseline shows larger\n"
      "per-case std and a weak bladder, while SENECA's weighted loss keeps\n"
      "small organs competitive with low variance.\n");
}

}  // namespace

int main() {
  print_table();
  return 0;
}
