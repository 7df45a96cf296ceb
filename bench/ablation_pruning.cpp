// Ablation (the paper's §V future work): structured filter pruning of the
// SENECA model. Sweeps the pruning fraction and reports the throughput /
// energy-efficiency gains on the DPU against the accuracy cost — the
// trade-off the authors propose to explore next.

#include <cstdio>

#include "common.hpp"
#include "dpu/compiler.hpp"
#include "nn/unet.hpp"
#include "quant/pruning.hpp"
#include "quant/quantizer.hpp"

namespace {

using namespace seneca;

void print_table() {
  bench::print_banner("Ablation: filter pruning (paper Sec. V future work)",
                      "Prune fraction vs FPS / EE / DSC on the 1M model");
  auto art = bench::run_accuracy_workflow("1M");

  eval::Table table({"Pruned", "MACs kept", "Weights kept", "FPS (256^2)",
                     "EE [FPS/W]", "Global DSC [%] (phantom)"});
  for (const double fraction : {0.0, 0.125, 0.25, 0.375, 0.5}) {
    quant::PruneOptions popts;
    popts.fraction = fraction;
    // Accuracy: prune the trained 64x64 model, quantize, run on the DPU sim.
    quant::PruneReport report;
    const quant::FGraph pruned = quant::prune(art.folded, popts, &report);
    const quant::QGraph qg = quant::quantize(pruned, art.calibration.images);
    dpu::CompileOptions copts;
    copts.model_name = "1M-pruned";
    const dpu::XModel acc_xm = dpu::compile(qg, copts);
    const double dsc =
        core::evaluate_int8(acc_xm, art.dataset.test).global_dice();

    // Throughput: same pruning fraction applied to the full-resolution
    // graph (channel counts, not weight values, set the timing).
    auto full = nn::build_unet2d(core::unet_config(core::zoo_entry("1M"), 256));
    const quant::FGraph full_folded = quant::fold(*full);
    const quant::FGraph full_pruned = quant::prune(full_folded, popts);
    std::vector<tensor::TensorF> calib;
    tensor::TensorF img(tensor::Shape{256, 256, 1}, 0.5f);
    calib.push_back(img);
    const dpu::XModel timing = dpu::compile(quant::quantize(full_pruned, calib));
    const auto perf = bench::measure_fpga(timing, 4, 2000, 5);

    table.add_row({eval::Table::num(100.0 * fraction, 1) + " %",
                   eval::Table::num(100.0 * (1.0 - report.mac_reduction()), 1) + " %",
                   eval::Table::num(100.0 * (1.0 - report.weight_reduction()), 1) + " %",
                   eval::Table::pm(perf.fps.mean, perf.fps.stddev, 1),
                   eval::Table::pm(perf.ee.mean, perf.ee.stddev),
                   eval::Table::num(100.0 * dsc)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nStructured pruning removes whole filters, so the DPU sees fewer\n"
      "channel groups and less DDR traffic: FPS and EE rise with the pruned\n"
      "fraction while accuracy degrades gracefully until the capacity cliff\n"
      "(no fine-tuning after pruning is applied here).\n");
}

}  // namespace

int main() {
  print_table();
  return 0;
}
