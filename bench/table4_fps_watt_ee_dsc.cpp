// Table IV: FPS, Watt, energy efficiency, and DSC for the FP32 model (RTX
// 2060 Mobile) vs the INT8 model (ZCU104, 4 threads), across all five
// configurations — mean +/- std of 10 runs.
//
// Performance/energy rows run the full 256x256 pipeline through the
// calibrated timing models; DSC rows come from the accuracy workflow
// (64x64 phantom, cached after the first run — expect several minutes of
// one-time training when the cache is cold).

#include <cstdio>

#include "common.hpp"
#include "nn/unet.hpp"

namespace {

using namespace seneca;

struct PaperRow {
  double fps32, fps8, w32, w8, ee32, ee8, dsc32, dsc8;
};

// Table IV reference values.
const PaperRow kPaper[] = {
    {72.20, 335.40, 78.01, 28.40, 0.93, 11.81, 92.98, 93.04},
    {77.45, 254.87, 77.63, 24.82, 1.00, 10.27, 92.98, 93.01},
    {65.90, 273.17, 77.94, 28.54, 0.85, 9.57, 93.41, 93.49},
    {52.22, 127.91, 77.56, 28.00, 0.67, 4.57, 93.53, 93.65},
    {37.23, 98.12, 77.99, 30.98, 0.48, 3.17, 93.76, 93.84},
};

void print_table() {
  bench::print_banner(
      "Table IV",
      "FP32 (GPU) vs INT8 (ZCU104, 4 threads): FPS / Watt / EE / DSC");
  eval::Table table({"Config", "Metric", "FP32 (ours)", "FP32 (paper)",
                     "INT8 (ours)", "INT8 (paper)"});
  int idx = 0;
  for (const auto& entry : core::model_zoo()) {
    const PaperRow& paper = kPaper[idx++];
    // Performance at full resolution.
    const dpu::XModel xm = core::build_timing_xmodel(entry.name);
    const auto fpga = bench::measure_fpga(xm, 4, 2000, 10,
                                          static_cast<std::uint64_t>(idx));
    auto gpu_graph = nn::build_unet2d(core::unet_config(entry, 256));
    const auto gpu = bench::measure_gpu(*gpu_graph, 10,
                                        static_cast<std::uint64_t>(idx) + 50);
    // Accuracy at bench scale (cached training).
    auto art = bench::run_accuracy_workflow(entry.name);
    auto ev32 = core::evaluate_fp32(*art.fp32, art.dataset.test);
    auto ev8 = core::evaluate_int8(art.xmodel, art.dataset.test);

    table.add_row({entry.name, "FPS",
                   eval::Table::pm(gpu.fps.mean, gpu.fps.stddev),
                   eval::Table::num(paper.fps32),
                   eval::Table::pm(fpga.fps.mean, fpga.fps.stddev),
                   eval::Table::num(paper.fps8)});
    table.add_row({"", "Watt",
                   eval::Table::pm(gpu.watts.mean, gpu.watts.stddev),
                   eval::Table::num(paper.w32),
                   eval::Table::pm(fpga.watts.mean, fpga.watts.stddev),
                   eval::Table::num(paper.w8)});
    table.add_row({"", "EE [FPS/W]",
                   eval::Table::pm(gpu.ee.mean, gpu.ee.stddev),
                   eval::Table::num(paper.ee32),
                   eval::Table::pm(fpga.ee.mean, fpga.ee.stddev),
                   eval::Table::num(paper.ee8)});
    table.add_row({"", "DSC [%] (phantom)",
                   eval::Table::num(100.0 * ev32.global_dice()),
                   eval::Table::num(paper.dsc32),
                   eval::Table::num(100.0 * ev8.global_dice()),
                   eval::Table::num(paper.dsc8)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nShapes to check against the paper: INT8 always beats FP32 on FPS and\n"
      "EE; FPS falls with model size; power is flat on the GPU and ~25-31 W\n"
      "on the board; INT8 DSC tracks FP32 within measurement spread.\n"
      "(Absolute DSC differs from the paper: synthetic phantom at reduced\n"
      "training scale — see EXPERIMENTS.md.)\n");
}

}  // namespace

int main() {
  print_table();
  return 0;
}
