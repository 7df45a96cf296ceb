// Ablation (design-space): how the DPU microarchitecture configuration
// (B512 / B1024 / B4096 — the soft-DSA's configurability the paper credits
// in Sec. II) moves throughput, utilization, and energy efficiency for the
// smallest and largest SENECA models.

#include <cstdio>

#include "common.hpp"
#include "dpu/compiler.hpp"

namespace {

using namespace seneca;

void print_table() {
  bench::print_banner("Ablation: DPU architecture sweep",
                      "B512 vs B1024 vs B4096 (4 threads, 2000 images)");
  eval::Table table({"Model", "Arch", "Peak TOPS", "FPS", "Watt", "EE [FPS/W]",
                     "Array util"});
  for (const char* model : {"1M", "16M"}) {
    for (const dpu::DpuArch& arch :
         {dpu::DpuArch::b512(), dpu::DpuArch::b1024(), dpu::DpuArch::b4096()}) {
      const dpu::XModel xm = core::build_timing_xmodel(model, arch);
      const auto perf = bench::measure_fpga(xm, 4, 2000, 10);
      table.add_row({model, arch.name, eval::Table::num(arch.peak_tops(), 2),
                     eval::Table::pm(perf.fps.mean, perf.fps.stddev),
                     eval::Table::pm(perf.watts.mean, perf.watts.stddev),
                     eval::Table::pm(perf.ee.mean, perf.ee.stddev),
                     eval::Table::num(100.0 * xm.compute_utilization(), 1) + " %"});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nSmall models underutilize the wide B4096 array (lane quantization:\n"
      "few channels per 16-lane group), so the architecture gain from B512\n"
      "to B4096 is far below the 8x peak-TOPS ratio for the 1M network but\n"
      "approaches it for the dense 16M network.\n");
}

}  // namespace

int main() {
  print_table();
  return 0;
}
