// Figure 4: DSC x Energy-Efficiency (Eq. 7) for the five 4-thread FPGA
// configurations — the model-selection criterion that crowns the 1M model
// as SENECA.

#include <cstdio>

#include "common.hpp"

namespace {

using namespace seneca;

void print_figure() {
  bench::print_banner("Figure 4",
                      "DSC * EE for the 4-thread ZCU104 configurations");
  // Paper values derived from Table IV: DSC(frac) * EE.
  const double paper_product[] = {0.9304 * 11.81, 0.9301 * 10.27,
                                  0.9349 * 9.57, 0.9365 * 4.57,
                                  0.9384 * 3.17};
  eval::Table table({"Config", "DSC [frac]", "EE [FPS/W]", "DSC*EE (ours)",
                     "DSC*EE (paper)"});
  std::vector<double> products;
  int idx = 0;
  for (const auto& entry : core::model_zoo()) {
    const dpu::XModel xm = core::build_timing_xmodel(entry.name);
    const auto fpga = bench::measure_fpga(xm, 4, 2000, 10);
    auto art = bench::run_accuracy_workflow(entry.name);
    const double dsc = core::evaluate_int8(art.xmodel, art.dataset.test).global_dice();
    const double product = dsc * fpga.ee.mean;
    products.push_back(product);
    table.add_row({entry.name, eval::Table::num(dsc, 3),
                   eval::Table::num(fpga.ee.mean),
                   eval::Table::num(product),
                   eval::Table::num(paper_product[idx++])});
  }
  std::printf("%s", table.render().c_str());

  std::printf("\nDSC*EE (one bar per config):\n");
  idx = 0;
  for (const auto& entry : core::model_zoo()) {
    const double v = products[static_cast<std::size_t>(idx++)];
    std::printf("%-4s %6.2f %s\n", entry.name.c_str(), v,
                std::string(static_cast<std::size_t>(v * 5.0 + 0.5), '#').c_str());
  }
  const double best_vs_worst = products.front() / products.back();
  std::printf(
      "\n1M vs 16M improvement: %.2fx (paper: 3.7x). The 1M model is the\n"
      "best accuracy-efficiency trade-off and becomes SENECA (Sec. IV-C).\n",
      best_vs_worst);
}

}  // namespace

int main() {
  print_figure();
  return 0;
}
