// Table II: layers, filters and parameter totals of the five SENECA model
// configurations. Our standard two-conv-per-stack U-Net matches the paper's
// parameter RATIOS exactly (1 : 2.25 : 4 : 7.56 : 16); the uniform absolute
// offset is discussed in EXPERIMENTS.md.

#include <cstdio>

#include "common.hpp"
#include "nn/unet.hpp"

namespace {

using namespace seneca;

void print_table() {
  bench::print_banner("Table II",
                      "Layers, filters and parameters of the model family");
  eval::Table table({"Config", "Layers", "Filters", "Paper params [x10^6]",
                     "Ours [x10^6]", "Ours ratio", "Paper ratio"});
  double base_ours = 0.0;
  const double base_paper = core::model_zoo()[0].paper_params_millions;
  for (const auto& entry : core::model_zoo()) {
    auto graph = nn::build_unet2d(core::unet_config(entry, 64));
    const double params = static_cast<double>(graph->num_parameters()) / 1e6;
    if (base_ours == 0.0) base_ours = params;
    table.add_row({entry.name, std::to_string(2 * entry.depth + 1),
                   std::to_string(entry.base_filters),
                   eval::Table::num(entry.paper_params_millions, 3),
                   eval::Table::num(params, 3),
                   eval::Table::num(params / base_ours),
                   eval::Table::num(entry.paper_params_millions / base_paper)});
  }
  std::printf("%s", table.render().c_str());
}

}  // namespace

int main() {
  print_table();
  return 0;
}
