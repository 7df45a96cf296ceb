// Figure 6: per-organ Dice-score boxplots for SENECA (the 1M INT8 model)
// over per-patient test cases, rendered as ASCII boxplots.

#include <cstdio>

#include "common.hpp"
#include "data/organs.hpp"

namespace {

using namespace seneca;

void print_figure() {
  bench::print_banner("Figure 6",
                      "Per-organ DSC boxplots of SENECA over test patients");
  auto art = bench::run_accuracy_workflow("1M", /*best_profile=*/true);
  const auto samples = core::per_case_organ_dice_int8(art.xmodel, art.dataset.test);

  // Paper medians (Table V per-organ DSC as anchors).
  const double paper_dsc[] = {0.0, 91.63, 79.21, 96.16, 81.30, 94.35};

  eval::Table table({"Organ", "Cases", "Median", "Q1", "Q3", "Min", "Max",
                     "Paper mean"});
  std::printf("DSC, 0 %%  ........................................  100 %%\n");
  for (std::int64_t c = 1; c < data::kNumClasses; ++c) {
    const auto& organ_samples = samples[static_cast<std::size_t>(c)];
    if (organ_samples.empty()) continue;
    const auto box = eval::compute_boxplot(organ_samples);
    std::printf("%-8s %s\n", std::string(data::organ_name(static_cast<std::int32_t>(c))).c_str(),
                eval::render_boxplot(box, 0.0, 1.0, 52).c_str());
    table.add_row({std::string(data::organ_name(static_cast<std::int32_t>(c))),
                   std::to_string(box.n),
                   eval::Table::num(100.0 * box.median, 1),
                   eval::Table::num(100.0 * box.q1, 1),
                   eval::Table::num(100.0 * box.q3, 1),
                   eval::Table::num(100.0 * box.minimum, 1),
                   eval::Table::num(100.0 * box.maximum, 1),
                   eval::Table::num(paper_dsc[c], 1)});
  }
  std::printf("\n%s", table.render().c_str());

  // Paper's imbalance observation: lungs are 13.6x more frequent than the
  // bladder but have only 1.21x its DSC.
  const auto lungs = eval::compute_boxplot(samples[3]);
  const auto bladder = eval::compute_boxplot(samples[2]);
  if (bladder.median > 0.0) {
    std::printf(
        "\nlungs/bladder DSC ratio: %.2fx (paper: 1.21x, against a 13.6x\n"
        "frequency imbalance) — the weighted Focal Tversky loss at work.\n",
        lungs.median / bladder.median);
  }
}

}  // namespace

int main() {
  print_figure();
  return 0;
}
