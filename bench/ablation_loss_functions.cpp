// Ablation (§III-C): training-loss comparison. Trains the same small U-Net
// under cross-entropy, Dice, unweighted Focal Tversky, and the paper's
// class-weighted Focal Tversky (+CE sharpening), then compares per-organ
// DSC — the claim being that the weighted loss rescues the rare organs
// (bladder, kidneys) from the class-imbalance collapse.

#include <cstdio>
#include <filesystem>

#include "common.hpp"
#include "nn/unet.hpp"

namespace {

using namespace seneca;

struct Arm {
  const char* name;
  std::unique_ptr<nn::Loss> loss;
};

void print_table() {
  bench::print_banner("Ablation: training losses",
                      "CE vs Dice vs unweighted FTL vs weighted FTL (+CE)");
  data::DatasetConfig dcfg;
  dcfg.num_volumes = 20;
  dcfg.slices_per_volume = 12;
  dcfg.resolution = 64;
  const data::Dataset ds = data::build_dataset(dcfg);
  const auto train_samples = ds.train_samples();
  const auto freq = data::organ_frequencies(ds.train);
  std::vector<double> class_freq(static_cast<std::size_t>(data::kNumClasses));
  for (std::size_t c = 1; c < class_freq.size(); ++c) class_freq[c] = freq[c] / 100.0;
  class_freq[0] = 12.0;

  std::vector<Arm> arms;
  arms.push_back({"CrossEntropy", std::make_unique<nn::CrossEntropyLoss>()});
  arms.push_back({"Dice", std::make_unique<nn::DiceLoss>()});
  arms.push_back({"FTL unweighted",
                  std::make_unique<nn::FocalTverskyLoss>(
                      nn::FocalTverskyLoss::unweighted(data::kNumClasses))});
  arms.push_back({"FTL weighted +CE (SENECA)", nn::make_seneca_loss(class_freq)});

  eval::Table table({"Loss", "Global DSC [%]", "Liver", "Bladder", "Lungs",
                     "Kidneys", "Bones"});
  std::filesystem::create_directories("artifacts");
  for (auto& arm : arms) {
    nn::UNet2DConfig mcfg = core::unet_config(core::zoo_entry("1M"), 64);
    auto graph = nn::build_unet2d(mcfg);
    // Manual weight cache (these arms bypass the Workflow).
    std::string key = arm.name;
    for (auto& ch : key) {
      if (ch == ' ' || ch == '(' || ch == ')' || ch == '+') ch = '_';
    }
    const std::filesystem::path cache = "artifacts/lossabl_" + key + ".weights";
    if (std::filesystem::exists(cache)) {
      graph->load_weights(cache);
    } else {
      nn::TrainOptions topts;
      topts.epochs = 10;
      topts.learning_rate = 2e-3f;
      topts.lr_decay = 0.95f;
      nn::train(*graph, *arm.loss, train_samples, topts);
      graph->save_weights(cache);
    }
    auto ev = core::evaluate_fp32(*graph, ds.test);
    const auto d = ev.dice_per_class();
    table.add_row({arm.name, eval::Table::num(100.0 * ev.global_dice()),
                   eval::Table::num(100.0 * d[1]), eval::Table::num(100.0 * d[2]),
                   eval::Table::num(100.0 * d[3]), eval::Table::num(100.0 * d[4]),
                   eval::Table::num(100.0 * d[5])});
    std::printf("  %-26s done\n", arm.name);
  }
  std::printf("\n%s", table.render().c_str());
  std::printf(
      "\nExpected shape: unweighted losses favour the frequent organs\n"
      "(lungs/bones); the weighted Focal Tversky loss lifts the small-organ\n"
      "columns (bladder, kidneys) — §III-C / Fig. 6 discussion.\n");
}

}  // namespace

int main() {
  print_table();
  return 0;
}
