// Table III: organ frequencies in the PTQ calibration set before (random
// sampling) and after (manual sampling) the frequency correction.

#include <cstdio>

#include "common.hpp"
#include "data/calibration.hpp"

namespace {

using namespace seneca;

data::Dataset build_pool() {
  data::DatasetConfig cfg;
  cfg.num_volumes = 60;
  cfg.slices_per_volume = 16;
  cfg.resolution = 64;
  return data::build_dataset(cfg);
}

void print_table() {
  bench::print_banner("Table III",
                      "Calibration-set organ frequencies, random vs manual");
  const data::Dataset ds = build_pool();
  const auto random_set = data::sample_calibration_random(ds.train, 120, 5);
  const auto manual_set = data::sample_calibration_manual(ds.train, 120);

  eval::Table table({"Sampling", "Liver", "Bladder", "Lungs", "Kidneys", "Bones"});
  table.add_row({"Paper: Random", "24.38", "3.00", "35.27", "3.63", "33.72"});
  table.add_row({"Ours:  Random",
                 eval::Table::num(random_set.frequencies[0]),
                 eval::Table::num(random_set.frequencies[1]),
                 eval::Table::num(random_set.frequencies[2]),
                 eval::Table::num(random_set.frequencies[3]),
                 eval::Table::num(random_set.frequencies[4])});
  table.add_row({"Paper: Manual", "21.69", "7.66", "32.02", "6.90", "31.73"});
  table.add_row({"Ours:  Manual",
                 eval::Table::num(manual_set.frequencies[0]),
                 eval::Table::num(manual_set.frequencies[1]),
                 eval::Table::num(manual_set.frequencies[2]),
                 eval::Table::num(manual_set.frequencies[3]),
                 eval::Table::num(manual_set.frequencies[4])});
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nManual sampling levels the distribution toward the small organs\n"
      "(bladder, kidneys); the reachable boost is bounded by the phantom\n"
      "pool's bladder-bearing slice count at this scale.\n");
}

}  // namespace

int main() {
  print_table();
  return 0;
}
