// Table I: organ frequencies in the CT-ORG dataset, expressed as pixel
// percentage of labeled targets. Reproduced over the full 140-volume
// phantom dataset (labels only, so a reduced raster is exact enough).

#include <cstdio>

#include "common.hpp"
#include "data/dataset.hpp"
#include "data/organs.hpp"

namespace {

using namespace seneca;

void print_table() {
  bench::print_banner("Table I",
                      "Organ frequencies as % of labeled pixels, 140 volumes");
  const auto freq = data::raw_organ_frequencies(140, 24, 128, 1234);
  eval::Table table({"Organ", "Paper [%]", "Ours [%]"});
  const char* organs[] = {"Liver", "Bladder", "Lungs", "Kidneys", "Bones", "Brain"};
  for (int i = 0; i < 6; ++i) {
    table.add_row({organs[i],
                   eval::Table::num(data::kPaperOrganFrequencies[static_cast<std::size_t>(i)]),
                   eval::Table::num(freq[static_cast<std::size_t>(i)])});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nThe brain is underrepresented (%.2f %% vs liver %.2f %%) because\n"
      "whole-body scans are rare — the reason the paper drops it (Sec. III-A).\n",
      freq[5], freq[0]);
}

}  // namespace

int main() {
  print_table();
  return 0;
}
