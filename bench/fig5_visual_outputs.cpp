// Figure 5: visual comparison — for sample CT slices, writes the input
// slice, the ground-truth segmentation, the INT8 SENECA output, and the
// FP32 output as PGM/PPM images (liver red, bladder green, lungs blue,
// kidneys yellow, bones white), under bench_outputs/fig5/.

#include <cstdio>
#include <filesystem>

#include "common.hpp"
#include "tensor/image_io.hpp"

namespace {

using namespace seneca;

void print_figure() {
  bench::print_banner("Figure 5",
                      "Visual segmentations: input / ground truth / INT8 / FP32");
  auto art = bench::run_accuracy_workflow("1M", /*best_profile=*/true);
  dpu::DpuCoreSim core(&art.xmodel);
  const std::filesystem::path dir = "bench_outputs/fig5";
  std::filesystem::create_directories(dir);

  // Pick test slices covering different organ groups: chest, upper
  // abdomen, pelvis.
  std::vector<std::size_t> picks;
  auto pick_near = [&](double z_target) {
    std::size_t best = 0;
    double best_d = 1e9;
    for (std::size_t i = 0; i < art.dataset.test.size(); ++i) {
      const double d = std::fabs(art.dataset.test[i].z - z_target);
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    picks.push_back(best);
  };
  pick_near(0.30);  // lungs + bones
  pick_near(0.50);  // liver
  pick_near(0.65);  // kidneys
  pick_near(0.85);  // bladder + pelvis

  int row = 0;
  for (std::size_t idx : picks) {
    const auto& rec = art.dataset.test[idx];
    const auto p8 = core::predict_int8(core, rec.sample.image);
    const auto p32 = core::predict_fp32(*art.fp32, rec.sample.image);
    char name[128];
    std::snprintf(name, sizeof name, "row%d_z%.2f", row, rec.z);
    tensor::write_pgm(dir / (std::string(name) + "_input.pgm"), rec.sample.image);
    tensor::write_ppm(dir / (std::string(name) + "_truth.ppm"),
                      tensor::render_segmentation(rec.sample.image, rec.sample.labels));
    tensor::write_ppm(dir / (std::string(name) + "_int8.ppm"),
                      tensor::render_segmentation(rec.sample.image, p8));
    tensor::write_ppm(dir / (std::string(name) + "_fp32.ppm"),
                      tensor::render_segmentation(rec.sample.image, p32));
    // pixel agreement between the two deployments for this slice
    std::int64_t agree = 0;
    for (std::int64_t i = 0; i < p8.numel(); ++i) agree += (p8[i] == p32[i]);
    std::printf("  %s: INT8/FP32 pixel agreement %.2f %%\n", name,
                100.0 * static_cast<double>(agree) / static_cast<double>(p8.numel()));
    ++row;
  }
  std::printf("\nwrote %d slice rows (input/truth/int8/fp32) to %s\n", row,
              dir.string().c_str());
  std::printf("colors: liver red, bladder green, lungs blue, kidneys yellow, bones white\n");
}

}  // namespace

int main() {
  print_figure();
  return 0;
}
