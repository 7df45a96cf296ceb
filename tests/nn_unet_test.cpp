// U-Net builder tests: shapes, parameter counts (Table II ratios),
// serialization round-trips including batch-norm running statistics.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/model_zoo.hpp"
#include "nn/unet.hpp"
#include "util/rng.hpp"

namespace seneca::nn {
namespace {

using tensor::Shape;
using tensor::TensorF;

TEST(UNet2D, OutputShapeIsProbabilityMaps) {
  UNet2DConfig cfg;
  cfg.input_size = 32;
  cfg.depth = 3;
  cfg.base_filters = 4;
  auto g = build_unet2d(cfg);
  TensorF x(Shape{32, 32, 1}, 0.1f);
  const TensorF& out = g->forward(x);
  EXPECT_EQ(out.shape(), (Shape{32, 32, 6}));
}

TEST(UNet2D, OutputIsNormalizedPerPixel) {
  UNet2DConfig cfg;
  cfg.input_size = 16;
  cfg.depth = 2;
  cfg.base_filters = 4;
  auto g = build_unet2d(cfg);
  util::Rng rng(5);
  TensorF x(Shape{16, 16, 1});
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  const TensorF& out = g->forward(x);
  for (std::int64_t i = 0; i < 16 * 16; ++i) {
    float sum = 0.f;
    for (int c = 0; c < 6; ++c) sum += out[i * 6 + c];
    ASSERT_NEAR(sum, 1.f, 1e-5);
  }
}

TEST(UNet2D, IndivisibleInputThrows) {
  UNet2DConfig cfg;
  cfg.input_size = 20;  // not divisible by 2^4
  cfg.depth = 4;
  EXPECT_THROW(build_unet2d(cfg), std::invalid_argument);
}

TEST(UNet2D, LayersCountMatchesPaperNomenclature) {
  UNet2DConfig cfg;
  cfg.depth = 4;
  EXPECT_EQ(cfg.layers(), 9);
  cfg.depth = 5;
  EXPECT_EQ(cfg.layers(), 11);
}

TEST(UNet2D, DeterministicForSameSeed) {
  UNet2DConfig cfg;
  cfg.input_size = 16;
  cfg.depth = 2;
  cfg.base_filters = 4;
  cfg.seed = 77;
  auto a = build_unet2d(cfg);
  auto b = build_unet2d(cfg);
  TensorF x(Shape{16, 16, 1}, 0.3f);
  EXPECT_LT(tensor::max_abs_diff(a->forward(x), b->forward(x)), 1e-9);
}

TEST(UNet2D, SeedChangesInit) {
  UNet2DConfig cfg;
  cfg.input_size = 16;
  cfg.depth = 2;
  cfg.base_filters = 4;
  cfg.seed = 1;
  auto a = build_unet2d(cfg);
  cfg.seed = 2;
  auto b = build_unet2d(cfg);
  TensorF x(Shape{16, 16, 1}, 0.3f);
  EXPECT_GT(tensor::max_abs_diff(a->forward(x), b->forward(x)), 1e-6);
}

/// Table II parameter ratios: the paper's totals are 1.034/2.329/4.136/
/// 7.814/16.522 M, i.e. ratios 1 : 2.25 : 4.0 : 7.56 : 16.0 relative to the
/// 1M config. Our standard two-conv-per-stack builder reproduces those
/// ratios (the uniform absolute offset is documented in EXPERIMENTS.md).
TEST(UNet2D, ZooParameterRatiosMatchTableII) {
  std::vector<double> params;
  for (const auto& e : core::model_zoo()) {
    auto g = build_unet2d(core::unet_config(e, 64));
    params.push_back(static_cast<double>(g->num_parameters()));
  }
  ASSERT_EQ(params.size(), 5u);
  const double base = params[0];
  const double paper_base = core::model_zoo()[0].paper_params_millions;
  for (std::size_t i = 1; i < params.size(); ++i) {
    const double ours = params[i] / base;
    const double paper =
        core::model_zoo()[i].paper_params_millions / paper_base;
    EXPECT_NEAR(ours / paper, 1.0, 0.08) << core::model_zoo()[i].name;
  }
}

TEST(UNet2D, ParameterCountIndependentOfInputSize) {
  UNet2DConfig cfg;
  cfg.depth = 3;
  cfg.base_filters = 6;
  cfg.input_size = 32;
  auto a = build_unet2d(cfg);
  cfg.input_size = 64;
  auto b = build_unet2d(cfg);
  EXPECT_EQ(a->num_parameters(), b->num_parameters());
}

TEST(UNet2D, HoldsNoGradientStorageUntilZeroGrad) {
  // Inference, folding and quantization read only the values; a gradient
  // buffer per parameter appears when training first touches it.
  UNet2DConfig cfg;
  cfg.input_size = 16;
  cfg.depth = 2;
  cfg.base_filters = 4;
  auto g = build_unet2d(cfg);
  g->forward(TensorF(Shape{16, 16, 1}, 0.1f));
  ASSERT_FALSE(g->params().empty());
  for (Param* p : g->params()) EXPECT_FALSE(p->has_grad()) << p->name;

  g->zero_grad();
  for (Param* p : g->params()) {
    ASSERT_TRUE(p->has_grad()) << p->name;
    EXPECT_EQ(p->grad().shape(), p->value.shape()) << p->name;
    EXPECT_EQ(tensor::max_abs(p->grad()), 0.f) << p->name;
  }
}

TEST(UNet2D, SaveLoadRoundTripIncludesRunningStats) {
  UNet2DConfig cfg;
  cfg.input_size = 16;
  cfg.depth = 2;
  cfg.base_filters = 4;
  auto g = build_unet2d(cfg);
  util::Rng rng(9);
  TensorF x(Shape{16, 16, 1});
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  // a few training forwards move the BN running statistics
  for (int i = 0; i < 5; ++i) g->forward(x, true);
  const TensorF ref = g->forward(x, false);

  const auto path = std::filesystem::temp_directory_path() / "seneca_unet.w";
  g->save_weights(path);
  auto g2 = build_unet2d(cfg);
  for (Param* p : g2->params()) p->value.fill(0.123f);
  g2->load_weights(path);
  const TensorF out = g2->forward(x, false);
  EXPECT_LT(tensor::max_abs_diff(ref, out), 1e-6);
  std::filesystem::remove(path);
}

TEST(UNet2D, LoadRejectsWrongArchitecture) {
  UNet2DConfig cfg;
  cfg.input_size = 16;
  cfg.depth = 2;
  cfg.base_filters = 4;
  auto g = build_unet2d(cfg);
  const auto path = std::filesystem::temp_directory_path() / "seneca_unet2.w";
  g->save_weights(path);
  cfg.base_filters = 8;
  auto other = build_unet2d(cfg);
  EXPECT_THROW(other->load_weights(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(UNet3D, OutputShape) {
  UNet3DConfig cfg;
  cfg.depth_vox = 8;
  cfg.input_size = 16;
  cfg.depth = 2;
  cfg.base_filters = 4;
  auto g = build_unet3d(cfg);
  TensorF x(Shape{8, 16, 16, 1}, 0.1f);
  const TensorF& out = g->forward(x);
  EXPECT_EQ(out.shape(), (Shape{8, 16, 16, 6}));
}

TEST(UNet3D, OutputNormalized) {
  UNet3DConfig cfg;
  cfg.depth_vox = 4;
  cfg.input_size = 8;
  cfg.depth = 1;
  cfg.base_filters = 4;
  auto g = build_unet3d(cfg);
  util::Rng rng(11);
  TensorF x(Shape{4, 8, 8, 1});
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  const TensorF& out = g->forward(x);
  for (std::int64_t i = 0; i < 4 * 8 * 8; ++i) {
    float sum = 0.f;
    for (int c = 0; c < 6; ++c) sum += out[i * 6 + c];
    ASSERT_NEAR(sum, 1.f, 1e-5);
  }
}

TEST(UNet3D, IndivisibleDimsThrow) {
  UNet3DConfig cfg;
  cfg.depth_vox = 6;  // not divisible by 2^2
  cfg.input_size = 16;
  cfg.depth = 2;
  EXPECT_THROW(build_unet3d(cfg), std::invalid_argument);
}

TEST(ModelZoo, HasFiveEntriesWithPaperLabels) {
  const auto& zoo = core::model_zoo();
  ASSERT_EQ(zoo.size(), 5u);
  EXPECT_EQ(zoo[0].name, "1M");
  EXPECT_EQ(zoo[4].name, "16M");
  EXPECT_EQ(zoo[0].depth, 4);   // 9 layers
  EXPECT_EQ(zoo[1].depth, 5);   // 11 layers
  EXPECT_EQ(zoo[1].base_filters, 6);
  EXPECT_EQ(zoo[3].base_filters, 11);
}

TEST(ModelZoo, UnknownNameThrows) {
  EXPECT_THROW(core::zoo_entry("32M"), std::invalid_argument);
}

}  // namespace
}  // namespace seneca::nn
