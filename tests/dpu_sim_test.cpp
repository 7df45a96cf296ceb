// DPU core simulator tests. The central property is BIT-EXACTNESS: the
// functional core model must produce byte-identical outputs to the
// quantized reference executor (quant::QGraph), across seeds/sizes
// (parameterized) and across an xmodel save/load round trip.
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <string>

#include "dpu/compiler.hpp"
#include "dpu/core_sim.hpp"
#include "nn/unet.hpp"
#include "quant/quantizer.hpp"
#include "util/rng.hpp"

namespace seneca::dpu {
namespace {

using tensor::Shape;
using tensor::TensorF;
using tensor::TensorI8;

struct Built {
  quant::QGraph qgraph;
  XModel xmodel;
  std::int64_t size;
};

Built build(std::uint64_t seed, std::int64_t size, int depth,
            std::int64_t filters) {
  nn::UNet2DConfig cfg;
  cfg.input_size = size;
  cfg.depth = depth;
  cfg.base_filters = filters;
  cfg.seed = seed;
  auto graph = nn::build_unet2d(cfg);
  for (int i = 0; i < 3; ++i) {
    util::Rng rng(seed + 31 + static_cast<std::uint64_t>(i));
    TensorF x(Shape{size, size, 1});
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
    graph->forward(x, true);
  }
  quant::FGraph fg = quant::fold(*graph);
  std::vector<TensorF> calib;
  util::Rng rng(seed + 77);
  TensorF img(Shape{size, size, 1});
  for (auto& v : img) v = static_cast<float>(rng.uniform(-1, 1));
  calib.push_back(img);
  Built b;
  b.qgraph = quant::quantize(fg, calib);
  b.xmodel = compile(b.qgraph);
  b.size = size;
  return b;
}

TensorI8 random_input(std::int64_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  TensorI8 x(Shape{size, size, 1});
  for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return x;
}

class BitExactness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitExactness, CoreSimMatchesQGraphReference) {
  const std::uint64_t seed = GetParam();
  const Built b = build(seed, 16, 2, 4);
  DpuCoreSim core(&b.xmodel);
  for (int trial = 0; trial < 3; ++trial) {
    const TensorI8 input = random_input(16, seed * 100 + static_cast<std::uint64_t>(trial));
    const TensorI8 ref = b.qgraph.forward(input);
    const RunResult result = core.run(input);
    ASSERT_EQ(result.output.shape(), ref.shape());
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
      ASSERT_EQ(result.output[i], ref[i]) << "seed " << seed << " elem " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitExactness,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

class BitExactnessShapes
    : public ::testing::TestWithParam<std::tuple<std::int64_t, int, std::int64_t>> {};

TEST_P(BitExactnessShapes, AcrossSizesAndDepths) {
  const auto [size, depth, filters] = GetParam();
  const Built b = build(99, size, depth, filters);
  DpuCoreSim core(&b.xmodel);
  const TensorI8 input = random_input(size, 4242);
  const TensorI8 ref = b.qgraph.forward(input);
  const RunResult result = core.run(input);
  ASSERT_EQ(tensor::max_abs_diff(result.output, ref), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BitExactnessShapes,
    ::testing::Values(std::make_tuple(16, 2, 4), std::make_tuple(32, 2, 4),
                      std::make_tuple(16, 2, 6), std::make_tuple(32, 3, 4),
                      std::make_tuple(64, 4, 4)));

TEST(CoreSim, BitExactAfterXmodelRoundTrip) {
  const Built b = build(7, 16, 2, 4);
  const auto path = std::filesystem::temp_directory_path() / "rt.xmodel";
  b.xmodel.save(path);
  const XModel loaded = XModel::load(path);
  DpuCoreSim original(&b.xmodel);
  DpuCoreSim reloaded(&loaded);
  const TensorI8 input = random_input(16, 31415);
  EXPECT_EQ(tensor::max_abs_diff(original.run(input).output,
                                 reloaded.run(input).output), 0.0);
  std::filesystem::remove(path);
}

TEST(CoreSim, RejectsWrongInputShape) {
  const Built b = build(11, 16, 2, 4);
  DpuCoreSim core(&b.xmodel);
  EXPECT_THROW(core.run(random_input(32, 1)), std::invalid_argument);
}

TEST(CoreSim, ReportsLatency) {
  const Built b = build(13, 16, 2, 4);
  DpuCoreSim core(&b.xmodel);
  const RunResult r1 = core.run(random_input(16, 5), 1);
  const RunResult r2 = core.run(random_input(16, 5), 2);
  EXPECT_GT(r1.cycles, 0.0);
  EXPECT_LT(r1.cycles, r2.cycles);
  EXPECT_NEAR(r1.seconds, r1.cycles / (b.xmodel.arch.clock_mhz * 1e6), 1e-12);
}

TEST(CoreSim, DeterministicAcrossRuns) {
  const Built b = build(17, 16, 2, 4);
  DpuCoreSim core(&b.xmodel);
  const TensorI8 input = random_input(16, 9);
  EXPECT_EQ(tensor::max_abs_diff(core.run(input).output,
                                 core.run(input).output), 0.0);
}

/// Pins a kernel backend for one scope, then restores kAuto.
struct BackendGuard {
  explicit BackendGuard(quant::kernels::Backend b) {
    quant::kernels::set_backend(b);
  }
  ~BackendGuard() {
    quant::kernels::set_backend(quant::kernels::Backend::kAuto);
  }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
};

TEST(CoreSim, ScalarBackendMatchesQGraphReference) {
  // With kScalar pinned, every conv and tconv runs the reference kernels,
  // which read the weights in place in the xmodel's blob.
  const Built b = build(23, 32, 3, 4);
  const DpuCoreSim core(&b.xmodel);
  const BackendGuard scalar(quant::kernels::Backend::kScalar);
  for (std::uint64_t trial = 0; trial < 2; ++trial) {
    const TensorI8 input = random_input(32, 700 + trial);
    EXPECT_EQ(tensor::max_abs_diff(core.run(input).output,
                                   b.qgraph.forward(input)),
              0.0)
        << "trial " << trial;
  }
}

quant::QOp random_conv(const std::string& name, int input, std::int64_t ci,
                       std::int64_t co, Shape out_shape, std::int8_t w_max,
                       std::uint64_t seed) {
  quant::QOp op;
  op.kind = quant::QOpKind::kConv2D;
  op.name = name;
  op.inputs = {input};
  op.out_shape = out_shape;
  op.kernel = 3;
  op.weights = TensorI8(Shape{3, 3, ci, co});
  util::Rng rng(seed);
  for (auto& w : op.weights) {
    w = static_cast<std::int8_t>(rng.uniform_int(-w_max, w_max));
  }
  op.bias.resize(static_cast<std::size_t>(co));
  for (auto& v : op.bias) {
    v = static_cast<std::int32_t>(rng.uniform_int(-3000, 3000));
  }
  return op;
}

TEST(CoreSim, Int64FallbackLayerMatchesQGraphReference) {
  // conv_a's bias sits 1e6 below INT32_MAX: its accumulators still fit
  // int32 (the weights are small), so the model compiles and verifies,
  // but the coarse bound acc32_safe does not hold, and the layer runs the
  // int64 reference on every backend, reading the blob in place. conv_b
  // runs on the active backend from conv_a's output.
  constexpr std::int64_t kSize = 8, kCi = 16, kMid = 8;
  quant::QGraph g;
  quant::QOp in;
  in.kind = quant::QOpKind::kInput;
  in.name = "input";
  in.out_shape = Shape{kSize, kSize, kCi};
  g.ops.push_back(in);
  g.ops.push_back(
      random_conv("conv_a", 0, kCi, kMid, Shape{kSize, kSize, kMid}, 3, 41));
  g.ops[1].bias[3] = std::numeric_limits<std::int32_t>::max() - 1000000;
  g.ops[1].fix_pos_w = 6;
  g.ops[1].fix_pos_out = 3;
  g.ops[1].relu = true;
  g.ops.push_back(
      random_conv("conv_b", 1, kMid, 6, Shape{kSize, kSize, 6}, 60, 42));
  g.ops[2].fix_pos_w = 5;
  g.ops[2].fix_pos_out = 4;
  g.input_op = 0;
  g.output_op = 2;
  g.input_fix_pos = 4;
  g.input_shape = in.out_shape;
  quant::annotate_intervals(g);
  ASSERT_FALSE(quant::kernels::acc32_safe(g.ops[1], kCi));
  ASSERT_TRUE(quant::kernels::acc32_safe(g.ops[2], kMid));

  const XModel xm = compile(g);
  const DpuCoreSim core(&xm);
  for (const auto backend :
       {quant::kernels::Backend::kAuto, quant::kernels::Backend::kScalar}) {
    const BackendGuard pinned(backend);
    for (std::uint64_t trial = 0; trial < 2; ++trial) {
      util::Rng rng(900 + trial);
      TensorI8 input(g.input_shape);
      for (auto& v : input) {
        v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
      }
      EXPECT_EQ(tensor::max_abs_diff(core.run(input).output,
                                     g.forward(input)),
                0.0)
          << quant::kernels::backend_name(backend) << " trial " << trial;
    }
  }
}

TEST(CoreSim, OutputShapeIsLogitMaps) {
  const Built b = build(19, 32, 2, 4);
  DpuCoreSim core(&b.xmodel);
  const RunResult r = core.run(random_input(32, 10));
  EXPECT_EQ(r.output.shape(), (Shape{32, 32, 6}));
}

}  // namespace
}  // namespace seneca::dpu
