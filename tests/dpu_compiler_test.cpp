// Compiler tests: timing-model formulas, lane quantization, residency
// policy, instruction streams, xmodel structure + serialization.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "core/model_zoo.hpp"
#include "core/workflow.hpp"
#include "dpu/compiler.hpp"
#include "nn/unet.hpp"
#include "quant/quantizer.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"

namespace seneca::dpu {
namespace {

using tensor::Shape;
using tensor::TensorF;

quant::QGraph tiny_qgraph(std::uint64_t seed = 5, std::int64_t size = 16) {
  nn::UNet2DConfig cfg;
  cfg.input_size = size;
  cfg.depth = 2;
  cfg.base_filters = 4;
  cfg.seed = seed;
  auto graph = nn::build_unet2d(cfg);
  for (int i = 0; i < 4; ++i) {
    util::Rng rng(seed + 100 + static_cast<std::uint64_t>(i));
    TensorF x(Shape{size, size, 1});
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
    graph->forward(x, true);
  }
  quant::FGraph fg = quant::fold(*graph);
  std::vector<TensorF> calib;
  util::Rng rng(seed + 7);
  TensorF img(Shape{size, size, 1});
  for (auto& v : img) v = static_cast<float>(rng.uniform(-1, 1));
  calib.push_back(img);
  return quant::quantize(fg, calib);
}

::testing::AssertionResult same_floats(const TensorF& a, const TensorF& b) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (a.numel() > 0 &&
      std::memcmp(a.data(), b.data(),
                  static_cast<std::size_t>(a.numel()) * sizeof(float)) != 0) {
    return ::testing::AssertionFailure() << "values differ";
  }
  return ::testing::AssertionSuccess();
}

TEST(TimingBuild, ConsumingFoldMatchesCopyingFoldOnEveryRung) {
  // build_timing_qgraph folds with the consuming fold, which moves each
  // weight out of the graph instead of copying it. Folded, quantized and
  // compiled as build_timing_xmodel does (its calibration ramp below), the
  // copying fold must give the same FGraph and the same xmodel bytes.
  constexpr std::int64_t kInput = 32;
  std::vector<TensorF> calib(1, TensorF(Shape{kInput, kInput, 1}));
  for (std::int64_t i = 0; i < calib[0].numel(); ++i) {
    calib[0][i] = -1.f + 2.f * static_cast<float>(i % 97) / 96.f;
  }
  for (const core::ZooEntry& entry : core::model_zoo()) {
    const nn::UNet2DConfig cfg = core::unet_config(entry, kInput);
    auto kept = nn::build_unet2d(cfg);
    const quant::FGraph copied = quant::fold(*kept);
    const quant::FGraph moved = quant::fold(nn::build_unet2d(cfg));
    ASSERT_EQ(copied.ops.size(), moved.ops.size()) << entry.name;
    EXPECT_EQ(copied.input_op, moved.input_op);
    EXPECT_EQ(copied.output_op, moved.output_op);
    for (std::size_t i = 0; i < copied.ops.size(); ++i) {
      const quant::FOp& a = copied.ops[i];
      const quant::FOp& b = moved.ops[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.kind, b.kind) << a.name;
      EXPECT_EQ(a.inputs, b.inputs) << a.name;
      EXPECT_EQ(a.relu, b.relu) << a.name;
      EXPECT_EQ(a.kernel, b.kernel) << a.name;
      EXPECT_EQ(a.out_shape, b.out_shape) << a.name;
      EXPECT_TRUE(same_floats(a.weights, b.weights))
          << entry.name << " " << a.name;
      EXPECT_TRUE(same_floats(a.bias, b.bias)) << entry.name << " " << a.name;
    }
    CompileOptions copts;
    copts.model_name = entry.name;
    const std::vector<std::uint8_t> want =
        compile(quant::quantize(copied, calib), copts).serialize();
    EXPECT_EQ(core::build_timing_xmodel(entry.name, DpuArch::b4096(), kInput)
                  .serialize(),
              want)
        << entry.name;
  }
}

TEST(TimingModel, ConvCyclesFormula) {
  const DpuArch arch = DpuArch::b4096();
  // 16 rows * ceil(16/8)=2 col groups * 9 taps * 1 * 1 = 288
  EXPECT_DOUBLE_EQ(conv_cycles(arch, 16, 16, 3, 16, 16), 288.0);
}

TEST(TimingModel, LaneQuantizationCeilsChannels) {
  const DpuArch arch = DpuArch::b4096();
  EXPECT_DOUBLE_EQ(conv_cycles(arch, 8, 8, 3, 6, 16),
                   conv_cycles(arch, 8, 8, 3, 8, 16));
  EXPECT_DOUBLE_EQ(conv_cycles(arch, 8, 8, 3, 17, 16),
                   2.0 * conv_cycles(arch, 8, 8, 3, 16, 16));
}

TEST(TimingModel, PixelParallelCeilsWidth) {
  const DpuArch arch = DpuArch::b4096();
  EXPECT_GT(conv_cycles(arch, 8, 9, 3, 16, 16),
            conv_cycles(arch, 8, 8, 3, 16, 16));
}

TEST(TimingModel, TConvCheaperThanConvPerOutputPixel) {
  const DpuArch arch = DpuArch::b4096();
  EXPECT_LT(tconv_cycles(arch, 16, 16, 3, 16, 16),
            conv_cycles(arch, 16, 16, 3, 16, 16));
}

TEST(TimingModel, SmallerArchIsSlower) {
  EXPECT_GT(conv_cycles(DpuArch::b512(), 16, 16, 3, 32, 32),
            conv_cycles(DpuArch::b4096(), 16, 16, 3, 32, 32));
}

TEST(Arch, PeakOpsMatchDesignation) {
  EXPECT_EQ(DpuArch::b4096().peak_ops_per_cycle(), 4096);
  EXPECT_EQ(DpuArch::b1024().peak_ops_per_cycle(), 1024);
  EXPECT_EQ(DpuArch::b512().peak_ops_per_cycle(), 512);
}

TEST(Arch, PeakTopsScalesWithCores) {
  DpuArch a = DpuArch::b4096();
  const double two_core = a.peak_tops();
  a.cores = 1;
  EXPECT_NEAR(a.peak_tops(), two_core / 2.0, 1e-9);
}

TEST(Compiler, LayerCountMatchesQGraph) {
  const quant::QGraph qg = tiny_qgraph();
  const XModel xm = compile(qg);
  std::size_t non_input = 0;
  for (const auto& op : qg.ops) {
    non_input += (op.kind != quant::QOpKind::kInput);
  }
  EXPECT_EQ(xm.layers.size(), non_input);
}

TEST(Compiler, PreservesFixPositions) {
  const quant::QGraph qg = tiny_qgraph();
  const XModel xm = compile(qg);
  EXPECT_EQ(xm.input_fix_pos, qg.input_fix_pos);
  EXPECT_EQ(xm.output_fix_pos,
            qg.ops[static_cast<std::size_t>(qg.output_op)].fix_pos_out);
}

TEST(Compiler, WeightBlobHoldsAllConvWeights) {
  const quant::QGraph qg = tiny_qgraph();
  const XModel xm = compile(qg);
  std::int64_t expected = 0;
  for (const auto& op : qg.ops) expected += op.weights.numel();
  EXPECT_EQ(static_cast<std::int64_t>(xm.weights.size()), expected);
}

TEST(Compiler, SkipConnectionInputsAreLoaded) {
  const XModel xm = compile(tiny_qgraph());
  for (const auto& layer : xm.layers) {
    if (layer.kind != XLayer::Kind::kConcat) continue;
    ASSERT_EQ(layer.inputs.size(), 2u);
    bool loads_a_far_input = false;
    for (std::size_t k = 0; k < layer.inputs.size(); ++k) {
      loads_a_far_input |= !layer.input_resident[k];
    }
    EXPECT_TRUE(loads_a_far_input) << layer.name;
  }
}

TEST(Compiler, EveryLayerHasComputeInstruction) {
  // Materialized concats are assembled by offset-addressed transfers and
  // kConst layers have no runtime footprint; everything else computes.
  const XModel xm = compile(tiny_qgraph());
  for (const auto& layer : xm.layers) {
    if (layer.materialized || layer.kind == XLayer::Kind::kConst) continue;
    bool has_compute = false;
    for (const auto& ins : layer.instrs) {
      has_compute |= (ins.opcode == Opcode::kConv || ins.opcode == Opcode::kTConv ||
                      ins.opcode == Opcode::kPool || ins.opcode == Opcode::kConcat);
    }
    EXPECT_TRUE(has_compute) << layer.name;
  }
}

TEST(Compiler, OptLevelZeroKeepsConcatInstructions) {
  CompileOptions opts;
  opts.opt_level = 0;
  const XModel xm = compile(tiny_qgraph(), opts);
  for (const auto& layer : xm.layers) {
    EXPECT_FALSE(layer.materialized);
    EXPECT_EQ(layer.concat_dst, -1);
    EXPECT_EQ(layer.tile_count, 1);
    if (layer.kind != XLayer::Kind::kConcat) continue;
    bool has_concat_instr = false;
    for (const auto& ins : layer.instrs) {
      has_concat_instr |= ins.opcode == Opcode::kConcat;
    }
    EXPECT_TRUE(has_concat_instr) << layer.name;
  }
}

TEST(Compiler, StreamEndsWithEnd) {
  const XModel xm = compile(tiny_qgraph());
  ASSERT_FALSE(xm.layers.empty());
  EXPECT_EQ(xm.layers.back().instrs.back().opcode, Opcode::kEnd);
}

TEST(Compiler, NonAlignedChannelsInflateSaveTraffic) {
  // Identical one-conv graphs differing only in output channels (8 vs 6):
  // the 6-channel output pads to the 8-lane bank AND pays the
  // read-modify-write penalty on SAVE.
  auto build = [](std::int64_t co) {
    quant::QGraph qg;
    quant::QOp input;
    input.kind = quant::QOpKind::kInput;
    input.out_shape = Shape{16, 16, 8};
    input.fix_pos_out = 6;
    qg.ops.push_back(input);
    quant::QOp conv;
    conv.kind = quant::QOpKind::kConv2D;
    conv.name = "c";
    conv.inputs = {0};
    conv.out_shape = Shape{16, 16, co};
    conv.kernel = 3;
    conv.fix_pos_w = 6;
    conv.fix_pos_out = 5;
    conv.weights = tensor::TensorI8(Shape{3, 3, 8, co}, 1);
    conv.bias.assign(static_cast<std::size_t>(co), 0);
    qg.ops.push_back(conv);
    qg.input_op = 0;
    qg.output_op = 1;
    qg.input_fix_pos = 6;
    qg.input_shape = Shape{16, 16, 8};
    return compile(qg);
  };
  const XModel aligned = build(8);
  const XModel unaligned = build(6);
  EXPECT_GT(unaligned.layers[0].ddr_bytes, aligned.layers[0].ddr_bytes);
}

TEST(Compiler, MacsMatchAnalyticCount) {
  const XModel xm = compile(tiny_qgraph());
  bool found = false;
  for (const auto& layer : xm.layers) {
    if (layer.name == "enc0_a_conv") {
      EXPECT_EQ(layer.macs, 16 * 16 * 9 * 1 * 4);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Compiler, UtilizationBetweenZeroAndOne) {
  const XModel xm = compile(tiny_qgraph());
  EXPECT_GT(xm.compute_utilization(), 0.0);
  EXPECT_LE(xm.compute_utilization(), 1.0);
}

TEST(XModel, LatencyDecreasesWithExclusiveBandwidth) {
  const XModel xm = compile(tiny_qgraph());
  EXPECT_LT(xm.latency_cycles(1), xm.latency_cycles(2));
}

TEST(XModel, LatencySecondsConsistentWithClock) {
  const XModel xm = compile(tiny_qgraph());
  EXPECT_NEAR(xm.latency_seconds(1),
              xm.latency_cycles(1) / (xm.arch.clock_mhz * 1e6), 1e-12);
}

TEST(XModel, SaveLoadRoundTrip) {
  const XModel xm = compile(tiny_qgraph());
  const auto path = std::filesystem::temp_directory_path() / "seneca.xmodel";
  xm.save(path);
  const XModel loaded = XModel::load(path);
  EXPECT_EQ(loaded.layers.size(), xm.layers.size());
  EXPECT_EQ(loaded.weights, xm.weights);
  EXPECT_EQ(loaded.biases, xm.biases);
  EXPECT_EQ(loaded.input_fix_pos, xm.input_fix_pos);
  EXPECT_NEAR(loaded.latency_cycles(2), xm.latency_cycles(2),
              1e-4 * xm.latency_cycles(2));
  EXPECT_EQ(loaded.total_instructions(), xm.total_instructions());
  std::filesystem::remove(path);
}

TEST(XModel, LoadRejectsGarbage) {
  const auto path = std::filesystem::temp_directory_path() / "bad.xmodel";
  util::write_text_file(path, "not an xmodel at all, padded to some length");
  EXPECT_THROW(XModel::load(path), std::runtime_error);
  std::filesystem::remove(path);
}

// --- Graph validation (compile() no longer trusts its input). -------------

quant::QGraph one_conv_graph() {
  quant::QGraph qg;
  quant::QOp input;
  input.kind = quant::QOpKind::kInput;
  input.out_shape = Shape{8, 8, 4};
  qg.ops.push_back(input);
  quant::QOp conv;
  conv.kind = quant::QOpKind::kConv2D;
  conv.name = "c";
  conv.inputs = {0};
  conv.out_shape = Shape{8, 8, 4};
  conv.kernel = 3;
  conv.weights = tensor::TensorI8(Shape{3, 3, 4, 4}, 1);
  conv.bias.assign(4, 0);
  qg.ops.push_back(conv);
  qg.input_op = 0;
  qg.output_op = 1;
  qg.input_shape = Shape{8, 8, 4};
  return qg;
}

void expect_invalid(const quant::QGraph& qg, const std::string& needle) {
  try {
    compile(qg);
    FAIL() << "expected invalid_argument containing '" << needle << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(Validate, AcceptsWellFormedGraph) {
  EXPECT_NO_THROW(compile(one_conv_graph()));
}

TEST(Validate, RejectsEmptyGraph) {
  expect_invalid(quant::QGraph{}, "no ops");
}

TEST(Validate, RejectsDanglingInput) {
  auto qg = one_conv_graph();
  qg.ops[1].inputs = {7};
  expect_invalid(qg, "dangling input 7");
}

TEST(Validate, RejectsCyclicReference) {
  // A self/forward edge cannot be evaluated in index order — the shape a
  // cycle takes in this topologically-indexed IR.
  auto qg = one_conv_graph();
  qg.ops[1].inputs = {1};
  expect_invalid(qg, "cycle or forward reference");
}

TEST(Validate, RejectsDuplicateNames) {
  auto qg = one_conv_graph();
  quant::QOp dup = qg.ops[1];
  dup.inputs = {1};
  qg.ops.push_back(dup);
  qg.output_op = 2;
  expect_invalid(qg, "duplicate name");
}

TEST(Validate, RejectsUnnamedOp) {
  auto qg = one_conv_graph();
  qg.ops[1].name.clear();
  expect_invalid(qg, "has no name");
}

TEST(Validate, RejectsBadArity) {
  auto qg = one_conv_graph();
  qg.ops[1].inputs = {0, 0};
  expect_invalid(qg, "expected 1 inputs");
}

TEST(Validate, RejectsWeightShapeMismatch) {
  auto qg = one_conv_graph();
  qg.ops[1].weights = tensor::TensorI8(Shape{3, 3, 4, 2}, 1);
  expect_invalid(qg, "weight count");
}

TEST(Validate, RejectsBiasCountMismatch) {
  auto qg = one_conv_graph();
  qg.ops[1].bias.assign(3, 0);
  expect_invalid(qg, "bias count");
}

TEST(Validate, RejectsBadInputOp) {
  auto qg = one_conv_graph();
  qg.input_op = 1;
  expect_invalid(qg, "not a kInput");
}

TEST(Validate, RejectsOutputOpOutOfRange) {
  auto qg = one_conv_graph();
  qg.output_op = 9;
  expect_invalid(qg, "output_op 9 out of range");
}

TEST(Isa, OpcodeNames) {
  EXPECT_STREQ(opcode_name(Opcode::kLoad), "LOAD");
  EXPECT_STREQ(opcode_name(Opcode::kConv), "CONV");
  EXPECT_STREQ(opcode_name(Opcode::kEnd), "END");
}

TEST(Isa, SummarizeSplitsComputeAndMemory) {
  std::vector<Instr> stream;
  Instr load;
  load.opcode = Opcode::kLoad;
  load.bytes = 100;
  load.cycles = 10;
  Instr conv;
  conv.opcode = Opcode::kConv;
  conv.macs = 999;
  conv.cycles = 20;
  stream.push_back(load);
  stream.push_back(conv);
  const StreamStats stats = summarize(stream, 5.0);
  EXPECT_DOUBLE_EQ(stats.memory_cycles, 10.0);
  EXPECT_DOUBLE_EQ(stats.compute_cycles, 20.0);
  EXPECT_DOUBLE_EQ(stats.issue_cycles, 10.0);
  EXPECT_EQ(stats.ddr_bytes, 100);
  EXPECT_EQ(stats.macs, 999);
  EXPECT_EQ(stats.instructions, 2u);
}

}  // namespace
}  // namespace seneca::dpu
