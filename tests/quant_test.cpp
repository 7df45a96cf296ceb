// Quantization stack tests: fix-point helpers, BN folding correctness,
// PTQ accuracy bounds, FFQ improvement, QAT mechanics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "nn/layers_common.hpp"
#include "nn/unet.hpp"
#include "quant/fgraph.hpp"
#include "quant/qat.hpp"
#include "quant/qgraph.hpp"
#include "quant/quantizer.hpp"
#include "util/rng.hpp"

namespace seneca::quant {
namespace {

using tensor::Shape;
using tensor::TensorF;
using tensor::TensorI8;

TensorF random_tensor(Shape shape, std::uint64_t seed, double lo = -1.0,
                      double hi = 1.0) {
  util::Rng rng(seed);
  TensorF t(shape);
  for (auto& v : t) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

/// Small trained-ish U-Net (random weights scaled down to realistic ranges)
/// plus calibration images.
struct TinyNet {
  std::unique_ptr<nn::Graph> graph;
  std::vector<TensorF> calibration;

  explicit TinyNet(std::uint64_t seed = 5, std::int64_t size = 16) {
    nn::UNet2DConfig cfg;
    cfg.input_size = size;
    cfg.depth = 2;
    cfg.base_filters = 4;
    cfg.seed = seed;
    cfg.dropout = 0.1f;
    graph = nn::build_unet2d(cfg);
    // a few training-mode passes so BN running stats are meaningful
    for (int i = 0; i < 8; ++i) {
      graph->forward(random_tensor(Shape{size, size, 1}, seed + 10 + static_cast<std::uint64_t>(i)), true);
    }
    for (int i = 0; i < 4; ++i) {
      calibration.push_back(random_tensor(Shape{size, size, 1}, seed + 50 + static_cast<std::uint64_t>(i)));
    }
  }
};

// ----------------------------------------------------- fix-point helpers --

TEST(FixPoint, RoundTripSmallValues) {
  TensorF x(Shape{5});
  x[0] = 0.5f; x[1] = -0.25f; x[2] = 0.f; x[3] = 0.99f; x[4] = -1.f;
  const int fp = choose_fix_pos(x);
  const TensorF back = dequantize_tensor(quantize_tensor(x, fp), fp);
  EXPECT_LT(tensor::max_abs_diff(x, back), std::ldexp(1.0, -fp));
}

TEST(FixPoint, ChooseFixPosCoversRange) {
  TensorF x(Shape{3});
  x[0] = 100.f; x[1] = -90.f; x[2] = 0.f;
  const int fp = choose_fix_pos(x);
  // 127 * 2^-fp must reach close to 100
  EXPECT_GE(127.0 * std::ldexp(1.0, -fp), 90.0);
}

TEST(FixPoint, ChooseFixPosForUnitRange) {
  TensorF x = random_tensor(Shape{1000}, 3);
  x[0] = 1.f;  // pin the max
  const int fp = choose_fix_pos(x);
  EXPECT_GE(fp, 6);
  EXPECT_LE(fp, 7);
}

TEST(FixPoint, SaturateClamps) {
  EXPECT_EQ(saturate_i8(200), 127);
  EXPECT_EQ(saturate_i8(-200), -128);
  EXPECT_EQ(saturate_i8(5), 5);
}

TEST(FixPoint, RshiftRoundHalfAwayFromZero) {
  EXPECT_EQ(rshift_round(5, 1), 3);    // 2.5 -> 3
  EXPECT_EQ(rshift_round(-5, 1), -3);  // -2.5 -> -3
  EXPECT_EQ(rshift_round(4, 1), 2);
  EXPECT_EQ(rshift_round(-4, 1), -2);
  EXPECT_EQ(rshift_round(7, 2), 2);    // 1.75 -> 2
}

TEST(FixPoint, RoundSaturateMatchesLlround) {
  const auto expect_same = [](double v) {
    EXPECT_EQ(round_saturate_i8(v), saturate_i8(std::llround(v))) << v;
  };
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (const double v :
       {0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 126.5, -126.5, 127.5,
        -127.5, 128.5, -128.5, 129.5, -129.5, std::nextafter(0.5, 0.0),
        std::nextafter(-0.5, 0.0), std::nextafter(0.5, 1.0),
        std::nextafter(127.5, 0.0), std::nextafter(-128.5, 0.0),
        std::ldexp(1.0, 52), -std::ldexp(1.0, 52), std::ldexp(1.0, 62),
        -std::ldexp(1.0, 62), denorm, -denorm, 1e-310, -1e-310}) {
    expect_same(v);
  }
  util::Rng rng(21);
  for (int i = 0; i < 20000; ++i) {
    expect_same(rng.uniform(-300.0, 300.0));
    // Exact ties, and float weights scaled by a power of two as the
    // quantizer scales them.
    const auto k = static_cast<double>(rng.uniform_index(601)) - 300.0;
    expect_same(k + 0.5);
    const auto w = static_cast<float>(rng.uniform(-2.0, 2.0));
    const auto fp = static_cast<int>(rng.uniform_index(12));
    expect_same(static_cast<double>(w) * std::ldexp(1.0, fp));
  }
}

TEST(RangeAnalysis, ConvAccIntervalIsTheWorstChannelSum) {
  // Per channel: bias plus, for every tap, the product interval widened to
  // include 0; then the worst channel.
  util::Rng rng(4);
  const std::int64_t taps = 27, co = 5;
  std::vector<std::int8_t> w(static_cast<std::size_t>(taps * co));
  for (auto& v : w) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_index(256)) - 128);
  }
  const std::vector<std::int32_t> bias = {-300, 7, 0, 1200, -5};
  for (const Interval in :
       {Interval{-128, 127}, Interval{0, 127}, Interval{-3, -1}}) {
    std::int64_t lo = 0, hi = 0;
    for (std::int64_t o = 0; o < co; ++o) {
      std::int64_t l = bias[static_cast<std::size_t>(o)], h = l;
      for (std::int64_t t = 0; t < taps; ++t) {
        const std::int64_t wv = w[static_cast<std::size_t>(t * co + o)];
        l += std::min({wv * in.lo, wv * in.hi, std::int64_t{0}});
        h += std::max({wv * in.lo, wv * in.hi, std::int64_t{0}});
      }
      lo = o == 0 ? l : std::min(lo, l);
      hi = o == 0 ? h : std::max(hi, h);
    }
    const Interval got = conv_acc_interval(w.data(), taps, co, bias.data(), in);
    EXPECT_EQ(got.lo, lo);
    EXPECT_EQ(got.hi, hi);
  }
}

TEST(FixPoint, RshiftNegativeShiftIsLeftShift) {
  EXPECT_EQ(rshift_round(3, -2), 12);
  EXPECT_EQ(rshift_round(-3, -1), -6);
}

TEST(FixPoint, QuantizationMseDecreasesAtOptimum) {
  TensorF x = random_tensor(Shape{512}, 7, -0.9, 0.9);
  const int fp = choose_fix_pos(x);
  EXPECT_LE(quantization_mse(x, fp), quantization_mse(x, fp - 2));
  EXPECT_LE(quantization_mse(x, fp), quantization_mse(x, fp + 2));
}

// -------------------------------------------------------------- folding --

TEST(Fold, MatchesOriginalGraphInference) {
  TinyNet net;
  const FGraph fg = fold(*net.graph);
  const TensorF x = random_tensor(Shape{16, 16, 1}, 99);
  const TensorF& ref_probs = net.graph->forward(x, false);
  const TensorF logits = fg.forward(x);
  // The folded graph drops the softmax; compare argmax and softmax values.
  nn::Softmax sm;
  TensorF probs(logits.shape());
  const TensorF* in[] = {&logits};
  sm.forward({in[0]}, probs, false);
  EXPECT_LT(tensor::max_abs_diff(ref_probs, probs), 2e-4);
}

TEST(Fold, RemovesDropoutAndSoftmax) {
  TinyNet net;
  const FGraph fg = fold(*net.graph);
  for (const auto& op : fg.ops) {
    EXPECT_NE(op.name.find("drop"), 0u);  // no dropout ops survive
  }
  // output op is the head conv, not a softmax
  EXPECT_EQ(fg.ops[static_cast<std::size_t>(fg.output_op)].name, "head_conv");
}

TEST(Fold, FusesReLUIntoConvs) {
  TinyNet net;
  const FGraph fg = fold(*net.graph);
  int relu_convs = 0;
  for (const auto& op : fg.ops) {
    if ((op.kind == OpKind::kConv2D || op.kind == OpKind::kTConv2D) && op.relu) {
      ++relu_convs;
    }
  }
  EXPECT_GT(relu_convs, 5);
  // head conv has no relu
  EXPECT_FALSE(fg.ops[static_cast<std::size_t>(fg.output_op)].relu);
}

TEST(Fold, OpCountIsCompact) {
  TinyNet net;
  const FGraph fg = fold(*net.graph);
  // depth-2 U-Net: input + 11 convs (4 enc + 2 bottleneck + 4 dec + head) +
  // 2 tconvs + 2 pools + 2 concats = 18 ops.
  EXPECT_EQ(fg.ops.size(), 18u);
}

// ------------------------------------------------------------------ PTQ --

TEST(Ptq, QuantizedOutputTracksFloat) {
  TinyNet net;
  const FGraph fg = fold(*net.graph);
  const QGraph qg = quantize(fg, net.calibration);
  const TensorF x = net.calibration[0];
  const TensorF float_logits = fg.forward(x);
  const TensorI8 qout = qg.forward(quantize_input(qg, x));
  const TensorF deq = dequantize_output(qg, qout);
  const float scale = tensor::max_abs(float_logits);
  EXPECT_LT(tensor::max_abs_diff(float_logits, deq), 0.25f * scale + 0.1f);
}

TEST(Ptq, ArgmaxAgreementHigh) {
  TinyNet net;
  const FGraph fg = fold(*net.graph);
  const QGraph qg = quantize(fg, net.calibration);
  const TensorF x = random_tensor(Shape{16, 16, 1}, 321);
  const TensorF float_logits = fg.forward(x);
  const TensorI8 qout = qg.forward(quantize_input(qg, x));
  std::int64_t agree = 0;
  for (std::int64_t i = 0; i < 16 * 16; ++i) {
    int fbest = 0, qbest = 0;
    for (int c = 1; c < 6; ++c) {
      if (float_logits[i * 6 + c] > float_logits[i * 6 + fbest]) fbest = c;
      if (qout[i * 6 + c] > qout[i * 6 + qbest]) qbest = c;
    }
    agree += (fbest == qbest);
  }
  EXPECT_GT(static_cast<double>(agree) / 256.0, 0.9);
}

TEST(Ptq, InputFixPosStoredForHostScaling) {
  TinyNet net;
  const FGraph fg = fold(*net.graph);
  const QGraph qg = quantize(fg, net.calibration);
  // [-1,1] inputs quantize at 6 or 7 fractional bits
  EXPECT_GE(qg.input_fix_pos, 6);
  EXPECT_LE(qg.input_fix_pos, 7);
}

TEST(Ptq, MaxPoolInheritsProducerFixPos) {
  TinyNet net;
  const FGraph fg = fold(*net.graph);
  const QGraph qg = quantize(fg, net.calibration);
  for (std::size_t i = 0; i < qg.ops.size(); ++i) {
    if (qg.ops[i].kind == QOpKind::kMaxPool2D) {
      const int src = qg.ops[i].inputs[0];
      EXPECT_EQ(qg.ops[i].fix_pos_out,
                qg.ops[static_cast<std::size_t>(src)].fix_pos_out);
    }
  }
}

TEST(Ptq, WeightBytesMatchParams) {
  TinyNet net;
  const FGraph fg = fold(*net.graph);
  const QGraph qg = quantize(fg, net.calibration);
  std::int64_t conv_weights = 0;
  for (const auto& op : fg.ops) conv_weights += op.weights.numel();
  EXPECT_EQ(qg.weight_bytes(),
            conv_weights + 4 * static_cast<std::int64_t>([&] {
              std::int64_t biases = 0;
              for (const auto& op : qg.ops) biases += static_cast<std::int64_t>(op.bias.size());
              return biases;
            }()));
}

TEST(Ptq, EmptyCalibrationThrows) {
  TinyNet net;
  const FGraph fg = fold(*net.graph);
  EXPECT_THROW(quantize(fg, {}), std::invalid_argument);
}

// ------------------------------------------------------------------ FFQ --

TEST(Ffq, NotWorseThanPtqOnCalibration) {
  TinyNet net(17);
  const FGraph fg = fold(*net.graph);
  const QGraph ptq = quantize(fg, net.calibration, {QuantMode::kPTQ});
  const QGraph ffq = quantize(fg, net.calibration, {QuantMode::kFFQ});

  auto mse_vs_float = [&](const QGraph& qg) {
    double mse = 0.0;
    for (const auto& img : net.calibration) {
      const TensorF ref = fg.forward(img);
      const TensorF deq = dequantize_output(qg, qg.forward(quantize_input(qg, img)));
      for (std::int64_t i = 0; i < ref.numel(); ++i) {
        mse += (ref[i] - deq[i]) * (ref[i] - deq[i]);
      }
    }
    return mse;
  };
  EXPECT_LE(mse_vs_float(ffq), mse_vs_float(ptq) * 1.05);
}

// ------------------------------------------------------------------ QAT --

TEST(Qat, FakeQuantizeSnapsToGrid) {
  TensorF t = random_tensor(Shape{64}, 23);
  fake_quantize(t);
  const int fp = choose_fix_pos(t);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const double scaled = t[i] * std::ldexp(1.0, fp);
    EXPECT_NEAR(scaled, std::nearbyint(scaled), 1e-4);
  }
}

TEST(Qat, FakeQuantizeIdempotent) {
  TensorF t = random_tensor(Shape{64}, 29);
  fake_quantize(t);
  TensorF once = t;
  fake_quantize(t);
  EXPECT_LT(tensor::max_abs_diff(once, t), 1e-6);
}

TEST(Qat, FinetuneRunsAndReturnsFiniteLoss) {
  TinyNet net(31);
  std::vector<nn::Sample> data;
  util::Rng rng(33);
  for (int i = 0; i < 3; ++i) {
    nn::Sample s;
    s.image = random_tensor(Shape{16, 16, 1}, 40 + static_cast<std::uint64_t>(i));
    s.labels = nn::LabelMap(Shape{16, 16});
    for (auto& v : s.labels) v = static_cast<std::int32_t>(rng.uniform_index(6));
    data.push_back(std::move(s));
  }
  nn::CrossEntropyLoss loss;
  QatOptions opts;
  opts.epochs = 1;
  const double final_loss = qat_finetune(*net.graph, loss, data, opts);
  EXPECT_TRUE(std::isfinite(final_loss));
  EXPECT_GT(final_loss, 0.0);
}

// ------------------------------------------------------- int8 kernels ----

TEST(QKernels, ConcatRequantizes) {
  TensorI8 a(Shape{1, 1, 2});
  a[0] = 64; a[1] = -64;          // fp 6
  TensorI8 b(Shape{1, 1, 1});
  b[0] = 32;                      // fp 4
  TensorI8 out(Shape{1, 1, 3});
  qconcat_forward(a, 6, b, 4, out, 4);
  EXPECT_EQ(out[0], 16);          // 64 * 2^-2
  EXPECT_EQ(out[1], -16);
  EXPECT_EQ(out[2], 32);          // same fp
}

TEST(QKernels, ConvIdentityKernel) {
  QOp op;
  op.kind = QOpKind::kConv2D;
  op.kernel = 3;
  op.out_shape = Shape{4, 4, 1};
  op.fix_pos_w = 0;
  op.fix_pos_out = 5;
  op.relu = false;
  op.weights = TensorI8(Shape{3, 3, 1, 1}, 0);
  op.weights[4] = 1;  // center tap
  op.bias = {0};
  TensorI8 x(Shape{4, 4, 1});
  for (std::int64_t i = 0; i < 16; ++i) x[i] = static_cast<std::int8_t>(i * 3 - 20);
  TensorI8 out(Shape{4, 4, 1});
  qconv2d_forward(x, op, out, 5);  // shift = 5 + 0 - 5 = 0
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_EQ(out[i], x[i]);
}

TEST(QKernels, ConvReluClampsNegative) {
  QOp op;
  op.kind = QOpKind::kConv2D;
  op.kernel = 1;
  op.out_shape = Shape{2, 2, 1};
  op.fix_pos_w = 0;
  op.fix_pos_out = 0;
  op.relu = true;
  op.weights = TensorI8(Shape{1, 1, 1, 1});
  op.weights[0] = 1;
  op.bias = {-5};
  TensorI8 x(Shape{2, 2, 1}, 2);
  TensorI8 out(Shape{2, 2, 1});
  qconv2d_forward(x, op, out, 0);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i], 0);
}

TEST(QKernels, MaxPoolInt8) {
  TensorI8 x(Shape{2, 2, 1});
  x[0] = -100; x[1] = 5; x[2] = -3; x[3] = -120;
  TensorI8 out(Shape{1, 1, 1});
  qmaxpool2d_forward(x, out);
  EXPECT_EQ(out[0], 5);
}

}  // namespace
}  // namespace seneca::quant
