// SENECA-Kernels property tests. The central invariant: the SIMD backend of
// the vectorized INT8 layer (x86 / NEON) is BIT-EXACT against the scalar
// int64 reference kernels in qgraph.cpp — across shapes, channel
// counts not divisible by the vector width, negative requant shifts (the
// left-shift path), ReLU on/off, and the int32-overflow fallback. Plus the
// reference-semantics bugfix pins: rounding-mode independence of
// quantize_tensor, odd-extent max-pool rejection, activation-capture
// aliasing, and arena recycling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/workflow.hpp"
#include "dpu/compiler.hpp"
#include "dpu/core_sim.hpp"
#include "nn/unet.hpp"
#include "quant/kernels.hpp"
#include "quant/kernels_internal.hpp"
#include "quant/quantizer.hpp"
#include "tensor/arena.hpp"
#include "util/rng.hpp"

namespace seneca::quant {
namespace {

using tensor::Shape;
using tensor::TensorArena;
using tensor::TensorF;
using tensor::TensorI8;

TensorI8 random_i8(const Shape& shape, std::uint64_t seed) {
  util::Rng rng(seed);
  TensorI8 t(shape);
  for (auto& v : t) {
    // ~1/8 exact zeros so the xv==0 skip path is exercised.
    const int r = rng.uniform_int(-144, 127);
    v = static_cast<std::int8_t>(r < -128 ? 0 : r);
  }
  return t;
}

QOp make_op(QOpKind kind, std::int64_t k, std::int64_t ci, std::int64_t co,
            const Shape& out_shape, int fix_pos_w, int fix_pos_out, bool relu,
            std::uint64_t seed) {
  QOp op;
  op.kind = kind;
  op.name = "op";
  op.inputs = {0};
  op.out_shape = out_shape;
  op.fix_pos_out = fix_pos_out;
  op.fix_pos_w = fix_pos_w;
  op.kernel = k;
  op.relu = relu;
  op.weights = random_i8(Shape{k, k, ci, co}, seed * 31 + 1);
  util::Rng rng(seed * 31 + 2);
  op.bias.resize(static_cast<std::size_t>(co));
  for (auto& b : op.bias) {
    b = static_cast<std::int32_t>(rng.uniform_int(-5000, 5000));
  }
  return op;
}

::testing::AssertionResult same_tensor(const TensorI8& got,
                                       const TensorI8& want) {
  if (got.shape() != want.shape()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (std::memcmp(got.data(), want.data(),
                  static_cast<std::size_t>(want.numel())) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    if (got[i] != want[i]) {
      return ::testing::AssertionFailure()
             << "first mismatch at flat index " << i << ": got "
             << static_cast<int>(got[i]) << ", want "
             << static_cast<int>(want[i]);
    }
  }
  return ::testing::AssertionFailure() << "unreachable";
}

class KernelsTest : public ::testing::Test {
 protected:
  void TearDown() override { kernels::set_backend(kernels::Backend::kAuto); }
};

/// Pins the SIMD backend, the one checked against the scalar reference;
/// skips where no SIMD backend is built.
class SimdKernelsTest : public KernelsTest {
 protected:
  void SetUp() override {
    if (!kernels::simd_available()) GTEST_SKIP() << "no SIMD backend built";
    kernels::set_backend(kernels::Backend::kSimd);
  }
};

// On x86 the dispatcher runs one of three paths, the widest this CPU has:
// int8 quads on 512-bit vectors (AVX512-VNNI), int8 quads on 256-bit
// vectors (AVX-VNNI), else int16 pairs. The conv, tconv and widest-layer
// sweeps also run every other path this CPU has through its entry points
// in kernels_internal.hpp, so the paths CPUs without AVX512-VNNI or without
// any VNNI take stay tested here.
struct X86Path {
  const char* name;
  kernels::PackedWeights (*pack)(const QOp&);
  void (*conv)(const TensorI8&, const QOp&, const kernels::PackedWeights&,
               TensorI8&, int);
  void (*tconv)(const TensorI8&, const QOp&, const kernels::PackedWeights&,
                TensorI8&, int, TensorArena*);
};

/// Every x86 path this CPU can run, widest first, so the first is the
/// dispatcher's.
std::vector<X86Path> x86_paths() {
  std::vector<X86Path> paths;
#if defined(SENECA_KERNELS_AVX2)
  if (!kernels::simd_available()) return paths;
#if defined(SENECA_KERNELS_AVX512VNNI)
  if (kernels::avx512vnni_available()) {
    paths.push_back({"avx512-vnni", kernels::pack_weights_avx512vnni,
                     kernels::conv2d_avx512vnni,
                     kernels::tconv2d_avx512vnni});
  }
#endif
#if defined(SENECA_KERNELS_AVXVNNI)
  if (kernels::avxvnni_available()) {
    paths.push_back({"avx-vnni", kernels::pack_weights_avxvnni,
                     kernels::conv2d_avxvnni, kernels::tconv2d_avxvnni});
  }
#endif
  paths.push_back({"avx2", kernels::pack_weights_avx2, kernels::conv2d_avx2,
                   kernels::tconv2d_avx2});
#endif
  return paths;
}

/// The x86 paths this CPU can run besides the dispatcher's.
std::vector<X86Path> other_paths() {
  std::vector<X86Path> paths = x86_paths();
  if (!paths.empty()) paths.erase(paths.begin());
  return paths;
}

/// Each path's pack of `op`, in the order of `paths`.
std::vector<kernels::PackedWeights> pack_each(
    const std::vector<X86Path>& paths, const QOp& op) {
  std::vector<kernels::PackedWeights> packs;
  for (const X86Path& path : paths) packs.push_back(path.pack(op));
  return packs;
}

/// `path`'s output for `op`, a conv or tconv.
TensorI8 run_path(const X86Path& path, const TensorI8& x, const QOp& op,
                  const kernels::PackedWeights& pack, int fp_in) {
  TensorI8 out(op.out_shape);
  if (op.kind == QOpKind::kConv2D) {
    path.conv(x, op, pack, out, fp_in);
  } else {
    path.tconv(x, op, pack, out, fp_in, nullptr);
  }
  return out;
}

// ------------------------------------------------ conv bit-exactness -----

// Output channel counts for the conv and tconv sweeps: every tail length
// past the last 16-wide block, 1 to 15 (each a different masked store on
// the 512-bit quads, and one or two 8-lane vectors on the 256-bit paths),
// on 0 to 4 blocks, so the 512-bit quads meet 8-pixel tiles of one block,
// 4-pixel tiles of two blocks, and an odd last block alone.
constexpr std::int64_t kSweepCos[] = {1,  2,  3,  4,  6,  7,  8,  11, 13, 16,
                                      17, 21, 25, 28, 33, 39, 42, 48, 62, 79};

TEST_F(SimdKernelsTest, Conv2DBitExactAcrossBackends) {
  // Input channel counts straddle the lane groups of every format (2 or 4
  // input channels per lane) and NEON's 8-wide vectors: odd, prime, exact
  // multiples, and multiples+1.
  const std::int64_t cis[] = {1, 2, 3, 5, 6, 8, 11, 16, 17};
  // fp_in + fp_w - fp_out: positive (right shift), zero, and negative (the
  // left-shift requant path).
  const int shifts[] = {4, 2, 0, -2};
  // Every map width from 1 to 9 meets every channel pair with both kernel
  // sizes, so a row ends on a whole 8- or 4-pixel tile or on 1 to 3 single
  // pixels, and some rows are narrower than one tile. The height cycles
  // with the channel pair, so each (h, w, k) meets every ninth pair, 1xn
  // and nx1 maps among them. The shift and relu skip the seed's low bit,
  // which k fixes, so each k meets every shift and both relu values.
  const std::vector<X86Path> others = other_paths();
  std::uint64_t seed = 1;
  std::int64_t pair = 0;
  for (std::int64_t ci : cis) {
    for (std::int64_t co : kSweepCos) {
      ++pair;
      for (std::int64_t w = 1; w <= 9; ++w) {
        for (std::int64_t k : {1, 3}) {
          ++seed;
          const std::int64_t h = 1 + (pair + 2 * w + k) % 9;
          const int shift = shifts[(seed / 2) % 4];
          const bool relu = (seed / 8) % 2 != 0;
          const int fp_in = 4, fp_w = 3;
          QOp op = make_op(QOpKind::kConv2D, k, ci, co, Shape{h, w, co}, fp_w,
                           fp_in + fp_w - shift, relu, seed);
          // One pack reused over two frames, as DpuCoreSim does, and a call
          // without a pack, which packs for itself.
          const kernels::PackedWeights pack = kernels::pack_weights(op);
          const std::vector<kernels::PackedWeights> packs =
              pack_each(others, op);
          for (std::uint64_t frame = 0; frame < 2; ++frame) {
            const TensorI8 x = random_i8(Shape{h, w, ci}, seed * 10 + frame);
            TensorI8 ref(op.out_shape), reused(op.out_shape),
                per_call(op.out_shape);
            qconv2d_forward(x, op, ref, fp_in);
            kernels::conv2d(x, op, reused, fp_in, &pack);
            kernels::conv2d(x, op, per_call, fp_in);
            EXPECT_TRUE(same_tensor(reused, ref))
                << "ci=" << ci << " co=" << co << " k=" << k << " h=" << h
                << " w=" << w << " shift=" << shift << " relu=" << relu
                << " frame=" << frame << " (reused pack)";
            EXPECT_TRUE(same_tensor(per_call, ref))
                << "ci=" << ci << " co=" << co << " k=" << k << " h=" << h
                << " w=" << w << " shift=" << shift << " relu=" << relu
                << " frame=" << frame << " (no pack)";
            for (std::size_t i = 0; i < others.size(); ++i) {
              EXPECT_TRUE(same_tensor(
                  run_path(others[i], x, op, packs[i], fp_in), ref))
                  << "ci=" << ci << " co=" << co << " k=" << k << " h=" << h
                  << " w=" << w << " shift=" << shift << " relu=" << relu
                  << " frame=" << frame << " (" << others[i].name << ")";
            }
          }
        }
      }
    }
  }
}

TEST_F(SimdKernelsTest, TConv2DBitExactAcrossBackends) {
  const std::int64_t cis[] = {1, 3, 6, 8, 11, 17};
  const int shifts[] = {4, 0, -2};
  // Input maps 1 to 9 wide, as in the conv sweep: rows of input pixels end
  // on every remainder, and the left column's first tap, whose output
  // column falls off the map, sits in 8- and 4-pixel tiles and in single
  // pixels.
  const std::vector<X86Path> others = other_paths();
  std::uint64_t seed = 1000;
  std::int64_t pair = 0;
  for (std::int64_t ci : cis) {
    for (std::int64_t co : kSweepCos) {
      ++pair;
      for (std::int64_t w = 1; w <= 9; ++w) {
        ++seed;
        const std::int64_t h = 1 + (pair + w) % 9;
        const std::int64_t k = 3;
        const int shift = shifts[seed % 3];
        const int fp_in = 4, fp_w = 3;
        QOp op = make_op(QOpKind::kTConv2D, k, ci, co, Shape{2 * h, 2 * w, co},
                         fp_w, fp_in + fp_w - shift, (seed % 2) != 0, seed);
        // One pack reused over two frames with an arena-provided
        // accumulator plane, and a call with neither.
        const kernels::PackedWeights pack = kernels::pack_weights(op);
        const std::vector<kernels::PackedWeights> packs = pack_each(others, op);
        TensorArena arena;
        for (std::uint64_t frame = 0; frame < 2; ++frame) {
          const TensorI8 x = random_i8(Shape{h, w, ci}, seed * 10 + frame);
          TensorI8 ref(op.out_shape), reused(op.out_shape),
              per_call(op.out_shape);
          qtconv2d_forward(x, op, ref, fp_in);
          kernels::tconv2d(x, op, reused, fp_in, &arena, &pack);
          kernels::tconv2d(x, op, per_call, fp_in, nullptr);
          EXPECT_TRUE(same_tensor(reused, ref))
              << "ci=" << ci << " co=" << co << " h=" << h << " w=" << w
              << " shift=" << shift << " frame=" << frame
              << " (reused pack, arena)";
          EXPECT_TRUE(same_tensor(per_call, ref))
              << "ci=" << ci << " co=" << co << " h=" << h << " w=" << w
              << " shift=" << shift << " frame=" << frame
              << " (no pack, no arena)";
          for (std::size_t i = 0; i < others.size(); ++i) {
            EXPECT_TRUE(same_tensor(
                run_path(others[i], x, op, packs[i], fp_in), ref))
                << "ci=" << ci << " co=" << co << " h=" << h << " w=" << w
                << " shift=" << shift << " frame=" << frame << " ("
                << others[i].name << ")";
          }
        }
      }
    }
  }
}

TEST_F(SimdKernelsTest, WidestLayersBitExactWithReusedPackAndWithout) {
  // The widest 16M shapes: bott_a/bott_b's 3x3 conv at 2x2x512->512,
  // dec4_a's at 4x4x512->256, and the 2x2x512->256 tconv into dec4. One
  // pack is built up front and reused over three inputs, as DpuCoreSim
  // does; a call without a pack packs for itself.
  struct Case {
    QOpKind kind;
    std::int64_t hw, ci, co;
  };
  const Case cases[] = {{QOpKind::kConv2D, 2, 512, 512},
                        {QOpKind::kConv2D, 4, 512, 256},
                        {QOpKind::kTConv2D, 2, 512, 256}};
  const std::vector<X86Path> others = other_paths();
  std::uint64_t seed = 4000;
  for (const Case& c : cases) {
    ++seed;
    const bool conv = c.kind == QOpKind::kConv2D;
    const std::int64_t ohw = conv ? c.hw : 2 * c.hw;
    // A 12-bit right shift keeps most of the 4608-term sums unsaturated.
    const int fp_in = 4, fp_w = 3, shift = 12;
    const QOp op = make_op(c.kind, 3, c.ci, c.co, Shape{ohw, ohw, c.co}, fp_w,
                           fp_in + fp_w - shift, (seed % 2) != 0, seed);
    const kernels::PackedWeights pack = kernels::pack_weights(op);
    const std::vector<kernels::PackedWeights> packs = pack_each(others, op);
    for (std::uint64_t frame = 0; frame < 3; ++frame) {
      const TensorI8 x = random_i8(Shape{c.hw, c.hw, c.ci}, seed * 10 + frame);
      TensorI8 ref(op.out_shape), reused(op.out_shape), per_call(op.out_shape);
      if (conv) {
        qconv2d_forward(x, op, ref, fp_in);
        kernels::conv2d(x, op, reused, fp_in, &pack);
        kernels::conv2d(x, op, per_call, fp_in);
      } else {
        qtconv2d_forward(x, op, ref, fp_in);
        kernels::tconv2d(x, op, reused, fp_in, nullptr, &pack);
        kernels::tconv2d(x, op, per_call, fp_in);
      }
      EXPECT_TRUE(same_tensor(reused, ref))
          << "ci=" << c.ci << " co=" << c.co << " frame=" << frame
          << " (reused pack)";
      EXPECT_TRUE(same_tensor(per_call, ref))
          << "ci=" << c.ci << " co=" << c.co << " frame=" << frame
          << " (no pack)";
      for (std::size_t i = 0; i < others.size(); ++i) {
        EXPECT_TRUE(
            same_tensor(run_path(others[i], x, op, packs[i], fp_in), ref))
            << "ci=" << c.ci << " co=" << c.co << " frame=" << frame << " ("
            << others[i].name << ")";
      }
    }
  }
}

TEST_F(SimdKernelsTest, OffsetFormStaysExactWhereItsU8PartOverflowsInt32) {
  // The quad format multiplies x + 128 and takes 128 sum(w) back out
  // through the accumulator seed. With every weight -128 and every input
  // 127, the u8 part of a 3x3 conv's centre sum at ci = 10922 is
  // 255 * -128 * 98298, about -3.2e9, past int32, while the true sum,
  // about -1.6e9, lies inside it, and the dispatcher's headroom proof
  // admits the layer at every shift from 22 to 29. Channel 0 has every
  // weight -128, channel 1 every weight 127 (a u8 part of +3.2e9), and
  // channel 2 -128 on its first half of input channels and 127 on the
  // rest. Each case runs every x86 path this CPU has (each quad width it
  // has, and the pairs) through its entry point as well as the dispatcher,
  // so a fallback to the reference cannot pass for the quad format. At
  // shift 24 the centre output of channel 0, -1.6e9 / 2^24, is about -95:
  // unsaturated.
  const std::vector<X86Path> paths = x86_paths();
  if (paths.empty() || std::string(paths.front().name) == "avx2") {
    GTEST_SKIP() << "this CPU lacks AVX-VNNI and AVX512-VNNI, so the quad "
                    "format never runs";
  }
  ASSERT_STREQ(paths.front().name,
               kernels::backend_name(kernels::Backend::kSimd));
  const std::int64_t k = 3, hw = 3, co = 17;
  const int fp_in = 0, fp_w = 0;
  int cases = 0, unsaturated = 0;
  for (const std::int64_t ci : {10922, 10000, 5000}) {
    for (const QOpKind kind : {QOpKind::kConv2D, QOpKind::kTConv2D}) {
      const bool conv = kind == QOpKind::kConv2D;
      const std::int64_t ohw = conv ? hw : 2 * hw;
      QOp op = make_op(kind, k, ci, co, Shape{ohw, ohw, co}, fp_w, 0, false,
                       static_cast<std::uint64_t>(ci));
      for (std::int64_t tc = 0; tc < k * k * ci; ++tc) {
        const std::int64_t c = tc % ci;
        for (std::int64_t o = 0; o < co; ++o) {
          const bool low = o % 3 == 0 || (o % 3 == 2 && c < ci / 2);
          op.weights[tc * co + o] = low ? std::int8_t{-128} : std::int8_t{127};
        }
      }
      TensorI8 x(Shape{hw, hw, ci});
      for (auto& v : x) v = 127;
      std::int64_t max_bias = 0;
      for (const std::int32_t b : op.bias) {
        max_bias = std::max<std::int64_t>(max_bias, std::abs(b));
      }
      const std::vector<kernels::PackedWeights> packs = pack_each(paths, op);
      for (int shift = 22; shift <= 29; ++shift) {
        op.fix_pos_out = fp_in + fp_w - shift;
        // The bound the dispatcher's headroom proof checks.
        ASSERT_LE(max_bias + k * k * ci * 128 * 128 +
                      (std::int64_t{1} << (shift - 1)),
                  std::numeric_limits<std::int32_t>::max());
        TensorI8 ref(op.out_shape), dispatched_out(op.out_shape);
        if (conv) {
          qconv2d_forward(x, op, ref, fp_in);
          kernels::conv2d(x, op, dispatched_out, fp_in);
        } else {
          qtconv2d_forward(x, op, ref, fp_in);
          kernels::tconv2d(x, op, dispatched_out, fp_in);
        }
        EXPECT_TRUE(same_tensor(dispatched_out, ref))
            << "ci=" << ci << " conv=" << conv << " shift=" << shift
            << " (dispatched)";
        for (std::size_t i = 0; i < paths.size(); ++i) {
          EXPECT_TRUE(
              same_tensor(run_path(paths[i], x, op, packs[i], fp_in), ref))
              << "ci=" << ci << " conv=" << conv << " shift=" << shift << " ("
              << paths[i].name << ")";
        }
        ++cases;
        const int centre = ref[((ohw / 2) * ohw + ohw / 2) * co];
        if (centre > -128 && centre < 127) ++unsaturated;
        if (conv && ci == 10922 && shift == 24) {
          EXPECT_TRUE(centre > -128 && centre < 127) << "centre=" << centre;
        }
      }
    }
  }
  EXPECT_EQ(cases, 48);
  EXPECT_GT(unsaturated, 0);
}

TEST_F(KernelsTest, BothQuadWidthsBuildOnePack) {
  // The 512-bit quads read each 16-wide block's lane group as one vector of
  // the pack the 256-bit quads read as two, so both must build the same
  // bytes: every conv and tconv of the five rungs at 32x32.
#if defined(SENECA_KERNELS_AVX512VNNI) && defined(SENECA_KERNELS_AVXVNNI)
  if (!kernels::avx512vnni_available() || !kernels::avxvnni_available()) {
    GTEST_SKIP() << "this CPU lacks AVX512-VNNI or AVX-VNNI";
  }
  int layers = 0;
  for (const char* rung : {"16M", "8M", "4M", "2M", "1M"}) {
    const QGraph qg = core::build_timing_qgraph(rung, 32);
    for (const QOp& op : qg.ops) {
      if (op.kind != QOpKind::kConv2D && op.kind != QOpKind::kTConv2D) {
        continue;
      }
      const kernels::PackedWeights zmm = kernels::pack_weights_avx512vnni(op);
      const kernels::PackedWeights ymm = kernels::pack_weights_avxvnni(op);
      ASSERT_EQ(zmm.operands.size(), ymm.operands.size())
          << rung << " " << op.name;
      ASSERT_EQ(zmm.sums.size(), ymm.sums.size()) << rung << " " << op.name;
      EXPECT_EQ(std::memcmp(zmm.operands.data(), ymm.operands.data(),
                            zmm.operands.size() * sizeof(std::int32_t)),
                0)
          << rung << " " << op.name << " operands";
      EXPECT_EQ(zmm.sums, ymm.sums) << rung << " " << op.name << " sums";
      ++layers;
    }
  }
  EXPECT_GE(layers, 5 * 20);
#else
  GTEST_SKIP() << "built without one of the two quad widths";
#endif
}

TEST_F(SimdKernelsTest, MaxPoolBitExactAcrossBackends) {
  const std::int64_t cs[] = {1, 3, 15, 16, 33, 48};
  std::uint64_t seed = 2000;
  for (std::int64_t c : cs) {
    ++seed;
    const std::int64_t h = 6, w = 8;
    const TensorI8 x = random_i8(Shape{h, w, c}, seed);
    TensorI8 ref(Shape{h / 2, w / 2, c});
    qmaxpool2d_forward(x, ref);
    TensorI8 got(Shape{h / 2, w / 2, c});
    kernels::maxpool2d(x, got);
    EXPECT_TRUE(same_tensor(got, ref)) << "c=" << c;
  }
}

TEST_F(SimdKernelsTest, ConcatBitExactAcrossBackends) {
  const std::int64_t cas[] = {1, 3, 16, 17};
  const int shifts[] = {-2, 0, 3};
  std::uint64_t seed = 3000;
  for (std::int64_t ca : cas) {
    for (int sa : shifts) {
      for (int sb : shifts) {
        ++seed;
        const std::int64_t h = 4, w = 5, cb = 7;
        const int fp_out = 4;
        const TensorI8 a = random_i8(Shape{h, w, ca}, seed);
        const TensorI8 b = random_i8(Shape{h, w, cb}, seed + 1);
        TensorI8 ref(Shape{h, w, ca + cb});
        qconcat_forward(a, fp_out + sa, b, fp_out + sb, ref, fp_out);
        TensorI8 got(Shape{h, w, ca + cb});
        kernels::concat(a, fp_out + sa, b, fp_out + sb, got, fp_out);
        EXPECT_TRUE(same_tensor(got, ref))
            << "ca=" << ca << " sa=" << sa << " sb=" << sb;
      }
    }
  }
}

TEST_F(KernelsTest, RequantRowMatchesReferenceForAllShifts) {
  // kScalar runs the portable row loop (NEON's too), kSimd AVX2's where built.
  const std::int64_t n = 129;  // odd: exercises every vector tail
  const TensorI8 src = random_i8(Shape{n}, 99);
  for (int shift = -12; shift <= 12; ++shift) {
    std::vector<std::int8_t> ref(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      ref[static_cast<std::size_t>(i)] =
          saturate_i8(rshift_round(src[i], shift));
    }
    for (kernels::Backend b : {kernels::Backend::kScalar,
                               kernels::Backend::kSimd}) {
      kernels::set_backend(b);
      std::vector<std::int8_t> got(static_cast<std::size_t>(n));
      kernels::requant_row(src.data(), got.data(), n, shift);
      EXPECT_EQ(got, ref) << "backend=" << kernels::backend_name(b)
                          << " shift=" << shift;
    }
  }
}

// ------------------------------------------- int32-overflow fallback -----

TEST_F(SimdKernelsTest, HugeBiasForcesExactScalarFallback) {
  const std::int64_t h = 4, w = 4, ci = 8, co = 16, k = 3;
  QOp op = make_op(QOpKind::kConv2D, k, ci, co, Shape{h, w, co}, 3, 5, false,
                   7);
  op.bias[3] = std::numeric_limits<std::int32_t>::max();
  EXPECT_FALSE(kernels::acc32_safe(op, ci));
  const TensorI8 x = random_i8(Shape{h, w, ci}, 7);
  TensorI8 ref(op.out_shape);
  qconv2d_forward(x, op, ref, 4);
  TensorI8 got(op.out_shape);
  kernels::conv2d(x, op, got, 4);
  EXPECT_TRUE(same_tensor(got, ref));
}

TEST_F(SimdKernelsTest, ExtremeRequantShiftsStayExact) {
  // shift = fp_in + fp_w - fp_out: +40 and -25 are far outside the int32
  // requant envelope, so the dispatcher must route to the int64 reference.
  const std::int64_t h = 3, w = 3, ci = 4, co = 16, k = 3;
  const TensorI8 x = random_i8(Shape{h, w, ci}, 11);
  for (int shift : {40, -25}) {
    QOp op = make_op(QOpKind::kConv2D, k, ci, co, Shape{h, w, co}, 20,
                     20 + 20 - shift, false, 11);
    TensorI8 ref(op.out_shape);
    qconv2d_forward(x, op, ref, 20);
    TensorI8 got(op.out_shape);
    kernels::conv2d(x, op, got, 20);
    EXPECT_TRUE(same_tensor(got, ref)) << "shift=" << shift;
  }
}

// ------------------------------------------------- rounding unification --

TEST(Rounding, QuantizeTiesAwayFromZeroRegardlessOfFpMode) {
  // 0.25 at fix_pos 1 is the exact tie 0.5; half-away-from-zero gives 1.
  // std::nearbyint under the default FE_TONEAREST would give 0 (half-even)
  // and would flip with fesetround — the runtime's rshift_round never does.
  TensorF x(Shape{4});
  x[0] = 0.25f;
  x[1] = -0.25f;
  x[2] = 0.75f;
  x[3] = -0.75f;
  const int modes[] = {FE_TONEAREST, FE_UPWARD, FE_DOWNWARD, FE_TOWARDZERO};
  const int old_mode = std::fegetround();
  for (int mode : modes) {
    ASSERT_EQ(std::fesetround(mode), 0);
    const TensorI8 q = quantize_tensor(x, 1);
    EXPECT_EQ(q[0], 1) << "mode=" << mode;
    EXPECT_EQ(q[1], -1) << "mode=" << mode;
    EXPECT_EQ(q[2], 2) << "mode=" << mode;
    EXPECT_EQ(q[3], -2) << "mode=" << mode;
  }
  std::fesetround(old_mode);
}

TEST(Rounding, QuantizeMatchesRshiftRoundOnTies) {
  // quantize(v, 0) of integer-and-a-half values must agree with
  // rshift_round(2v, 1): both are the model's half-away-from-zero rule.
  for (int n = -10; n <= 10; ++n) {
    TensorF x(Shape{1});
    x[0] = static_cast<float>(n) + (n >= 0 ? 0.5f : -0.5f);
    const TensorI8 q = quantize_tensor(x, 0);
    const std::int64_t want =
        rshift_round(static_cast<std::int64_t>(std::llround(2.0 * x[0])), 1);
    EXPECT_EQ(q[0], saturate_i8(want)) << "value=" << x[0];
  }
}

// ------------------------------------------------ odd max-pool rejection --

TEST(OddPool, QuantizerRejectsOddPoolInput) {
  FGraph fg;
  fg.ops.resize(2);
  fg.ops[0].kind = OpKind::kInput;
  fg.ops[0].name = "input";
  fg.ops[0].out_shape = Shape{5, 6, 1};
  fg.ops[1].kind = OpKind::kMaxPool2D;
  fg.ops[1].name = "pool";
  fg.ops[1].inputs = {0};
  fg.ops[1].out_shape = Shape{2, 3, 1};
  fg.input_op = 0;
  fg.output_op = 1;
  std::vector<TensorF> calib;
  util::Rng rng(3);
  TensorF img(Shape{5, 6, 1});
  for (auto& v : img) v = static_cast<float>(rng.uniform(-1, 1));
  calib.push_back(img);
  try {
    quantize(fg, calib);
    FAIL() << "quantize accepted an odd-extent max-pool input";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("drop the last row/column"),
              std::string::npos)
        << "unhelpful message: " << e.what();
  }
}

TEST(OddPool, CompilerRejectsOddPoolInput) {
  QGraph qg;
  qg.ops.resize(2);
  qg.ops[0].kind = QOpKind::kInput;
  qg.ops[0].name = "input";
  qg.ops[0].out_shape = Shape{6, 5, 3};
  qg.ops[0].fix_pos_out = 4;
  qg.ops[1].kind = QOpKind::kMaxPool2D;
  qg.ops[1].name = "pool";
  qg.ops[1].inputs = {0};
  qg.ops[1].out_shape = Shape{3, 2, 3};
  qg.ops[1].fix_pos_out = 4;
  qg.input_op = 0;
  qg.output_op = 1;
  qg.input_fix_pos = 4;
  qg.input_shape = Shape{6, 5, 3};
  try {
    dpu::compile(qg);
    FAIL() << "compile accepted an odd-extent max-pool input";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("max-pool"), std::string::npos)
        << "unhelpful message: " << e.what();
  }
}

// ------------------------------------- end-to-end executors + the arena --

struct Built {
  QGraph qgraph;
  dpu::XModel xmodel;
  std::int64_t size = 0;
};

Built build_model(std::uint64_t seed, std::int64_t size,
                  std::int64_t base_filters = 4) {
  nn::UNet2DConfig cfg;
  cfg.input_size = size;
  cfg.depth = 2;
  cfg.base_filters = base_filters;
  cfg.seed = seed;
  auto graph = nn::build_unet2d(cfg);
  for (int i = 0; i < 3; ++i) {
    util::Rng rng(seed + 31 + static_cast<std::uint64_t>(i));
    TensorF x(Shape{size, size, 1});
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
    graph->forward(x, true);
  }
  FGraph fg = fold(*graph);
  std::vector<TensorF> calib;
  util::Rng rng(seed + 77);
  TensorF img(Shape{size, size, 1});
  for (auto& v : img) v = static_cast<float>(rng.uniform(-1, 1));
  calib.push_back(img);
  Built b;
  b.qgraph = quantize(fg, calib);
  b.xmodel = dpu::compile(b.qgraph);
  b.size = size;
  return b;
}

TensorI8 random_input(std::int64_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  TensorI8 x(Shape{size, size, 1});
  for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return x;
}

TEST_F(SimdKernelsTest, QGraphForwardBitExactAcrossBackendsEndToEnd) {
  const Built b = build_model(5, 16);
  const TensorI8 x = random_input(b.size, 9);
  kernels::set_backend(kernels::Backend::kScalar);
  const TensorI8 ref = b.qgraph.forward(x);
  kernels::set_backend(kernels::Backend::kSimd);
  EXPECT_TRUE(same_tensor(b.qgraph.forward(x), ref));
}

TEST_F(KernelsTest, ActivationCaptureStaysCompleteAndAliasesNothing) {
  const Built b = build_model(6, 16);
  const TensorI8 x = random_input(b.size, 10);
  TensorArena arena;
  for (TensorArena* arena_ptr : {static_cast<TensorArena*>(nullptr), &arena}) {
    std::vector<TensorI8> acts;
    const TensorI8 out = b.qgraph.forward(x, &acts, arena_ptr);
    ASSERT_EQ(acts.size(), b.qgraph.ops.size());
    // The capture must include the network input and the output op's slot,
    // byte-identical to the tensors the caller holds.
    EXPECT_TRUE(same_tensor(
        acts[static_cast<std::size_t>(b.qgraph.input_op)], x));
    EXPECT_TRUE(same_tensor(
        acts[static_cast<std::size_t>(b.qgraph.output_op)], out));
    // And they are copies, not aliases of the caller's storage.
    EXPECT_NE(acts[static_cast<std::size_t>(b.qgraph.input_op)].data(),
              x.data());
    EXPECT_NE(acts[static_cast<std::size_t>(b.qgraph.output_op)].data(),
              out.data());
  }
}

TEST_F(KernelsTest, ArenaReachesAllocationSteadyState) {
  const Built b = build_model(7, 16);
  TensorArena arena;
  const TensorI8 x0 = random_input(b.size, 20);
  const TensorI8 ref0 = b.qgraph.forward(x0);  // no arena
  const TensorI8 got0 = b.qgraph.forward(x0, nullptr, &arena);
  EXPECT_TRUE(same_tensor(got0, ref0));
  const std::size_t after_first = arena.mallocs();
  EXPECT_GT(after_first, 0u);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    const TensorI8 xi = random_input(b.size, 20 + i);
    const TensorI8 goti = b.qgraph.forward(xi, nullptr, &arena);
    EXPECT_TRUE(same_tensor(goti, b.qgraph.forward(xi)));
  }
  // Steady state: only the escaping output tensor can cost a fresh slab,
  // so at most one allocation per subsequent frame.
  EXPECT_LE(arena.mallocs(), after_first + 4);
}

TEST_F(KernelsTest, CoreSimBitExactWithArenaAcrossFrames) {
  const Built b = build_model(8, 16);
  const dpu::DpuCoreSim sim(&b.xmodel);
  TensorArena arena;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const TensorI8 x = random_input(b.size, 40 + i);
    kernels::set_backend(kernels::Backend::kScalar);
    const TensorI8 ref = b.qgraph.forward(x);
    kernels::set_backend(kernels::Backend::kAuto);
    const dpu::RunResult plain = sim.run(x);
    const dpu::RunResult pooled = sim.run(x, 1, &arena);
    EXPECT_TRUE(same_tensor(plain.output, ref)) << "frame " << i;
    EXPECT_TRUE(same_tensor(pooled.output, ref)) << "frame " << i << " arena";
  }
  const std::size_t after_warm = arena.mallocs();
  const TensorI8 x = random_input(b.size, 50);
  (void)sim.run(x, 1, &arena);
  (void)sim.run(x, 1, &arena);
  EXPECT_LE(arena.mallocs(), after_warm + 2);
}

TEST_F(KernelsTest, CoreSimPacksFollowTheModelNotBackendOrAddress) {
  // A simulator packs its own weights at construction, whatever backend is
  // active then, and nothing else reads those packs. Every simulator here
  // is built with kScalar pinned and run under kSimd and kAuto. Two run
  // alternately on one thread; the first is destroyed and rebuilt over the
  // other of two same-shaped models each frame, so its weights are likely
  // to land where the last model's were. Base 8 filters give 16- and
  // 32-wide layers (block MAC) beside the 6-class head (tail MAC).
  const Built a = build_model(11, 16, 8);
  const Built b = build_model(12, 16);
  const Built c = build_model(13, 16, 8);
  kernels::set_backend(kernels::Backend::kScalar);
  const dpu::DpuCoreSim second(&b.xmodel);
  std::unique_ptr<dpu::DpuCoreSim> first;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const Built& m = i % 2 == 0 ? a : c;
    kernels::set_backend(kernels::Backend::kScalar);
    first.reset();
    first = std::make_unique<dpu::DpuCoreSim>(&m.xmodel);
    const TensorI8 x = random_input(16, 60 + i);
    const TensorI8 ref_first = m.qgraph.forward(x);
    const TensorI8 ref_second = b.qgraph.forward(x);
    for (kernels::Backend be :
         {kernels::Backend::kSimd, kernels::Backend::kAuto}) {
      kernels::set_backend(be);
      EXPECT_TRUE(same_tensor(first->run(x).output, ref_first))
          << "frame " << i << " backend " << kernels::backend_name(be);
      EXPECT_TRUE(same_tensor(second.run(x).output, ref_second))
          << "frame " << i << " backend " << kernels::backend_name(be);
    }
  }
}

}  // namespace
}  // namespace seneca::quant
