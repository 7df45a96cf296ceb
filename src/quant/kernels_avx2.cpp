// AVX2 INT8 kernels. This translation unit is the only one compiled with
// -mavx2; the dispatcher in kernels.cpp only routes here after a runtime
// cpuid check, so the rest of the library stays runnable on any x86-64.
//
// Conv and tconv share one MAC loop, tile_mac: two input channels per
// step, 8 output channels per vector. pack_weights_avx2 lays the int8
// weights out once as int16 madd operands (PackedWeights), so one
// _mm256_madd_epi16 of a packed operand against the broadcast (x0, x1)
// input pair yields 8 exact int8*int8 -> int32 dual-MACs. The loop runs a
// tile of up to 4 pixels, as the DPU's array computes 8 pixels at once:
// each operand vector is loaded once per tile and feeds every pixel's
// accumulators, each an independent chain. Each row is cut into tiles of
// 4 pixels, then single pixels for the remainder. A conv tile runs the
// union of its pixels' column taps (row taps are clipped per output row),
// and a pixel whose tap falls off the map reads a zero row appended to the
// input-pair plane, adding exact zeros. DESIGN.md §8 has the measured
// per-layer table: against one pixel at a time, the narrow layers
// (co <= 8, ci > 1) run 1.8-3.2x faster and wide ones on maps at least 4
// wide 1.0-1.7x. The madd pair-sum keeps a 16-wide block's accumulators in
// a fixed lane permutation; two _mm256_permute2x128 restore channel order
// once per pixel and block before the requant epilogue. Bit-exactness vs
// the scalar reference is guaranteed because every product and the full
// accumulation are exact in int32 (the dispatcher's headroom proof) and
// the requant epilogue computes the identical round-half-away-from-zero
// arithmetic.

#include "quant/kernels.hpp"
#include "quant/kernels_internal.hpp"

#if defined(SENECA_KERNELS_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <type_traits>
#include <vector>

namespace seneca::quant::kernels {

namespace {

using detail::rshift_round32;

/// Requants 16 in-order int32 accumulators (v0 = channels 0..7, v1 =
/// 8..15): round-half-away-from-zero shift, optional ReLU, saturate to
/// int8, store 16 bytes.
inline void requant_store16(__m256i v0, __m256i v1, int shift, bool relu,
                            std::int8_t* dst) {
  if (shift > 0) {
    const __m256i rbias = _mm256_set1_epi32(std::int32_t{1} << (shift - 1));
    const __m128i cnt = _mm_cvtsi32_si128(shift);
    const __m256i a0 = _mm256_srl_epi32(
        _mm256_add_epi32(_mm256_abs_epi32(v0), rbias), cnt);
    const __m256i a1 = _mm256_srl_epi32(
        _mm256_add_epi32(_mm256_abs_epi32(v1), rbias), cnt);
    v0 = _mm256_sign_epi32(a0, v0);  // restore sign; zero stays zero
    v1 = _mm256_sign_epi32(a1, v1);
  } else if (shift < 0) {
    const __m128i cnt = _mm_cvtsi32_si128(-shift);
    v0 = _mm256_sll_epi32(v0, cnt);
    v1 = _mm256_sll_epi32(v1, cnt);
  }
  if (relu) {
    const __m256i zero = _mm256_setzero_si256();
    v0 = _mm256_max_epi32(v0, zero);
    v1 = _mm256_max_epi32(v1, zero);
  }
  // Saturating packs work per 128-bit lane; one dword permute undoes the
  // interleave so the 16 bytes land in channel order.
  const __m256i p16 = _mm256_packs_epi32(v0, v1);
  const __m256i p8 = _mm256_packs_epi16(p16, p16);
  const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 0, 4, 1, 5);
  const __m256i q = _mm256_permutevar8x32_epi32(p8, perm);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                   _mm256_castsi256_si128(q));
}

/// Requants 8 in-order int32 accumulators and stores the first `nvalid`
/// saturated int8 bytes (the small-co tail: nvalid in 1..8).
inline void requant_store_n(__m256i v, int shift, bool relu, std::int8_t* dst,
                            std::int64_t nvalid) {
  if (shift > 0) {
    const __m256i rbias = _mm256_set1_epi32(std::int32_t{1} << (shift - 1));
    const __m128i cnt = _mm_cvtsi32_si128(shift);
    const __m256i a =
        _mm256_srl_epi32(_mm256_add_epi32(_mm256_abs_epi32(v), rbias), cnt);
    v = _mm256_sign_epi32(a, v);
  } else if (shift < 0) {
    v = _mm256_sll_epi32(v, _mm_cvtsi32_si128(-shift));
  }
  if (relu) v = _mm256_max_epi32(v, _mm256_setzero_si256());
  const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(v),
                                      _mm256_extracti128_si256(v, 1));
  const __m128i p8 = _mm_packs_epi16(p16, p16);
  alignas(16) std::int8_t tmp[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(tmp), p8);
  std::memcpy(dst, tmp, static_cast<std::size_t>(nvalid));
}

/// Sign-extends the input into (x0, x1) int16 pairs packed in int32 — the
/// broadcast operand of the madd pairing, built once per call instead of
/// per (pixel, tap) read. Odd ci pads x1 = 0. One zero row follows the
/// last pixel: a conv tile's pixel whose tap falls off the map reads it.
std::vector<std::int32_t> pack_input_pairs(const TensorI8& x) {
  const std::int64_t ci = x.shape()[2];
  const std::int64_t pixels = x.numel() / ci;
  const std::int64_t cpairs = (ci + 1) / 2;
  std::vector<std::int32_t> plane(
      static_cast<std::size_t>((pixels + 1) * cpairs));
  const std::int8_t* X = x.data();
  for (std::int64_t p = 0; p < pixels; ++p) {
    const std::int8_t* px = X + p * ci;
    std::int32_t* xp = plane.data() + p * cpairs;
    for (std::int64_t cp = 0; cp < cpairs; ++cp) {
      const int x0 = px[2 * cp];
      const int x1 = 2 * cp + 1 < ci ? px[2 * cp + 1] : 0;
      xp[cp] = static_cast<std::int32_t>(
          (x0 & 0xFFFF) | static_cast<int>(static_cast<unsigned>(x1) << 16));
    }
  }
  return plane;
}

/// The shape of a layer's packed operands, shared by packing and both
/// kernels so they cannot disagree on an offset.
struct PackLayout {
  std::int64_t ci, co, co16, tail, nblk, nb8, cpairs;
  PackLayout(std::int64_t c_in, std::int64_t c_out)
      : ci(c_in),
        co(c_out),
        co16(c_out & ~std::int64_t{15}),
        tail(c_out - co16),
        nblk(co16 / 16),
        nb8((tail + 7) / 8),  // 0..2
        cpairs((c_in + 1) / 2) {}
  /// Block bi's operands at tap t.
  std::int64_t block_at(std::int64_t t, std::int64_t bi) const {
    return ((t * nblk + bi) * cpairs) * 32;
  }
  /// The tail operands at tap t.
  std::int64_t tail_at(std::int64_t t) const { return t * cpairs * nb8 * 16; }
  /// Whether `pw` was packed for this layout over k2 taps.
  bool fits(const PackedWeights& pw, std::int64_t k2) const {
    return static_cast<std::int64_t>(pw.blocks.size()) == block_at(k2, 0) &&
           static_cast<std::int64_t>(pw.tail.size()) == tail_at(k2);
  }
};

/// acc[p][v] += every input pair of pixel p's row xr[p] times operand
/// vector v of that pair, for a tile of P pixels and V vectors of 8 int32
/// lanes per input pair at `wt`. V = 2 is one 16-wide block (madd lane
/// order: channels {0..3, 8..11}, then {4..7, 12..15}); V = nb8 is the tail,
/// in channel order. Each operand vector is loaded once and feeds P
/// independent chains. Branchless on purpose: post-ReLU activations are
/// zero-rich and a data-dependent skip mispredicts far more than the saved
/// madd costs.
template <int P, int V>
inline void tile_mac(const std::int32_t* const (&xr)[P],
                     const std::int16_t* wt, std::int64_t cpairs,
                     __m256i (&acc)[P][V]) {
  for (std::int64_t cp = 0; cp < cpairs; ++cp) {
    __m256i wv[V];
    for (int v = 0; v < V; ++v) {
      wv[v] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(wt + (cp * V + v) * 16));
    }
    for (int p = 0; p < P; ++p) {
      const __m256i xv = _mm256_set1_epi32(xr[p][cp]);
      for (int v = 0; v < V; ++v) {
        acc[p][v] = _mm256_add_epi32(acc[p][v], _mm256_madd_epi16(wv[v], xv));
      }
    }
  }
}

/// Calls tile(std::integral_constant<int, P>{}, x0) over a row `w` pixels
/// wide: tiles of 4 while they fit, then single pixels, so a row narrower
/// than 4 runs single pixels.
template <typename Tile>
inline void for_each_tile(std::int64_t w, Tile&& tile) {
  std::int64_t x = 0;
  for (; x + 4 <= w; x += 4) tile(std::integral_constant<int, 4>{}, x);
  for (; x < w; ++x) tile(std::integral_constant<int, 1>{}, x);
}

/// What every tile of one conv call reads and writes.
struct ConvCall {
  PackLayout l;
  std::int64_t h, w, k, pad;
  const std::int32_t* xplane;  // the input-pair plane; pixel h*w is zero
  const PackedWeights* pw;
  const std::int32_t* bias;
  std::int32_t tail_bias[16];  // the bias past co16, zero-padded
  int shift;
  bool relu;
  std::int8_t* out;
};

/// Conv output pixels (oy, ox0 .. ox0 + P - 1), every channel. Not inlined,
/// so each tile width gets its own registers: inlined into one function,
/// the P = 1 loop's bound spilled to the stack.
template <int P>
[[gnu::noinline]] void conv_tile(const ConvCall& c, std::int64_t oy,
                                 std::int64_t ox0) {
  assert(ox0 >= 0 && ox0 + P <= c.w);
  const PackLayout& l = c.l;
  // Local copies of the call's fields: read through `c` inside the tap
  // loop, they are reloaded on every tap, which costs the 1x1 and 2x2
  // layers 5-10 % against a per-pixel loop.
  const std::int64_t h = c.h, w = c.w, k = c.k, pad = c.pad;
  const std::int64_t cpairs = l.cpairs;
  const std::int32_t* xplane = c.xplane;
  const std::int32_t* zero_row = xplane + h * w * cpairs;
  const std::int64_t ky0 = std::max<std::int64_t>(0, pad - oy);
  const std::int64_t ky1 = std::min(k, h + pad - oy);
  // The union of the pixels' column taps: from the last pixel's first to
  // the first pixel's last.
  const std::int64_t kx0 = std::max<std::int64_t>(0, pad - (ox0 + P - 1));
  const std::int64_t kx1 = std::min(k, w + pad - ox0);
  // acc += every tap of the tile; operands(t) is tap t's. A single pixel's
  // clipped taps all lie on the map, so only a wider tile reads the zero
  // row.
  const auto sum_taps = [&](auto operands, auto& acc) {
    for (std::int64_t ky = ky0; ky < ky1; ++ky) {
      const std::int64_t row = (oy + ky - pad) * w;
      for (std::int64_t kx = kx0; kx < kx1; ++kx) {
        const std::int32_t* xr[P];
        for (int p = 0; p < P; ++p) {
          const std::int64_t ix = ox0 + p + kx - pad;
          xr[p] = P == 1 || (ix >= 0 && ix < w) ? xplane + (row + ix) * cpairs
                                                : zero_row;
        }
        tile_mac(xr, operands(ky * k + kx), cpairs, acc);
      }
    }
  };
  std::int8_t* po = c.out + (oy * w + ox0) * l.co;

  for (std::int64_t bi = 0; bi < l.nblk; ++bi) {
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c.bias + 16 * bi));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(c.bias + 16 * bi + 8));
    __m256i acc[P][2];
    for (int p = 0; p < P; ++p) {
      acc[p][0] = _mm256_permute2x128_si256(b0, b1, 0x20);
      acc[p][1] = _mm256_permute2x128_si256(b0, b1, 0x31);
    }
    sum_taps(
        [&](std::int64_t t) { return c.pw->blocks.data() + l.block_at(t, bi); },
        acc);
    for (int p = 0; p < P; ++p) {
      requant_store16(_mm256_permute2x128_si256(acc[p][0], acc[p][1], 0x20),
                      _mm256_permute2x128_si256(acc[p][0], acc[p][1], 0x31),
                      c.shift, c.relu, po + p * l.co + 16 * bi);
    }
  }

  // Channels past the last block: the whole layer when co < 16, as on the
  // narrow rungs and the class-logit head.
  const auto tail = [&]<int V>(std::integral_constant<int, V>) {
    __m256i acc[P][V];
    for (int p = 0; p < P; ++p) {
      for (std::int64_t v = 0; v < V; ++v) {
        acc[p][v] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(c.tail_bias + 8 * v));
      }
    }
    sum_taps([&](std::int64_t t) { return c.pw->tail.data() + l.tail_at(t); },
             acc);
    for (int p = 0; p < P; ++p) {
      for (std::int64_t v = 0; v < V; ++v) {
        requant_store_n(acc[p][v], c.shift, c.relu,
                        po + p * l.co + l.co16 + 8 * v,
                        std::min<std::int64_t>(8, l.tail - 8 * v));
      }
    }
  };
  if (l.nb8 == 1) tail(std::integral_constant<int, 1>{});
  if (l.nb8 == 2) tail(std::integral_constant<int, 2>{});
}

/// What every tile of one tconv call reads and writes.
struct TConvCall {
  PackLayout l;
  std::int64_t w;  // the input's; the output is 2w wide
  const std::int32_t* xplane;
  const PackedWeights* pw;
  __m256i tmask[2];  // the tail's valid lanes, per 8 channels
  std::int32_t* plane;
};

/// Input pixels (iy, ix0 .. ix0 + P - 1) through tap t = (ky, kx): adds
/// each pixel's products into output pixel (oy, 2ix-1+kx) of the
/// accumulator plane, oy = 2iy-1+ky. A sum whose output column falls off
/// the map is dropped, and a tile none of whose sums lands is skipped. Not
/// inlined, as conv_tile.
template <int P>
[[gnu::noinline]] void tconv_tile(const TConvCall& c, std::int64_t iy,
                                  std::int64_t oy, std::int64_t t,
                                  std::int64_t kx, std::int64_t ix0) {
  assert(ix0 >= 0 && ix0 + P <= c.w);
  const PackLayout& l = c.l;
  const std::int64_t ow = 2 * c.w;
  const std::int32_t* xr[P];
  std::int32_t* pa[P];  // null: off the map
  bool lands = false;
  for (int p = 0; p < P; ++p) {
    xr[p] = c.xplane + (iy * c.w + ix0 + p) * l.cpairs;
    const std::int64_t ox = 2 * (ix0 + p) - 1 + kx;
    pa[p] = ox >= 0 && ox < ow ? c.plane + (oy * ow + ox) * l.co : nullptr;
    lands = lands || pa[p] != nullptr;
  }
  if (!lands) return;

  // Each block sums every input channel in registers, then touches each
  // output pixel once.
  for (std::int64_t bi = 0; bi < l.nblk; ++bi) {
    __m256i acc[P][2];
    for (int p = 0; p < P; ++p) acc[p][0] = acc[p][1] = _mm256_setzero_si256();
    tile_mac(xr, c.pw->blocks.data() + l.block_at(t, bi), l.cpairs, acc);
    for (int p = 0; p < P; ++p) {
      if (pa[p] == nullptr) continue;
      __m256i* a0 = reinterpret_cast<__m256i*>(pa[p] + 16 * bi);
      __m256i* a1 = reinterpret_cast<__m256i*>(pa[p] + 16 * bi + 8);
      _mm256_storeu_si256(
          a0, _mm256_add_epi32(
                  _mm256_loadu_si256(a0),
                  _mm256_permute2x128_si256(acc[p][0], acc[p][1], 0x20)));
      _mm256_storeu_si256(
          a1, _mm256_add_epi32(
                  _mm256_loadu_si256(a1),
                  _mm256_permute2x128_si256(acc[p][0], acc[p][1], 0x31)));
    }
  }

  const auto tail = [&]<int V>(std::integral_constant<int, V>) {
    __m256i acc[P][V];
    for (int p = 0; p < P; ++p) {
      for (int v = 0; v < V; ++v) acc[p][v] = _mm256_setzero_si256();
    }
    tile_mac(xr, c.pw->tail.data() + l.tail_at(t), l.cpairs, acc);
    for (int p = 0; p < P; ++p) {
      if (pa[p] == nullptr) continue;
      for (std::int64_t v = 0; v < V; ++v) {
        std::int32_t* ptr = pa[p] + l.co16 + 8 * v;
        _mm256_maskstore_epi32(
            ptr, c.tmask[v],
            _mm256_add_epi32(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ptr)),
                acc[p][v]));
      }
    }
  };
  if (l.nb8 == 1) tail(std::integral_constant<int, 1>{});
  if (l.nb8 == 2) tail(std::integral_constant<int, 2>{});
}

}  // namespace

/// Lays W[t][c][o] out as madd operands, zero-padded past ci and co so no
/// load leaves them. For tap t, input pair cp (channels 2cp, 2cp+1):
///  - blocks: per 16-wide block bi, 32 values at block_at(t, bi) + 32*cp —
///    the pairs (W[t][2cp][o], W[t][2cp+1][o]) for o = 16bi + {0..3, 8..11},
///    then for o = 16bi + {4..7, 12..15}: the lane order madd leaves behind.
///  - tail: per 8 channels b past co16, 16 values at tail_at(t) +
///    (cp*nb8 + b)*16 — the pairs for o = co16 + 8b + {0..7}, in order.
PackedWeights pack_weights_avx2(const QOp& op) {
  const PackLayout l(op.weights.shape()[2], op.out_shape[2]);
  const std::int64_t k2 = op.kernel * op.kernel;
  const auto w = [&](std::int64_t t, std::int64_t c, std::int64_t o) {
    return static_cast<std::int16_t>(
        c < l.ci && o < l.co ? op.weights[(t * l.ci + c) * l.co + o] : 0);
  };
  PackedWeights pw;
  pw.blocks.resize(static_cast<std::size_t>(l.block_at(k2, 0)));
  pw.tail.resize(static_cast<std::size_t>(l.tail_at(k2)));
  for (std::int64_t t = 0; t < k2; ++t) {
    for (std::int64_t cp = 0; cp < l.cpairs; ++cp) {
      for (std::int64_t bi = 0; bi < l.nblk; ++bi) {
        std::int16_t* dst = pw.blocks.data() + l.block_at(t, bi) + cp * 32;
        for (int i = 0; i < 16; ++i) {
          const std::int64_t o = 16 * bi + (i / 8) * 8 + (i % 8) / 2;
          dst[i] = w(t, 2 * cp + i % 2, o);
          dst[16 + i] = w(t, 2 * cp + i % 2, o + 4);
        }
      }
      for (std::int64_t b = 0; b < l.nb8; ++b) {
        std::int16_t* dst =
            pw.tail.data() + l.tail_at(t) + (cp * l.nb8 + b) * 16;
        for (int i = 0; i < 16; ++i) {
          dst[i] = w(t, 2 * cp + i % 2, l.co16 + 8 * b + i / 2);
        }
      }
    }
  }
  return pw;
}

void conv2d_avx2(const TensorI8& x, const QOp& op, const PackedWeights& pw,
                 TensorI8& out, int fix_pos_in) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t k = op.kernel;
  const std::vector<std::int32_t> xplane = pack_input_pairs(x);
  ConvCall c{.l = PackLayout(x.shape()[2], op.out_shape[2]),
             .h = h,
             .w = x.shape()[1],
             .k = k,
             .pad = k / 2,
             .xplane = xplane.data(),
             .pw = &pw,
             .bias = op.bias.data(),
             .tail_bias = {},
             .shift = fix_pos_in + op.fix_pos_w - op.fix_pos_out,
             .relu = op.relu,
             .out = out.data()};
  assert(c.l.fits(pw, k * k));
  for (std::int64_t o = 0; o < c.l.tail; ++o) {
    c.tail_bias[o] = op.bias[c.l.co16 + o];
  }
  for (std::int64_t oy = 0; oy < h; ++oy) {
    for_each_tile(c.w, [&]<int P>(std::integral_constant<int, P>,
                                  std::int64_t ox0) {
      conv_tile<P>(c, oy, ox0);
    });
  }
}

void tconv2d_avx2(const TensorI8& x, const QOp& op, const PackedWeights& pw,
                  TensorI8& out, int fix_pos_in, tensor::TensorArena* arena) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t k = op.kernel;
  const int shift = fix_pos_in + op.fix_pos_w - op.fix_pos_out;
  const std::vector<std::int32_t> xplane = pack_input_pairs(x);
  std::vector<std::int32_t> local;
  TConvCall c{.l = PackLayout(x.shape()[2], op.out_shape[2]),
              .w = w,
              .xplane = xplane.data(),
              .pw = &pw,
              .tmask = {_mm256_setzero_si256(), _mm256_setzero_si256()},
              .plane = detail::tconv_scratch(op, arena, local)};
  assert(c.l.fits(pw, k * k));
  // The tail adds into the accumulator plane through a masked store
  // (full-width loads stay in bounds because tconv_scratch pads the plane
  // by 8 int32).
  const __m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (std::int64_t b = 0; b < c.l.nb8; ++b) {
    c.tmask[b] = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(c.l.tail - 8 * b)), idx);
  }

  // The reference's scatter: input pixel (iy, ix) adds tap (ky, kx)'s
  // products into output pixel (2iy-1+ky, 2ix-1+kx). A tile of input pixels
  // on one row shares each of the tap's operand vectors.
  detail::tconv_acc_init(op, c.plane);
  for (std::int64_t iy = 0; iy < h; ++iy) {
    for (std::int64_t ky = 0; ky < k; ++ky) {
      const std::int64_t oy = 2 * iy - 1 + ky;
      if (oy < 0 || oy >= 2 * h) continue;
      for (std::int64_t kx = 0; kx < k; ++kx) {
        for_each_tile(w, [&]<int P>(std::integral_constant<int, P>,
                                    std::int64_t ix0) {
          tconv_tile<P>(c, iy, oy, ky * k + kx, kx, ix0);
        });
      }
    }
  }

  const std::int32_t* plane = c.plane;
  const std::int64_t n = op.out_shape.numel();
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    requant_store16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(plane + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(plane + i + 8)),
        shift, op.relu, out.data() + i);
  }
  for (; i < n; ++i) {
    std::int32_t v = rshift_round32(plane[i], shift);
    if (op.relu && v < 0) v = 0;
    out[i] = saturate_i8(v);
  }
}

void maxpool2d_avx2(const TensorI8& x, TensorI8& out) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t c = x.shape()[2];
  const std::int64_t oh = h / 2, ow = w / 2;
  if (c < 16) {
    // Narrow-channel path (the small ladder rungs pool c <= 15): one
    // overlapped 16-byte vector covers the whole 2x2 window of a pixel.
    // The store writes 16 - c bytes past the pixel's channels; those bytes
    // belong to later output pixels and are rewritten before anyone reads
    // them, because pixels are produced in ascending flat order. The last
    // pixels fall back to scalar so neither loads nor stores leave the
    // tensors.
    const std::int8_t* xb = x.data();
    std::int8_t* ob = out.data();
    const std::int64_t xn = x.numel(), on = out.numel();
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const std::int64_t i00 = ((2 * oy) * w + 2 * ox) * c;
        const std::int64_t i10 = ((2 * oy + 1) * w + 2 * ox) * c;
        const std::int64_t io = (oy * ow + ox) * c;
        if (i10 + c + 16 <= xn && io + 16 <= on) {
          const __m128i m = _mm_max_epi8(
              _mm_max_epi8(
                  _mm_loadu_si128(reinterpret_cast<const __m128i*>(xb + i00)),
                  _mm_loadu_si128(
                      reinterpret_cast<const __m128i*>(xb + i00 + c))),
              _mm_max_epi8(
                  _mm_loadu_si128(reinterpret_cast<const __m128i*>(xb + i10)),
                  _mm_loadu_si128(
                      reinterpret_cast<const __m128i*>(xb + i10 + c))));
          _mm_storeu_si128(reinterpret_cast<__m128i*>(ob + io), m);
        } else {
          for (std::int64_t ch = 0; ch < c; ++ch) {
            ob[io + ch] =
                std::max(std::max(xb[i00 + ch], xb[i00 + c + ch]),
                         std::max(xb[i10 + ch], xb[i10 + c + ch]));
          }
        }
      }
    }
    return;
  }
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      const std::int8_t* p00 = x.data() + ((2 * oy) * w + 2 * ox) * c;
      const std::int8_t* p10 = x.data() + ((2 * oy + 1) * w + 2 * ox) * c;
      std::int8_t* po = out.data() + (oy * ow + ox) * c;
      std::int64_t ch = 0;
      for (; ch + 32 <= c; ch += 32) {
        const __m256i m = _mm256_max_epi8(
            _mm256_max_epi8(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(p00 + ch)),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(p00 + c + ch))),
            _mm256_max_epi8(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(p10 + ch)),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(p10 + c + ch))));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(po + ch), m);
      }
      for (; ch + 16 <= c; ch += 16) {
        const __m128i m = _mm_max_epi8(
            _mm_max_epi8(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(p00 + ch)),
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(p00 + c + ch))),
            _mm_max_epi8(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(p10 + ch)),
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(p10 + c + ch))));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(po + ch), m);
      }
      for (; ch < c; ++ch) {
        po[ch] = std::max(std::max(p00[ch], p00[c + ch]),
                          std::max(p10[ch], p10[c + ch]));
      }
    }
  }
}

void requant_row_avx2(const std::int8_t* src, std::int8_t* dst,
                      std::int64_t n, int shift) {
  if (shift == 0) {
    std::memcpy(dst, src, static_cast<std::size_t>(n));
    return;
  }
  // int16 arithmetic covers |v| <= 128 with rounding-bias headroom for
  // shifts in [-8, 7]; anything wilder goes through the int64 reference.
  if (shift > 7 || shift < -8) {
    for (std::int64_t i = 0; i < n; ++i) {
      dst[i] = saturate_i8(rshift_round(src[i], shift));
    }
    return;
  }
  const std::int64_t n16 = n & ~std::int64_t{15};
  std::int64_t i = 0;
  if (shift > 0) {
    const __m128i rbias = _mm_set1_epi16(static_cast<short>(1 << (shift - 1)));
    const __m128i cnt = _mm_cvtsi32_si128(shift);
    for (; i < n16; i += 16) {
      const __m128i v8 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
      const __m128i lo = _mm_cvtepi8_epi16(v8);
      const __m128i hi = _mm_cvtepi8_epi16(_mm_srli_si128(v8, 8));
      const __m128i rlo = _mm_sign_epi16(
          _mm_srl_epi16(_mm_add_epi16(_mm_abs_epi16(lo), rbias), cnt), lo);
      const __m128i rhi = _mm_sign_epi16(
          _mm_srl_epi16(_mm_add_epi16(_mm_abs_epi16(hi), rbias), cnt), hi);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                       _mm_packs_epi16(rlo, rhi));
    }
  } else {
    const __m128i cnt = _mm_cvtsi32_si128(-shift);
    for (; i < n16; i += 16) {
      const __m128i v8 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
      const __m128i lo = _mm_sll_epi16(_mm_cvtepi8_epi16(v8), cnt);
      const __m128i hi = _mm_sll_epi16(
          _mm_cvtepi8_epi16(_mm_srli_si128(v8, 8)), cnt);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                       _mm_packs_epi16(lo, hi));
    }
  }
  for (; i < n; ++i) {
    dst[i] = saturate_i8(rshift_round(src[i], shift));
  }
}

}  // namespace seneca::quant::kernels

#endif  // SENECA_KERNELS_AVX2
