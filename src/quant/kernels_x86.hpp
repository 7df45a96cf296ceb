#pragma once
// The x86 conv/tconv tile walker, which every x86 path runs: the pair format
// (kernels_avx2.cpp, built with -mavx2), the 256-bit quads
// (kernels_avxvnni.cpp, -mavx2 -mavxvnni) and the 512-bit quads
// (kernels_avx512vnni.cpp, -mavx512f -mavx512bw -mavx512vl -mavx512vnni).
// Include it from those three translation units only. Everything here has
// internal linkage (an anonymous namespace), so each includer compiles its
// own copy with its own flags: the linker can never resolve the AVX2 unit's
// call to a copy built with -mavxvnni or -mavx512f, which would fault on a
// CPU without them.
//
// A format F is a type with, on the pack side:
//   kGroup          input channels per int32 lane: 2 (pairs) or 4 (quads);
//   kOffset         whether F offsets the input by +128 to make it
//                   unsigned; the pack's `sums` then take the offset's
//                   products back out of the accumulator seeds;
//   lane(v)         kGroup int8 weights as one int32 operand lane;
//   input_plane(x)  the input as lanes of kGroup channels, the last lane of
//                   a pixel padded, plus one zero row (input 0) after the
//                   last pixel;
// and on the vector side (Ymm below, or the 512-bit unit's Zmm):
//   Vec, kLanes     the vector type and its int32 lanes: 8 or 16;
//   load, store, add, sub, zero, broadcast;
//   mac(acc, w, x)  acc plus the lane-wise dot product of the weight lanes
//                   w and the broadcast input lane x;
//   Mask, mask(n)   a tail vector's first n lanes;
//   add_masked(p, v, m)  p[i] += v[i] on the lanes m names;
//   requant16(v..., ...) 16 / kLanes vectors of 16 in-order accumulators,
//                        requanted to 16 int8 bytes;
//   requant_n(v, ..., m) one vector's lanes that m names, to bytes;
//   Tail<NB8>       the format whose vectors run a tail of NB8 8-lane
//                   groups: F itself, or a narrower one with F's pack side
//                   where F's vectors would run half empty.
// Both quad widths share one pack (QuadPack): a 16-wide block's lane group
// is 16 int32 lanes in channel order on a cache line, which the 256-bit
// quads read as two vectors and the 512-bit quads as one.
//
// The walker runs tiles of P pixels x B blocks, as the DPU's array computes
// 8 pixels x 16 input x 16 output channels at once: each operand vector is
// loaded once per tile and feeds every pixel's accumulators, each an
// independent chain. Each call picks its tiles from the row width and the
// block count, keeping 8 accumulators or fewer per tile. With 8 lanes per
// vector a block is 2 vectors: tiles of 4 pixels x 1 block, then single
// pixels. With 16 lanes a block is 1 vector: tiles of 4 pixels x 2 blocks,
// or 8 pixels x 1 block where co has a single block, then single pixels x
// 2 blocks at row ends; an odd last block runs alone. The channels past the
// last block (the tail, co % 16 of them) run after the blocks, on the same
// pixels, as 8 nb8 lanes of Tail<nb8>'s vectors, stored through masks. A
// conv tile runs the union of its pixels' column taps (row taps are clipped
// per output row), and a pixel whose tap falls off the map reads the zero
// row. Bit-exactness vs the scalar reference holds because the final int32
// sum is exact (the dispatcher's headroom proof bounds it, and int32
// addition that wraps on the way is exact modulo 2^32) and the requant
// epilogue computes the identical round-half-away-from-zero arithmetic.

#include <immintrin.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "quant/kernels.hpp"
#include "quant/kernels_internal.hpp"

namespace seneca::quant::kernels {

namespace {

using detail::rshift_round32;

template <int N>
using Int = std::integral_constant<int, N>;

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

/// 8 int32 accumulators after the round-half-away-from-zero shift and the
/// optional ReLU, before saturation.
inline __m256i requant8(__m256i v, int shift, bool relu) {
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
  return v;
}

/// Requants 8 in-order int32 accumulators and stores the first `nvalid`
/// saturated int8 bytes (the small-co tail: nvalid in 1..8).
inline void requant_store_n(__m256i v, int shift, bool relu, std::int8_t* dst,
                            std::int64_t nvalid) {
  v = requant8(v, shift, relu);
  const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(v),
                                      _mm256_extracti128_si256(v, 1));
  const __m128i p8 = _mm_packs_epi16(p16, p16);
  alignas(16) std::int8_t tmp[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(tmp), p8);
  std::memcpy(dst, tmp, static_cast<std::size_t>(nvalid));
}

/// 8 int32 lanes as a vector type of GCC and clang, which the walker keeps
/// its accumulators in: the int32 multiply-add builtins take and return
/// it. Kept as __m256i (4 int64), GCC 12 copied some loops' accumulators
/// into a scratch register and back around every multiply-add (8 vmovdqa
/// per lane group in the pair format's tconv).
using I32x8 = std::int32_t __attribute__((vector_size(32)));
inline __m256i as_m256i(I32x8 v) { return reinterpret_cast<__m256i>(v); }
inline I32x8 as_i32x8(__m256i v) { return reinterpret_cast<I32x8>(v); }

/// The vector side of the 256-bit formats (the pairs and the AVX-VNNI
/// quads): 8 int32 lanes, so a 16-wide block is two vectors.
struct Ymm {
  using Vec = I32x8;
  static constexpr int kLanes = 8;

  /// A tail vector's valid lanes, as maskstore reads them and as a count.
  struct Mask {
    __m256i lanes;
    std::int64_t n;
  };
  static Mask mask(std::int64_t n) {
    return {_mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                               _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)),
            n};
  }

  static Vec load(const std::int32_t* p) {
    return as_i32x8(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static void store(std::int32_t* p, Vec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), as_m256i(v));
  }
  static Vec zero() { return Vec{}; }
  static Vec broadcast(std::int32_t x) { return x + Vec{}; }
  static Vec add(Vec a, Vec b) { return a + b; }
  static Vec sub(Vec a, Vec b) { return a - b; }

  /// Reads all 8 lanes: tconv_scratch pads the plane by 8 int32, so a tail
  /// vector's read stays in bounds.
  static void add_masked(std::int32_t* p, Vec v, const Mask& m) {
    _mm256_maskstore_epi32(p, m.lanes, as_m256i(add(load(p), v)));
  }
  static void requant16(Vec v0, Vec v1, int shift, bool relu,
                        std::int8_t* dst) {
    requant_store16(as_m256i(v0), as_m256i(v1), shift, relu, dst);
  }
  static void requant_n(Vec v, int shift, bool relu, std::int8_t* dst,
                        const Mask& m) {
    requant_store_n(as_m256i(v), shift, relu, dst, m.n);
  }
};

/// The pack side of the quad format, which the 256-bit (AVX-VNNI) and the
/// 512-bit (AVX512-VNNI) quads share: both build and read one pack.
struct QuadPack {
  static constexpr int kGroup = 4;
  static constexpr bool kOffset = true;

  /// (v0, v1, v2, v3) as bytes, v0 lowest: the order vpdpbusd pairs them.
  static std::int32_t lane(const std::int8_t (&v)[4]) {
    std::int32_t q;
    std::memcpy(&q, v, sizeof q);
    return q;
  }

  /// The input plus 128 as unsigned bytes, four channels to a lane. Padding
  /// bytes and the zero row are 0x80, which stands for input 0.
  static std::vector<std::int32_t> input_plane(const TensorI8& x) {
    const std::int64_t ci = x.shape()[2];
    const std::int64_t pixels = x.numel() / ci;
    const std::int64_t row = 4 * ((ci + 3) / 4);  // bytes per pixel
    std::vector<std::int32_t> plane(
        static_cast<std::size_t>((pixels + 1) * row / 4));
    auto* dst = reinterpret_cast<std::uint8_t*>(plane.data());
    const auto* src = reinterpret_cast<const std::uint8_t*>(x.data());
    if (row == ci) {
      for (std::int64_t i = 0; i < pixels * ci; ++i) dst[i] = src[i] ^ 0x80;
      std::memset(dst + pixels * ci, 0x80, static_cast<std::size_t>(row));
      return plane;
    }
    std::memset(dst, 0x80, plane.size() * sizeof(std::int32_t));
    for (std::int64_t p = 0; p < pixels; ++p) {
      for (std::int64_t c = 0; c < ci; ++c) {
        dst[p * row + c] = src[p * ci + c] ^ 0x80;
      }
    }
    return plane;
  }
};

/// The shape of a layer's pack, shared by packing and every kernel so they
/// cannot disagree on an offset. Offsets and sizes count int32 lanes.
struct PackLayout {
  std::int64_t ci, co, k2, co16, tail, nblk, nb8, ng, cpad;
  bool offset;
  PackLayout(std::int64_t c_in, std::int64_t c_out, std::int64_t taps,
             int group, bool offset_sums)
      : ci(c_in),
        co(c_out),
        k2(taps),
        co16(c_out & ~std::int64_t{15}),
        tail(c_out - co16),
        nblk(co16 / 16),
        nb8((tail + 7) / 8),  // 0..2
        ng((c_in + group - 1) / group),
        cpad(co16 + 8 * nb8),
        offset(offset_sums) {}
  /// Block bi's operands at tap t: per lane group g, 16 lanes (channels
  /// 16bi + 0..15) at + 16g.
  std::int64_t block_at(std::int64_t t, std::int64_t bi) const {
    return (t * nblk + bi) * ng * 16;
  }
  /// The tail's operands at tap t, after every block: per lane group g,
  /// 8 nb8 lanes (channels co16 + 0..8 nb8 - 1) at + 8 nb8 g.
  std::int64_t tail_at(std::int64_t t) const {
    return k2 * nblk * ng * 16 + t * ng * nb8 * 8;
  }
  /// Tap t's sums, cpad lanes in channel order; t = k2 is the total.
  std::int64_t sum_at(std::int64_t t) const { return t * cpad; }
  std::int64_t operands_size() const { return tail_at(k2); }
  std::int64_t sums_size() const { return offset ? sum_at(k2 + 1) : 0; }
  /// Whether `pw` was packed for this layout, on a cache line: each lane
  /// group of a block is then exactly one cache line in the quad format.
  bool fits(const PackedWeights& pw) const {
    return static_cast<std::int64_t>(pw.operands.size()) == operands_size() &&
           static_cast<std::int64_t>(pw.sums.size()) == sums_size() &&
           reinterpret_cast<std::uintptr_t>(pw.operands.data()) % 64 == 0;
  }
};

template <typename F>
PackLayout layout_of(std::int64_t ci, const QOp& op) {
  return PackLayout(ci, op.out_shape[2], op.kernel * op.kernel, F::kGroup,
                    F::kOffset);
}
/// Lays W[t][c][o] out as F's operands, zero past ci and co so no load
/// leaves them. Lane o of lane group g holds W[t][kGroup g + i][o] for
/// i < kGroup, at block_at(t, o / 16) + 16g + o % 16, or past the last
/// block at tail_at(t) + 8 nb8 g + o - co16. An offset format's sums come
/// from the same pass: 128 W[t][c][o] summed over c per tap, then over the
/// taps. They are kept modulo 2^32, like the accumulators they seed.
template <typename F>
PackedWeights pack(const QOp& op) {
  constexpr int kG = F::kGroup;
  const std::span<const std::int8_t> w = op.weight_view();
  const std::int64_t ci = static_cast<std::int64_t>(w.size()) /
                          (op.kernel * op.kernel * op.out_shape[2]);
  const PackLayout l = layout_of<F>(ci, op);
  PackedWeights pw;
  pw.operands.resize(static_cast<std::size_t>(l.operands_size()));
  pw.sums.resize(static_cast<std::size_t>(l.sums_size()));
  std::vector<std::int64_t> tap_sum, total;
  if constexpr (F::kOffset) {
    tap_sum.resize(static_cast<std::size_t>(l.co));
    total.resize(static_cast<std::size_t>(l.co));
  }
  for (std::int64_t t = 0; t < l.k2; ++t) {
    for (std::int64_t g = 0; g < l.ng; ++g) {
      const std::int64_t n = std::min<std::int64_t>(kG, l.ci - kG * g);
      const std::int8_t* wr =
          w.data() + (t * l.ci + kG * g) * l.co;  // row c = kG g
      for (std::int64_t o = 0; o < l.co; ++o) {
        std::int8_t v[kG] = {};
        for (std::int64_t i = 0; i < n; ++i) v[i] = wr[i * l.co + o];
        const std::int64_t at =
            o < l.co16 ? l.block_at(t, o / 16) + 16 * g + o % 16
                       : l.tail_at(t) + 8 * l.nb8 * g + o - l.co16;
        pw.operands[static_cast<std::size_t>(at)] = F::lane(v);
        if constexpr (F::kOffset) {
          for (const std::int8_t vi : v) {
            tap_sum[static_cast<std::size_t>(o)] += vi;
          }
        }
      }
    }
    if constexpr (F::kOffset) {
      for (std::int64_t o = 0; o < l.co; ++o) {
        const std::int64_t s = 128 * tap_sum[static_cast<std::size_t>(o)];
        pw.sums[static_cast<std::size_t>(l.sum_at(t) + o)] =
            static_cast<std::int32_t>(s);
        total[static_cast<std::size_t>(o)] += s;
        tap_sum[static_cast<std::size_t>(o)] = 0;
      }
    }
  }
  for (std::size_t o = 0; o < total.size(); ++o) {
    pw.sums[static_cast<std::size_t>(l.sum_at(l.k2)) + o] =
        static_cast<std::int32_t>(total[o]);
  }
  return pw;
}

/// acc[p][v] = F::mac(acc[p][v], operand vector v, input lane) over every
/// lane group of pixel p's row xr[p], for a tile of P pixels and V operand
/// vectors. Lane group g's vector v is at wt + G g + vstride v: a 16-wide
/// block is G = 16 with two 8-lane vectors 8 apart or one 16-lane vector
/// (the blocks of one tile then lie vstride apart), the tail G = 8 nb8.
/// Each operand vector is loaded once and feeds P independent chains.
/// Branchless on purpose: post-ReLU activations are zero-rich and a
/// data-dependent skip mispredicts far more than the saved MAC costs.
template <typename F, int P, int V, int G>
[[gnu::always_inline]] inline void tile_mac(
    const std::int32_t* const (&xr)[P], const std::int32_t* wt,
    std::int64_t vstride, std::int64_t ng, typename F::Vec (&acc)[P][V]) {
  for (std::int64_t g = 0; g < ng; ++g) {
    typename F::Vec wv[V];
    for (int v = 0; v < V; ++v) wv[v] = F::load(wt + g * G + v * vstride);
    for (int p = 0; p < P; ++p) {
      const typename F::Vec xv = F::broadcast(xr[p][g]);
      for (int v = 0; v < V; ++v) acc[p][v] = F::mac(acc[p][v], wv[v], xv);
    }
  }
}

/// How F's tiles hold the channels: VB vectors per 16-wide block, B blocks
/// per tile of up to 4 pixels (an 8-pixel tile holds one), and a tail of
/// NB8 8-lane groups as TV<NB8> vectors of T<NB8>.
template <typename F>
struct Tiling {
  static constexpr int VB = 16 / F::kLanes;
  static constexpr int B = F::kLanes / 8;
  template <int NB8>
  using T = typename F::template Tail<NB8>;
  template <int NB8>
  static constexpr int TV = 8 * NB8 / T<NB8>::kLanes;
};

/// Calls tile(Int<P>{}, x0) over a row `w` pixels wide: tiles of 8 while
/// they fit where `wide` (16-lane formats only), then tiles of 4, then
/// single pixels, so a row narrower than 4 runs single pixels.
template <typename F, typename Tile>
inline void for_each_tile(std::int64_t w, [[maybe_unused]] bool wide,
                          Tile&& tile) {
  std::int64_t x = 0;
  if constexpr (F::kLanes == 16) {
    if (wide) {
      for (; x + 8 <= w; x += 8) tile(Int<8>{}, x);
    }
  }
  for (; x + 4 <= w; x += 4) tile(Int<4>{}, x);
  for (; x < w; ++x) tile(Int<1>{}, x);
}

/// Requants block b of one pixel's accumulators, `acc`, to 16 bytes at
/// dst: vectors 2b and 2b + 1 of 8 lanes, or vector b of 16.
template <typename F, int V>
[[gnu::always_inline]] inline void requant_block(
    const typename F::Vec (&acc)[V], int b, int shift, bool relu,
    std::int8_t* dst) {
  if constexpr (F::kLanes == 8) {
    F::requant16(acc[2 * b], acc[2 * b + 1], shift, relu, dst);
  } else {
    F::requant16(acc[b], shift, relu, dst);
  }
}

/// What every tile of one conv call reads and writes.
struct ConvCall {
  PackLayout l;
  std::int64_t h, w, k, pad;
  const std::int32_t* xplane;  // the input lanes; pixel h*w is the zero row
  const std::int32_t* operands;
  const std::int32_t* sums;  // an offset format's
  const std::int32_t* bias;
  std::int32_t tail_bias[16];  // the bias past co16, zero-padded
  int shift;
  bool relu;
  std::int8_t* out;
};

/// Conv output pixels (oy, ox0 .. ox0 + P - 1), every channel. Not inlined,
/// so each tile width gets its own registers: inlined into one function,
/// the P = 1 loop's bound spilled to the stack.
template <typename F, int P>
[[gnu::noinline]] void conv_tile(const ConvCall& c, std::int64_t oy,
                                 std::int64_t ox0) {
  using S = Tiling<F>;
  assert(ox0 >= 0 && ox0 + P <= c.w);
  const PackLayout& l = c.l;
  // Local copies of the call's fields: read through `c` inside the tap
  // loop, they are reloaded on every tap, which costs the 1x1 and 2x2
  // layers 5-10 % against a per-pixel loop.
  const std::int64_t h = c.h, w = c.w, k = c.k, pad = c.pad;
  const std::int64_t ng = l.ng;
  const std::int32_t* xplane = c.xplane;
  const std::int32_t* zero_row = xplane + h * w * ng;
  const std::int64_t ky0 = std::max<std::int64_t>(0, pad - oy);
  const std::int64_t ky1 = std::min(k, h + pad - oy);
  // The union of the pixels' column taps: from the last pixel's first to
  // the first pixel's last.
  const std::int64_t kx0 = std::max<std::int64_t>(0, pad - (ox0 + P - 1));
  const std::int64_t kx1 = std::min(k, w + pad - ox0);
  // acc += every tap of the tile, in T's vectors; operands(t) is tap t's,
  // lane group g's vector v at + G g + vstride v. A single pixel's clipped
  // taps all lie on the map, so only a wider tile reads the zero row.
  const auto sum_taps = [&]<typename T, int V, int G>(
                            std::type_identity<T>, Int<G>, auto operands,
                            std::int64_t vstride,
                            typename T::Vec (&acc)[P][V]) {
    for (std::int64_t ky = ky0; ky < ky1; ++ky) {
      const std::int64_t row = (oy + ky - pad) * w;
      for (std::int64_t kx = kx0; kx < kx1; ++kx) {
        const std::int32_t* xr[P];
        for (int p = 0; p < P; ++p) {
          const std::int64_t ix = ox0 + p + kx - pad;
          xr[p] = P == 1 || (ix >= 0 && ix < w) ? xplane + (row + ix) * ng
                                                : zero_row;
        }
        tile_mac<T, P, V, G>(xr, operands(ky * k + kx), vstride, ng, acc);
      }
    }
  };
  // acc = the bias of channels ch.. (at `bias`), in T's vectors. An offset
  // format also takes out 128 times the weight sum of every tap the tile
  // reads, which the +128 offset adds in. Every pixel of the tile reads the
  // same taps (off the map, the zero row, which holds input 0), so one seed
  // serves them all, and a tile that reads every tap loads the whole-kernel
  // total.
  const auto seed = [&]<typename T, int V>(std::type_identity<T>,
                                           const std::int32_t* bias,
                                           [[maybe_unused]] std::int64_t ch,
                                           typename T::Vec (&acc)[P][V]) {
    constexpr int L = T::kLanes;
    typename T::Vec s[V];
    for (int v = 0; v < V; ++v) s[v] = T::load(bias + L * v);
    if constexpr (F::kOffset) {
      const auto minus_tap = [&](std::int64_t t) {
        const std::int32_t* st = c.sums + l.sum_at(t) + ch;
        for (int v = 0; v < V; ++v) s[v] = T::sub(s[v], T::load(st + L * v));
      };
      if (ky1 - ky0 == k && kx1 - kx0 == k) {
        minus_tap(k * k);
      } else {
        for (std::int64_t ky = ky0; ky < ky1; ++ky) {
          for (std::int64_t kx = kx0; kx < kx1; ++kx) minus_tap(ky * k + kx);
        }
      }
    }
    for (int p = 0; p < P; ++p) {
      for (int v = 0; v < V; ++v) acc[p][v] = s[v];
    }
  };
  std::int8_t* po = c.out + (oy * w + ox0) * l.co;

  // NB blocks from bi on: their vectors lie 8 lanes apart within a block,
  // or whole blocks apart. Always inlined: as a call, GCC kept the tile's
  // accumulators on the stack around the tap loops.
  const auto blocks = [&]<int NB>(std::int64_t bi, Int<NB>)
                          __attribute__((always_inline)) {
    static_assert(NB == 1 || S::VB == 1);
    constexpr int V = NB * S::VB;
    typename F::Vec acc[P][V];
    seed(std::type_identity<F>{}, c.bias + 16 * bi, 16 * bi, acc);
    sum_taps(
        std::type_identity<F>{}, Int<16>{},
        [&](std::int64_t t) { return c.operands + l.block_at(t, bi); },
        S::VB == 1 ? ng * 16 : F::kLanes, acc);
    for (int p = 0; p < P; ++p) {
      for (int b = 0; b < NB; ++b) {
        requant_block<F>(acc[p], b, c.shift, c.relu,
                         po + p * l.co + 16 * (bi + b));
      }
    }
  };
  constexpr int B = P == 8 ? 1 : S::B;
  std::int64_t bi = 0;
  for (; bi + B <= l.nblk; bi += B) blocks(bi, Int<B>{});
  if constexpr (B > 1) {
    if (bi < l.nblk) blocks(bi, Int<1>{});
  }

  // Channels past the last block: the whole layer when co < 16, as on the
  // narrow rungs and the class-logit head.
  const auto tail = [&]<int NB8>(Int<NB8>) __attribute__((always_inline)) {
    using T = typename S::template T<NB8>;
    constexpr int V = S::template TV<NB8>, L = T::kLanes;
    typename T::Vec acc[P][V];
    seed(std::type_identity<T>{}, c.tail_bias, l.co16, acc);
    sum_taps(
        std::type_identity<T>{}, Int<8 * NB8>{},
        [&](std::int64_t t) { return c.operands + l.tail_at(t); }, L, acc);
    for (int v = 0; v < V; ++v) {
      const typename T::Mask m =
          T::mask(std::min<std::int64_t>(L, l.tail - L * v));
      for (int p = 0; p < P; ++p) {
        T::requant_n(acc[p][v], c.shift, c.relu,
                     po + p * l.co + l.co16 + L * v, m);
      }
    }
  };
  if (l.nb8 == 1) tail(Int<1>{});
  if (l.nb8 == 2) tail(Int<2>{});
}

/// What every tile of one tconv call reads and writes.
struct TConvCall {
  PackLayout l;
  std::int64_t w;  // the input's; the output is 2w wide
  const std::int32_t* xplane;
  const std::int32_t* operands;
  const std::int32_t* sums;  // an offset format's
  std::int32_t* plane;
};

/// Input pixels (iy, ix0 .. ix0 + P - 1) through tap t = (ky, kx): adds
/// each pixel's products into output pixel (oy, 2ix-1+kx) of the
/// accumulator plane, oy = 2iy-1+ky. A sum whose output column falls off
/// the map is dropped, and a tile none of whose sums lands is skipped. Not
/// inlined, as conv_tile.
template <typename F, int P>
[[gnu::noinline]] void tconv_tile(const TConvCall& c, std::int64_t iy,
                                  std::int64_t oy, std::int64_t t,
                                  std::int64_t kx, std::int64_t ix0) {
  using S = Tiling<F>;
  assert(ix0 >= 0 && ix0 + P <= c.w);
  const PackLayout& l = c.l;
  const std::int64_t ow = 2 * c.w;
  const std::int32_t* xr[P];
  std::int32_t* pa[P];  // null: off the map
  bool lands = false;
  for (int p = 0; p < P; ++p) {
    xr[p] = c.xplane + (iy * c.w + ix0 + p) * l.ng;
    const std::int64_t ox = 2 * (ix0 + p) - 1 + kx;
    pa[p] = ox >= 0 && ox < ow ? c.plane + (oy * ow + ox) * l.co : nullptr;
    lands = lands || pa[p] != nullptr;
  }
  if (!lands) return;

  // acc = 0, or in an offset format minus 128 times tap t's weight sums
  // of channels ch.., in T's vectors, which the +128 offset adds in.
  const auto seed = [&]<typename T, int V>(std::type_identity<T>,
                                           [[maybe_unused]] std::int64_t ch,
                                           typename T::Vec (&acc)[P][V]) {
    for (int v = 0; v < V; ++v) {
      typename T::Vec s = T::zero();
      if constexpr (F::kOffset) {
        s = T::sub(s, T::load(c.sums + l.sum_at(t) + ch + T::kLanes * v));
      }
      for (int p = 0; p < P; ++p) acc[p][v] = s;
    }
  };

  // NB blocks from bi on, as conv_tile's: each sums every input channel in
  // registers, then touches each output pixel once.
  const auto blocks = [&]<int NB>(std::int64_t bi, Int<NB>)
                          __attribute__((always_inline)) {
    static_assert(NB == 1 || S::VB == 1);
    constexpr int V = NB * S::VB;
    typename F::Vec acc[P][V];
    seed(std::type_identity<F>{}, 16 * bi, acc);
    tile_mac<F, P, V, 16>(xr, c.operands + l.block_at(t, bi),
                          S::VB == 1 ? l.ng * 16 : F::kLanes, l.ng, acc);
    for (int p = 0; p < P; ++p) {
      if (pa[p] == nullptr) continue;
      for (int v = 0; v < V; ++v) {
        std::int32_t* a = pa[p] + 16 * bi + F::kLanes * v;
        F::store(a, F::add(F::load(a), acc[p][v]));
      }
    }
  };
  constexpr int B = P == 8 ? 1 : S::B;
  std::int64_t bi = 0;
  for (; bi + B <= l.nblk; bi += B) blocks(bi, Int<B>{});
  if constexpr (B > 1) {
    if (bi < l.nblk) blocks(bi, Int<1>{});
  }

  const auto tail = [&]<int NB8>(Int<NB8>) __attribute__((always_inline)) {
    using T = typename S::template T<NB8>;
    constexpr int V = S::template TV<NB8>, L = T::kLanes;
    typename T::Vec acc[P][V];
    seed(std::type_identity<T>{}, l.co16, acc);
    tile_mac<T, P, V, 8 * NB8>(xr, c.operands + l.tail_at(t), L, l.ng, acc);
    for (int v = 0; v < V; ++v) {
      const typename T::Mask m =
          T::mask(std::min<std::int64_t>(L, l.tail - L * v));
      for (int p = 0; p < P; ++p) {
        if (pa[p] == nullptr) continue;
        T::add_masked(pa[p] + l.co16 + L * v, acc[p][v], m);
      }
    }
  };
  if (l.nb8 == 1) tail(Int<1>{});
  if (l.nb8 == 2) tail(Int<2>{});
}

template <typename F>
void conv2d_tiles(const TensorI8& x, const QOp& op, const PackedWeights& pw,
                  TensorI8& out, int fix_pos_in) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t k = op.kernel;
  const std::vector<std::int32_t> xplane = F::input_plane(x);
  ConvCall c{.l = layout_of<F>(x.shape()[2], op),
             .h = h,
             .w = x.shape()[1],
             .k = k,
             .pad = k / 2,
             .xplane = xplane.data(),
             .operands = pw.operands.data(),
             .sums = pw.sums.data(),
             .bias = op.bias.data(),
             .tail_bias = {},
             .shift = fix_pos_in + op.fix_pos_w - op.fix_pos_out,
             .relu = op.relu,
             .out = out.data()};
  assert(c.l.fits(pw));
  for (std::int64_t o = 0; o < c.l.tail; ++o) {
    c.tail_bias[o] = op.bias[static_cast<std::size_t>(c.l.co16 + o)];
  }
  const bool wide = c.l.nblk <= 1;
  for (std::int64_t oy = 0; oy < h; ++oy) {
    for_each_tile<F>(c.w, wide, [&]<int P>(Int<P>, std::int64_t ox0) {
      conv_tile<F, P>(c, oy, ox0);
    });
  }
}

template <typename F>
void tconv2d_tiles(const TensorI8& x, const QOp& op, const PackedWeights& pw,
                   TensorI8& out, int fix_pos_in, tensor::TensorArena* arena) {
  constexpr int L = F::kLanes;
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t k = op.kernel;
  const int shift = fix_pos_in + op.fix_pos_w - op.fix_pos_out;
  const std::vector<std::int32_t> xplane = F::input_plane(x);
  std::vector<std::int32_t> local;
  TConvCall c{.l = layout_of<F>(x.shape()[2], op),
              .w = w,
              .xplane = xplane.data(),
              .operands = pw.operands.data(),
              .sums = pw.sums.data(),
              .plane = detail::tconv_scratch(op, arena, local)};
  assert(c.l.fits(pw));
  const bool wide = c.l.nblk <= 1;

  // The reference's scatter: input pixel (iy, ix) adds tap (ky, kx)'s
  // products into output pixel (2iy-1+ky, 2ix-1+kx). A tile of input pixels
  // on one row shares each of the tap's operand vectors.
  detail::tconv_acc_init(op, c.plane);
  for (std::int64_t iy = 0; iy < h; ++iy) {
    for (std::int64_t ky = 0; ky < k; ++ky) {
      const std::int64_t oy = 2 * iy - 1 + ky;
      if (oy < 0 || oy >= 2 * h) continue;
      for (std::int64_t kx = 0; kx < k; ++kx) {
        for_each_tile<F>(w, wide, [&]<int P>(Int<P>, std::int64_t ix0) {
          tconv_tile<F, P>(c, iy, oy, ky * k + kx, kx, ix0);
        });
      }
    }
  }

  const std::int32_t* plane = c.plane;
  const std::int64_t n = op.out_shape.numel();
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    typename F::Vec v[16 / L];
    for (int j = 0; j < 16 / L; ++j) v[j] = F::load(plane + i + L * j);
    requant_block<F>(v, 0, shift, op.relu, out.data() + i);
  }
  for (; i < n; ++i) {
    std::int32_t v = rshift_round32(plane[i], shift);
    if (op.relu && v < 0) v = 0;
    out[i] = saturate_i8(v);
  }
}

}  // namespace

}  // namespace seneca::quant::kernels
