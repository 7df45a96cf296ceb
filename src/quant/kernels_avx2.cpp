// AVX2 INT8 kernels. This translation unit is compiled with -mavx2; the
// dispatcher in kernels.cpp only routes here after a runtime cpuid check,
// so the rest of the library stays runnable on any x86-64.
//
// The pair format, which conv and tconv run on a CPU without AVX-VNNI: each
// operand lane holds the int16 weights of two input channels, so one
// _mm256_madd_epi16 of a packed operand against the broadcast (x0, x1)
// input pair yields 8 exact int8*int8 -> int32 dual-MACs, and a
// _mm256_add_epi32 accumulates them. The tile walker (kernels_x86.hpp) is
// the one both quad widths run; DESIGN.md §8 has the measured per-layer
// table. Max-pool and the row requant live here too.

#include "quant/kernels.hpp"
#include "quant/kernels_internal.hpp"

#if defined(SENECA_KERNELS_AVX2)

#include "quant/kernels_x86.hpp"

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <vector>

namespace seneca::quant::kernels {

namespace {

/// int16 pairs through vpmaddwd on 256-bit vectors: the walker's format
/// contract is in kernels_x86.hpp.
struct PairFormat : Ymm {
  static constexpr int kGroup = 2;
  static constexpr bool kOffset = false;
  template <int NB8>
  using Tail = PairFormat;

  /// (v0, v1) sign-extended to int16, v0 in the low half.
  static std::int32_t lane(const std::int8_t (&v)[2]) {
    return static_cast<std::int32_t>(
        static_cast<std::uint16_t>(v[0]) |
        static_cast<std::uint32_t>(static_cast<std::uint16_t>(v[1])) << 16);
  }

  static Vec mac(Vec acc, Vec w, Vec x) {
    return acc + as_i32x8(_mm256_madd_epi16(as_m256i(w), as_m256i(x)));
  }

  /// Sign-extends the input into (x0, x1) int16 pairs, built once per call
  /// instead of per (pixel, tap) read. Odd ci pads x1 = 0, and the zero row
  /// after the last pixel is zeros.
  static std::vector<std::int32_t> input_plane(const TensorI8& x) {
    const std::int64_t ci = x.shape()[2];
    const std::int64_t pixels = x.numel() / ci;
    const std::int64_t cpairs = (ci + 1) / 2;
    std::vector<std::int32_t> plane(
        static_cast<std::size_t>((pixels + 1) * cpairs));
    for (std::int64_t p = 0; p < pixels; ++p) {
      const std::int8_t* px = x.data() + p * ci;
      std::int32_t* xp = plane.data() + p * cpairs;
      for (std::int64_t cp = 0; cp < cpairs; ++cp) {
        const std::int8_t pair[2] = {
            px[2 * cp], 2 * cp + 1 < ci ? px[2 * cp + 1] : std::int8_t{0}};
        xp[cp] = lane(pair);
      }
    }
    return plane;
  }
};

}  // namespace

PackedWeights pack_weights_avx2(const QOp& op) {
  return pack<PairFormat>(op);
}

void conv2d_avx2(const TensorI8& x, const QOp& op, const PackedWeights& pw,
                 TensorI8& out, int fix_pos_in) {
  conv2d_tiles<PairFormat>(x, op, pw, out, fix_pos_in);
}

void tconv2d_avx2(const TensorI8& x, const QOp& op, const PackedWeights& pw,
                  TensorI8& out, int fix_pos_in, tensor::TensorArena* arena) {
  tconv2d_tiles<PairFormat>(x, op, pw, out, fix_pos_in, arena);
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
