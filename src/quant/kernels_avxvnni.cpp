// AVX-VNNI INT8 kernels: conv and tconv in the quad format. This
// translation unit is the only one compiled with -mavxvnni (GCC may emit
// VNNI for any int8 dot-product loop it vectorizes), and the dispatcher in
// kernels.cpp only routes here after CPUID reports AVX-VNNI.
//
// Each operand lane holds the int8 weights of four input channels, and one
// _mm256_dpbusd_avx_epi32 multiplies them by four unsigned input bytes and
// adds the sum into the int32 accumulator: 32 MACs per instruction, where
// the pair format spends two instructions on 16. vpdpbusd multiplies u8 by
// s8, and the input is signed, so each call offsets its input by +128
// (x ^ 0x80). The identity sum(w x) = sum(w (x + 128)) - 128 sum(w) holds
// exactly in int32 arithmetic that wraps, and pack<QuadFormat> keeps
// 128 sum(w) per tap, so each accumulator starts at its bias minus the
// sums of the taps it reads. The dispatcher's headroom proof bounds the
// final sum, so the result equals the reference's. The u8 part alone,
// sum(w (x + 128)), can pass int32 (-3.2e9 at ci = 10922, k = 3), but with
// the seed applied first a running sum is the bias, plus the products done
// so far, minus 128 times the weights still to come: every term is within
// 2^14, so the sum stays inside the same headroom bound, and the
// saturating vpdpbusds would compute the same. The plain form is used
// because its exactness needs no such argument. The tile walker is
// kernels_x86.hpp, which the pair format (kernels_avx2.cpp) runs too.

#include "quant/kernels.hpp"
#include "quant/kernels_internal.hpp"

#if defined(SENECA_KERNELS_AVXVNNI)

#include "quant/kernels_x86.hpp"

#include <immintrin.h>

#include <cstring>
#include <vector>

namespace seneca::quant::kernels {

namespace {

/// Offset int8 quads through vpdpbusd: the walker's format contract is in
/// kernels_x86.hpp.
struct QuadFormat {
  static constexpr int kGroup = 4;
  static constexpr bool kOffset = true;

  /// (v0, v1, v2, v3) as bytes, v0 lowest: the order vpdpbusd pairs them.
  static std::int32_t lane(const std::int8_t (&v)[4]) {
    std::int32_t q;
    std::memcpy(&q, v, sizeof q);
    return q;
  }

  /// The wrapping form, not _mm256_dpbusds_avx_epi32 (see the file comment).
  static __m256i mac(__m256i acc, __m256i w, __m256i x) {
    return _mm256_dpbusd_avx_epi32(acc, x, w);
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

}  // namespace

PackedWeights pack_weights_avxvnni(const QOp& op) {
  return pack<QuadFormat>(op);
}

void conv2d_avxvnni(const TensorI8& x, const QOp& op, const PackedWeights& pw,
                    TensorI8& out, int fix_pos_in) {
  conv2d_tiles<QuadFormat>(x, op, pw, out, fix_pos_in);
}

void tconv2d_avxvnni(const TensorI8& x, const QOp& op,
                     const PackedWeights& pw, TensorI8& out, int fix_pos_in,
                     tensor::TensorArena* arena) {
  tconv2d_tiles<QuadFormat>(x, op, pw, out, fix_pos_in, arena);
}

}  // namespace seneca::quant::kernels

#endif  // SENECA_KERNELS_AVXVNNI
