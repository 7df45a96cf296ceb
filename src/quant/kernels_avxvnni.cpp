// AVX-VNNI INT8 kernels: conv and tconv in the quad format. This
// translation unit is the only one compiled with -mavxvnni (GCC may emit
// VNNI for any int8 dot-product loop it vectorizes), and the dispatcher in
// kernels.cpp only routes here after CPUID reports AVX-VNNI, on CPUs
// without AVX512-VNNI.
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
// because its exactness needs no such argument. The tile walker and the
// pack (QuadPack) are kernels_x86.hpp's, which the pair format
// (kernels_avx2.cpp) and the 512-bit quads (kernels_avx512vnni.cpp) run
// too; the dispatcher prefers the 512-bit quads where CPUID reports
// AVX512-VNNI.

#include "quant/kernels.hpp"
#include "quant/kernels_internal.hpp"

#if defined(SENECA_KERNELS_AVXVNNI)

#include "quant/kernels_x86.hpp"

#include <immintrin.h>

namespace seneca::quant::kernels {

namespace {

/// Offset int8 quads through vpdpbusd on 256-bit vectors: the walker's
/// format contract is in kernels_x86.hpp.
struct QuadFormat : QuadPack, Ymm {
  template <int NB8>
  using Tail = QuadFormat;

  /// The wrapping form, not _mm256_dpbusds_avx_epi32 (see the file comment).
  static Vec mac(Vec acc, Vec w, Vec x) {
    return as_i32x8(
        _mm256_dpbusd_avx_epi32(as_m256i(acc), as_m256i(x), as_m256i(w)));
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
