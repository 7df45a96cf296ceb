// AVX512-VNNI INT8 kernels: conv and tconv in the quad format on 512-bit
// vectors. This translation unit is the only one compiled with -mavx512f
// -mavx512bw -mavx512vl -mavx512vnni, and the dispatcher in kernels.cpp
// only routes here after CPUID reports AVX512F/BW/VL and AVX512-VNNI and
// XGETBV reports the opmask and zmm state enabled. Cascade Lake and Ice
// Lake-class CPUs have AVX512-VNNI but not AVX-VNNI, so nothing here comes
// from kernels_avxvnni.cpp.
//
// The pack is the 256-bit quads' (QuadPack in kernels_x86.hpp): for each
// tap and 16-wide output-channel block, one lane group is 16 int32 lanes in
// channel order on a 64-byte boundary, which is exactly one zmm. So one
// _mm512_dpbusd_epi32 runs a whole block lane group, 64 MACs, and the
// +128 input offset, the per-tap weight sums that seed the accumulators
// and the headroom argument (kernels_avxvnni.cpp's file comment, DESIGN.md
// §8) carry over unchanged. A 16-lane vector holds a whole block, so the
// walker runs 4 pixels x 2 blocks, or 8 pixels x 1 block where co has one
// block. The channels past the last block run as one 16-lane vector stored
// through an opmask where they fill two 8-lane groups, and on 256-bit
// vectors where they fill one: a 512-bit vector would run half empty there,
// and 2M's co = 6 tconv read 0.59x the 256-bit quads that way.
//
// GCC 12's unmasked forms of abs, srl, sll, max and the saturating
// down-convert pass an undefined vector as their merge source, which
// -Wmaybe-uninitialized reports; the requant uses the maskz forms with
// every lane set instead, which compile to the same instructions.

#include "quant/kernels.hpp"
#include "quant/kernels_internal.hpp"

#if defined(SENECA_KERNELS_AVX512VNNI)

#include "quant/kernels_x86.hpp"

#include <immintrin.h>

#include <type_traits>

namespace seneca::quant::kernels {

namespace {

constexpr __mmask16 kAll = 0xFFFF;

/// Requants 16 in-order int32 accumulators: round-half-away-from-zero
/// shift, optional ReLU, saturate to 16 int8 bytes in channel order.
inline __m128i requant_zmm(__m512i v, int shift, bool relu) {
  const __m512i zero = _mm512_setzero_si512();
  if (shift > 0) {
    const __m512i rbias = _mm512_set1_epi32(std::int32_t{1} << (shift - 1));
    const __m128i cnt = _mm_cvtsi32_si128(shift);
    const __m512i a = _mm512_maskz_srl_epi32(
        kAll, _mm512_add_epi32(_mm512_maskz_abs_epi32(kAll, v), rbias), cnt);
    // Restore the sign; a zero accumulator rounds to zero either way.
    v = _mm512_mask_sub_epi32(a, _mm512_cmplt_epi32_mask(v, zero), zero, a);
  } else if (shift < 0) {
    v = _mm512_maskz_sll_epi32(kAll, v, _mm_cvtsi32_si128(-shift));
  }
  if (relu) v = _mm512_maskz_max_epi32(kAll, v, zero);
  return _mm512_maskz_cvtsepi32_epi8(kAll, v);
}

/// The vector side of the 512-bit quads: 16 int32 lanes, so a 16-wide
/// block is one vector, and a tail vector's lanes are an opmask. Vec is a
/// vector of 16 int32 rather than __m512i (8 int64), the type vpdpbusd's
/// builtin takes and returns: with __m512i accumulators, GCC 12 copied each
/// accumulator into a scratch register and back around every vpdpbusd.
struct Zmm {
  using Vec = std::int32_t __attribute__((vector_size(64)));
  static constexpr int kLanes = 16;

  using Mask = __mmask16;
  static Mask mask(std::int64_t n) {
    return static_cast<Mask>((std::uint32_t{1} << n) - 1);
  }

  static Vec load(const std::int32_t* p) {
    return reinterpret_cast<Vec>(_mm512_loadu_si512(p));
  }
  static void store(std::int32_t* p, Vec v) {
    _mm512_storeu_si512(p, reinterpret_cast<__m512i>(v));
  }
  static Vec zero() { return Vec{}; }
  static Vec broadcast(std::int32_t x) { return x + Vec{}; }
  static Vec add(Vec a, Vec b) { return a + b; }
  static Vec sub(Vec a, Vec b) { return a - b; }

  /// Reads and writes only the lanes m names, so the accumulator plane
  /// needs no slack.
  static void add_masked(std::int32_t* p, Vec v, Mask m) {
    _mm512_mask_storeu_epi32(
        p, m,
        _mm512_add_epi32(_mm512_maskz_loadu_epi32(m, p),
                         reinterpret_cast<__m512i>(v)));
  }
  static void requant16(Vec v, int shift, bool relu, std::int8_t* dst) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                     requant_zmm(reinterpret_cast<__m512i>(v), shift, relu));
  }
  static void requant_n(Vec v, int shift, bool relu, std::int8_t* dst,
                        Mask m) {
    _mm_mask_storeu_epi8(
        dst, m, requant_zmm(reinterpret_cast<__m512i>(v), shift, relu));
  }
};

/// The same quads on 256-bit vectors (the EVEX form of vpdpbusd), for a
/// tail of 8 lanes, which would leave half of each 512-bit vector empty.
/// Its tail lanes are an opmask too.
struct HalfQuads : QuadPack, Ymm {
  template <int NB8>
  using Tail = HalfQuads;

  using Mask = __mmask8;
  static Mask mask(std::int64_t n) {
    return static_cast<Mask>((std::uint32_t{1} << n) - 1);
  }

  static Vec mac(Vec acc, Vec w, Vec x) {
    return as_i32x8(
        _mm256_dpbusd_epi32(as_m256i(acc), as_m256i(x), as_m256i(w)));
  }
  static void add_masked(std::int32_t* p, Vec v, Mask m) {
    _mm256_mask_storeu_epi32(
        p, m, _mm256_add_epi32(_mm256_maskz_loadu_epi32(m, p), as_m256i(v)));
  }
  static void requant_n(Vec v, int shift, bool relu, std::int8_t* dst,
                        Mask m) {
    _mm256_mask_cvtsepi32_storeu_epi8(dst, m,
                                      requant8(as_m256i(v), shift, relu));
  }
};

/// Offset int8 quads through vpdpbusd on 512-bit vectors: the walker's
/// format contract is in kernels_x86.hpp.
struct QuadFormat : QuadPack, Zmm {
  template <int NB8>
  using Tail = std::conditional_t<NB8 == 1, HalfQuads, QuadFormat>;

  /// The wrapping form, as the 256-bit quads use.
  static Vec mac(Vec acc, Vec w, Vec x) {
    return reinterpret_cast<Vec>(_mm512_dpbusd_epi32(
        reinterpret_cast<__m512i>(acc), reinterpret_cast<__m512i>(x),
        reinterpret_cast<__m512i>(w)));
  }
};

}  // namespace

PackedWeights pack_weights_avx512vnni(const QOp& op) {
  return pack<QuadFormat>(op);
}

void conv2d_avx512vnni(const TensorI8& x, const QOp& op,
                       const PackedWeights& pw, TensorI8& out,
                       int fix_pos_in) {
  conv2d_tiles<QuadFormat>(x, op, pw, out, fix_pos_in);
}

void tconv2d_avx512vnni(const TensorI8& x, const QOp& op,
                        const PackedWeights& pw, TensorI8& out,
                        int fix_pos_in, tensor::TensorArena* arena) {
  tconv2d_tiles<QuadFormat>(x, op, pw, out, fix_pos_in, arena);
}

}  // namespace seneca::quant::kernels

#endif  // SENECA_KERNELS_AVX512VNNI
