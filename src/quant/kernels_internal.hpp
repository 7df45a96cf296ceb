#pragma once
// Shared pieces of the SIMD INT8 kernel backends (x86 / NEON) and their
// entry points, which the dispatcher in kernels.cpp calls (the kernel tests
// also call the x86 format this CPU is not dispatched to). Everything
// here assumes the dispatcher already proved int32 accumulation safe
// (kernels::acc32_safe + the shift headroom check in kernels.cpp).

#include <cstring>
#include <vector>

#include "quant/qgraph.hpp"
#include "tensor/arena.hpp"

namespace seneca::quant::kernels::detail {

/// int32 flavour of rshift_round; caller guarantees headroom for the
/// rounding bias (shift > 0) and the left shift (shift <= 0).
inline std::int32_t rshift_round32(std::int32_t v, int shift) {
  if (shift <= 0) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(v)
                                     << (-shift));
  }
  const std::int32_t bias = std::int32_t{1} << (shift - 1);
  if (v >= 0) return (v + bias) >> shift;
  return -((-v + bias) >> shift);
}

/// Walks the transposed conv as the reference does — scatter from each
/// input pixel through every in-range tap — handing the accumulator row,
/// input-pixel row, and tap weight row to `body(pa, px, pw, ci, co)`.
/// NEON's tconv; the x86 tconv walks tiles of input pixels instead.
template <typename Body>
void tconv_scatter(const TensorI8& x, const QOp& op, std::int32_t* acc,
                   Body&& body) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t ci = x.shape()[2];
  const std::int64_t k = op.kernel;
  const std::int64_t co = op.out_shape[2];
  const std::int64_t oh = h * 2, ow = w * 2;
  const std::int8_t* weights = op.weight_view().data();

  for (std::int64_t iy = 0; iy < h; ++iy) {
    for (std::int64_t ix = 0; ix < w; ++ix) {
      const std::int8_t* px = x.data() + (iy * w + ix) * ci;
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int64_t oy = 2 * iy - 1 + ky;
        if (oy < 0 || oy >= oh) continue;
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::int64_t ox = 2 * ix - 1 + kx;
          if (ox < 0 || ox >= ow) continue;
          std::int32_t* pa = acc + (oy * ow + ox) * co;
          const std::int8_t* pw = weights + ((ky * k + kx) * ci) * co;
          body(pa, px, pw, ci, co);
        }
      }
    }
  }
}

/// Seeds every output pixel's accumulator row with the bias vector.
inline void tconv_acc_init(const QOp& op, std::int32_t* acc) {
  const std::int64_t co = op.out_shape[2];
  const std::int64_t pixels = op.out_shape[0] * op.out_shape[1];
  for (std::int64_t i = 0; i < pixels; ++i) {
    std::memcpy(acc + i * co, op.bias.data(),
                static_cast<std::size_t>(co) * sizeof(std::int32_t));
  }
}

/// Accumulator plane from the arena when present, else call-local. Eight
/// int32 of slack past the end keep full-width vector loads at the plane
/// tail in bounds (the 256-bit x86 small-co path reads 8 lanes and
/// mask-stores the valid ones; the 512-bit path masks its loads too).
inline std::int32_t* tconv_scratch(const QOp& op, tensor::TensorArena* arena,
                                   std::vector<std::int32_t>& local) {
  const std::int64_t n = op.out_shape.numel() + 8;
  if (arena) return arena->acc32(n);
  local.resize(static_cast<std::size_t>(n));
  return local.data();
}

}  // namespace seneca::quant::kernels::detail

namespace seneca::quant::kernels {

#if defined(SENECA_KERNELS_AVX2)
/// Whether this CPU can run the 512-bit quads: built in, CPUID reports
/// AVX512F/BW/VL and AVX512-VNNI, and XGETBV the opmask and zmm state
/// enabled. The dispatcher prefers them to every other x86 path.
bool avx512vnni_available();
/// Whether this CPU can run the 256-bit quads: built in, and CPUID reports
/// AVX-VNNI. The dispatcher takes them where the 512-bit quads cannot run,
/// and the pair format where neither can.
bool avxvnni_available();

// The pair format (kernels_avx2.cpp): int16 pairs through vpmaddwd.
PackedWeights pack_weights_avx2(const QOp& op);
void conv2d_avx2(const TensorI8& x, const QOp& op, const PackedWeights& pw,
                 TensorI8& out, int fix_pos_in);
void tconv2d_avx2(const TensorI8& x, const QOp& op, const PackedWeights& pw,
                  TensorI8& out, int fix_pos_in, tensor::TensorArena* arena);
void maxpool2d_avx2(const TensorI8& x, TensorI8& out);
void requant_row_avx2(const std::int8_t* src, std::int8_t* dst,
                      std::int64_t n, int shift);
#endif
#if defined(SENECA_KERNELS_AVX512VNNI)
// The quad format on 512-bit vectors (kernels_avx512vnni.cpp). Its pack is
// byte-identical to pack_weights_avxvnni's. Call only where
// avx512vnni_available().
PackedWeights pack_weights_avx512vnni(const QOp& op);
void conv2d_avx512vnni(const TensorI8& x, const QOp& op,
                       const PackedWeights& pw, TensorI8& out,
                       int fix_pos_in);
void tconv2d_avx512vnni(const TensorI8& x, const QOp& op,
                        const PackedWeights& pw, TensorI8& out,
                        int fix_pos_in, tensor::TensorArena* arena);
#endif
#if defined(SENECA_KERNELS_AVXVNNI)
// The quad format on 256-bit vectors (kernels_avxvnni.cpp): offset int8
// quads through vpdpbusd. Call only where avxvnni_available().
PackedWeights pack_weights_avxvnni(const QOp& op);
void conv2d_avxvnni(const TensorI8& x, const QOp& op, const PackedWeights& pw,
                    TensorI8& out, int fix_pos_in);
void tconv2d_avxvnni(const TensorI8& x, const QOp& op,
                     const PackedWeights& pw, TensorI8& out, int fix_pos_in,
                     tensor::TensorArena* arena);
#endif
#if defined(SENECA_KERNELS_NEON)
void conv2d_neon(const TensorI8& x, const QOp& op, TensorI8& out,
                 int fix_pos_in);
void tconv2d_neon(const TensorI8& x, const QOp& op, TensorI8& out,
                  int fix_pos_in, tensor::TensorArena* arena);
void maxpool2d_neon(const TensorI8& x, TensorI8& out);
#endif

}  // namespace seneca::quant::kernels
