#include "quant/kernels.hpp"

#include <atomic>
#include <cassert>
#include <cstring>
#include <limits>

#include "quant/kernels_internal.hpp"

#if defined(SENECA_KERNELS_AVXVNNI)
#include <cpuid.h>
#endif

namespace seneca::quant::kernels {

namespace {

std::atomic<Backend> g_backend{Backend::kAuto};

/// Worst-case magnitude of one int8 x int8 product (-128 * -128).
constexpr std::int64_t kMaxProduct = 128 * 128;

}  // namespace

bool simd_available() {
#if defined(SENECA_KERNELS_AVX2)
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
#elif defined(SENECA_KERNELS_NEON)
  return true;
#else
  return false;
#endif
}

#if defined(SENECA_KERNELS_AVX2)
bool avxvnni_available() {
#if defined(SENECA_KERNELS_AVXVNNI)
  // CPUID.(EAX=7, ECX=1):EAX[4], read directly: not every compiler's
  // __builtin_cpu_supports knows "avxvnni". AVX2 being usable implies the
  // OS saves the ymm state that VNNI's VEX form uses.
  static const bool ok = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!simd_available() || !__get_cpuid_count(7, 0, &a, &b, &c, &d) ||
        a < 1) {
      return false;
    }
    __get_cpuid_count(7, 1, &a, &b, &c, &d);
    return ((a >> 4) & 1u) != 0;
  }();
  return ok;
#else
  return false;
#endif
}
#endif

Backend active_backend() {
  const Backend b = g_backend.load(std::memory_order_relaxed);
  if (b == Backend::kScalar || !simd_available()) return Backend::kScalar;
  return Backend::kSimd;
}

void set_backend(Backend b) { g_backend.store(b, std::memory_order_relaxed); }

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kAuto: return "auto";
    case Backend::kScalar: return "scalar";
    case Backend::kSimd:
#if defined(SENECA_KERNELS_AVX2)
      return avxvnni_available() ? "avx-vnni" : "avx2";
#elif defined(SENECA_KERNELS_NEON)
      return "neon";
#else
      return "simd-unavailable";
#endif
  }
  return "?";
}

namespace {

std::int64_t max_abs_bias(const QOp& op) {
  std::int64_t m = 0;
  for (const std::int32_t b : op.bias) {
    const std::int64_t a = b < 0 ? -static_cast<std::int64_t>(b)
                                 : static_cast<std::int64_t>(b);
    m = std::max(m, a);
  }
  return m;
}

std::int64_t acc_bound(const QOp& op, std::int64_t ci) {
  return max_abs_bias(op) + op.kernel * op.kernel * ci * kMaxProduct;
}

/// The int32 paths also evaluate the requant in 32 bits: a left shift
/// (shift < 0) grows the accumulator and a right shift adds the rounding
/// bias 2^(shift-1); both need headroom on top of plain accumulation.
bool shift32_safe(const QOp& op, std::int64_t ci, int shift) {
  if (shift > 30 || shift < -20) return false;
  std::int64_t bound = acc_bound(op, ci);
  if (shift < 0) {
    bound <<= -shift;
  } else if (shift > 0) {
    bound += std::int64_t{1} << (shift - 1);
  }
  return bound <= std::numeric_limits<std::int32_t>::max();
}

#if defined(SENECA_KERNELS_AVX2)
/// The x86 operand format this CPU runs: int8 quads on AVX-VNNI, else
/// int16 pairs. A pack is only ever read by the format that built it.
struct X86Format {
  PackedWeights (*pack)(const QOp&);
  void (*conv)(const TensorI8&, const QOp&, const PackedWeights&, TensorI8&,
               int);
  void (*tconv)(const TensorI8&, const QOp&, const PackedWeights&,
                TensorI8&, int, tensor::TensorArena*);
};

const X86Format& x86_format() {
#if defined(SENECA_KERNELS_AVXVNNI)
  static constexpr X86Format kQuads{pack_weights_avxvnni, conv2d_avxvnni,
                                    tconv2d_avxvnni};
  if (avxvnni_available()) return kQuads;
#endif
  static constexpr X86Format kPairs{pack_weights_avx2, conv2d_avx2,
                                    tconv2d_avx2};
  return kPairs;
}
#endif

}  // namespace

bool acc32_safe(const QOp& op, std::int64_t ci) {
  return acc_bound(op, ci) <= std::numeric_limits<std::int32_t>::max();
}

PackedWeights pack_weights([[maybe_unused]] const QOp& op) {
#if defined(SENECA_KERNELS_AVX2)
  if (simd_available()) return x86_format().pack(op);
#endif
  return {};
}

void conv2d(const TensorI8& x, const QOp& op, TensorI8& out, int fix_pos_in,
            [[maybe_unused]] const PackedWeights* packed) {
  const std::int64_t ci = x.shape()[2];
  const int shift = fix_pos_in + op.fix_pos_w - op.fix_pos_out;
  // Wherever the coarse runtime predicate admits the int32 path, the
  // per-weight interval proof (SENECA-Prove) must agree: its bound is tighter
  // than acc_bound by construction, so disagreement means a broken proof.
  assert(!shift32_safe(op, ci, shift) ||
         interval_shift32_safe(conv_acc_interval(op, ci, {-128, 127}), shift));
  if (active_backend() == Backend::kSimd && shift32_safe(op, ci, shift)) {
#if defined(SENECA_KERNELS_AVX2)
    const X86Format& f = x86_format();
    if (packed) return f.conv(x, op, *packed, out, fix_pos_in);
    return f.conv(x, op, f.pack(op), out, fix_pos_in);
#elif defined(SENECA_KERNELS_NEON)
    return conv2d_neon(x, op, out, fix_pos_in);
#endif
  }
  qconv2d_forward(x, op, out, fix_pos_in);
}

void tconv2d(const TensorI8& x, const QOp& op, TensorI8& out, int fix_pos_in,
             [[maybe_unused]] tensor::TensorArena* arena,
             [[maybe_unused]] const PackedWeights* packed) {
  const std::int64_t ci = x.shape()[2];
  const int shift = fix_pos_in + op.fix_pos_w - op.fix_pos_out;
  assert(!shift32_safe(op, ci, shift) ||
         interval_shift32_safe(conv_acc_interval(op, ci, {-128, 127}), shift));
  if (active_backend() == Backend::kSimd && shift32_safe(op, ci, shift)) {
#if defined(SENECA_KERNELS_AVX2)
    const X86Format& f = x86_format();
    if (packed) return f.tconv(x, op, *packed, out, fix_pos_in, arena);
    return f.tconv(x, op, f.pack(op), out, fix_pos_in, arena);
#elif defined(SENECA_KERNELS_NEON)
    return tconv2d_neon(x, op, out, fix_pos_in, arena);
#endif
  }
  qtconv2d_forward(x, op, out, fix_pos_in);
}

void maxpool2d(const TensorI8& x, TensorI8& out) {
  if (active_backend() == Backend::kSimd) {
#if defined(SENECA_KERNELS_AVX2)
    return maxpool2d_avx2(x, out);
#elif defined(SENECA_KERNELS_NEON)
    return maxpool2d_neon(x, out);
#endif
  }
  qmaxpool2d_forward(x, out);
}

void requant_row(const std::int8_t* src, std::int8_t* dst, std::int64_t n,
                 int shift) {
#if defined(SENECA_KERNELS_AVX2)
  // The AVX2 row requant covers |shift| <= 7 plus the shift-8 left edge of
  // its int16 arithmetic; everything else is reference-scalar inside.
  if (active_backend() == Backend::kSimd) {
    return requant_row_avx2(src, dst, n, shift);
  }
#endif
  // The one portable loop, for kScalar and for NEON, which has no row
  // requant of its own.
  if (shift == 0) {
    std::memcpy(dst, src, static_cast<std::size_t>(n));
    return;
  }
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = saturate_i8(rshift_round(src[i], shift));
  }
}

void concat(const TensorI8& a, int fp_a, const TensorI8& b, int fp_b,
            TensorI8& out, int fp_out) {
  if (active_backend() == Backend::kScalar) {
    return qconcat_forward(a, fp_a, b, fp_b, out, fp_out);
  }
  const std::int64_t ca = a.shape()[2];
  const std::int64_t cb = b.shape()[2];
  const std::int64_t rows = a.numel() / ca;
  const int sa = fp_a - fp_out;
  const int sb = fp_b - fp_out;
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int8_t* po = out.data() + r * (ca + cb);
    requant_row(a.data() + r * ca, po, ca, sa);
    requant_row(b.data() + r * cb, po + ca, cb, sb);
  }
}

}  // namespace seneca::quant::kernels
