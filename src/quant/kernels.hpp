#pragma once
// SENECA-Kernels: the vectorized INT8 hot path of the functional DPU.
//
// The scalar kernels in qgraph.cpp (`q*_forward`) remain the *reference
// semantics*; everything here is an implementation of the same arithmetic
// that must stay bit-exact against them (tests/quant_kernels_test.cpp
// sweeps this property, bench/int8_kernels --strict gates it in CI).
//
// Two backends, selected once at build time and dispatched per call:
//  - kScalar:  the int64-accumulator reference in qgraph.cpp.
//  - kSimd:    x86-64 (cpuid-checked at runtime) or NEON (aarch64)
//              intrinsics over contiguous output channels ([K][K][Cin][Cout]
//              weight layout). On x86 the conv and tconv run one of three
//              paths, the widest the CPU supports: int8 quads through
//              vpdpbusd (4 input channels per lane) on 512-bit vectors
//              (AVX512-VNNI) or on 256-bit vectors (AVX-VNNI), which read
//              the same pack, else int16 pairs through AVX2's vpmaddwd (2
//              per lane).
// A call that does not run SIMD runs the reference; where no SIMD backend
// is built, that is every call.
//
// The x86 conv and tconv read their weights as packed operands
// (PackedWeights). An owner of weights that never change packs them once
// with pack_weights and passes the pack on every call, as DpuCoreSim does
// at load; a call without a pack packs for itself.
//
// int32 accumulation is only used when it provably cannot overflow
// (|bias| + k*k*ci*128*128 within int32, scaled through a negative requant
// shift); otherwise the dispatcher falls back to the int64 scalar
// reference, so bit-exactness holds unconditionally.

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "quant/qgraph.hpp"
#include "tensor/arena.hpp"

namespace seneca::quant::kernels {

enum class Backend {
  kAuto,    // best available: SIMD if compiled in and CPU-supported
  kScalar,  // int64 reference kernels in qgraph.cpp
  kSimd,    // x86 / NEON (resolves to kScalar when unavailable)
};

/// True when a SIMD backend was compiled in AND the CPU supports it.
bool simd_available();

/// Resolves the active backend (kAuto/kSimd resolve to what will run).
Backend active_backend();

/// Global backend override — benches/tests only; reads are atomic, so
/// flipping it while executors run in other threads is safe but applies
/// per kernel call.
void set_backend(Backend b);

/// kSimd names the path that runs: "avx512-vnni", "avx-vnni", "avx2" or
/// "neon".
const char* backend_name(Backend b);

/// Allocates on a 64-byte boundary, so no 32- or 64-byte operand vector of
/// a pack straddles two cache lines.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};
  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), kAlign);
  }
  template <typename U>
  bool operator==(const CacheLineAllocator<U>& /*other*/) const noexcept {
    return true;
  }
};

/// A conv/tconv layer's weights as the x86 kernel's operands, in the format
/// this CPU runs. Operands are int32 lanes, one per output channel, in
/// channel order, 16 per block and tap and lane group; a lane holds the
/// weights of 4 consecutive input channels as int8 (quads, read as 8-lane
/// vectors with AVX-VNNI and as 16-lane ones with AVX512-VNNI) or of 2 as
/// int16 (pairs, AVX2). `operands` holds the 16-wide output-channel blocks,
/// then the channels past the last block. The quad format also keeps, per tap, 128 times each
/// output channel's weight sum, then the whole-kernel total (`sums`): what
/// the +128 offset that makes the input unsigned adds to an accumulator.
/// Empty on NEON, whose loop reads the int8 weights, and wherever x86 SIMD
/// does not run.
struct PackedWeights {
  std::vector<std::int32_t, CacheLineAllocator<std::int32_t>> operands;
  std::vector<std::int32_t> sums;
};

/// Packs `op`'s [K][K][Cin][Cout] weights in the format this CPU runs,
/// wherever x86 SIMD can run (built in and CPU-supported), whatever the
/// active backend: set_backend may change after packing. Elsewhere the pack
/// is empty.
PackedWeights pack_weights(const QOp& op);

// --- Dispatch entry points (signatures mirror the scalar reference). -----
// `packed` is pack_weights(op), built by the caller; null packs per call.

void conv2d(const TensorI8& x, const QOp& op, TensorI8& out, int fix_pos_in,
            const PackedWeights* packed = nullptr);
/// `arena` (optional) provides the oh*ow*co int32 accumulator plane.
void tconv2d(const TensorI8& x, const QOp& op, TensorI8& out, int fix_pos_in,
             tensor::TensorArena* arena = nullptr,
             const PackedWeights* packed = nullptr);
void maxpool2d(const TensorI8& x, TensorI8& out);
void concat(const TensorI8& a, int fp_a, const TensorI8& b, int fp_b,
            TensorI8& out, int fp_out);

/// Requantizing row copy: dst[i] = sat8(rshift_round(src[i], shift)).
/// shift == 0 degenerates to memcpy; also used by the DPU simulator's
/// materialized-concat assembly.
void requant_row(const std::int8_t* src, std::int8_t* dst, std::int64_t n,
                 int shift);

/// True when `op` (with `ci` input channels) can use int32 accumulators
/// without overflow through requant; false forces the scalar reference.
bool acc32_safe(const QOp& op, std::int64_t ci);

}  // namespace seneca::quant::kernels
