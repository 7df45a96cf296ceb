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
//  - kSimd:    AVX2 (x86-64, -mavx2, cpuid-checked at runtime) or NEON
//              (aarch64) intrinsics. The innermost loop is a widening
//              int8 x int8 -> int32 multiply-accumulate over contiguous
//              output channels ([K][K][Cin][Cout] weight layout).
// A call that does not run SIMD runs the reference; where no SIMD backend
// is built, that is every call.
//
// int32 accumulation is only used when it provably cannot overflow
// (|bias| + k*k*ci*128*128 within int32, scaled through a negative requant
// shift); otherwise the dispatcher falls back to the int64 scalar
// reference, so bit-exactness holds unconditionally.

#include <cstdint>

#include "quant/qgraph.hpp"
#include "tensor/arena.hpp"

namespace seneca::quant::kernels {

enum class Backend {
  kAuto,    // best available: SIMD if compiled in and CPU-supported
  kScalar,  // int64 reference kernels in qgraph.cpp
  kSimd,    // AVX2 / NEON (resolves to kScalar when unavailable)
};

/// True when a SIMD backend was compiled in AND the CPU supports it.
bool simd_available();

/// Resolves the active backend (kAuto/kSimd resolve to what will run).
Backend active_backend();

/// Global backend override — benches/tests only; reads are atomic, so
/// flipping it while executors run in other threads is safe but applies
/// per kernel call.
void set_backend(Backend b);

const char* backend_name(Backend b);

// --- Dispatch entry points (signatures mirror the scalar reference). -----

void conv2d(const TensorI8& x, const QOp& op, TensorI8& out, int fix_pos_in);
/// `arena` (optional) provides the oh*ow*co int32 accumulator plane.
void tconv2d(const TensorI8& x, const QOp& op, TensorI8& out, int fix_pos_in,
             tensor::TensorArena* arena = nullptr);
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
