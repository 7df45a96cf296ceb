#pragma once
// INT8 quantized inference IR with power-of-two scales (DPU fix-point
// representation): real_value = int8_value * 2^(-fix_pos).
//
// The QGraph executor is the *reference semantics* of the quantized model:
// the DPU simulator (src/dpu) must be bit-exact against it, and the
// quantizer reports accuracy with it. All arithmetic is integer:
//   conv:  acc_i32 = sum(q_x * q_w) + q_bias            (bias at fp_x+fp_w)
//          q_out   = sat8(rshift_round(acc, fp_x+fp_w-fp_out)), ReLU on int
//   pool:  int8 max, fix_pos unchanged
//   concat: inputs requantized to the op's fix_pos

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/arena.hpp"
#include "tensor/tensor.hpp"

namespace seneca::quant {

using tensor::Shape;
using tensor::TensorF;
using tensor::TensorI8;

enum class QOpKind { kInput, kConv2D, kTConv2D, kMaxPool2D, kConcat };

/// Closed integer interval [lo, hi]. The unit of the SENECA-Prove static
/// range analysis (src/dpu/verify): activation and accumulator bounds
/// propagate through the integer arithmetic above by interval arithmetic.
struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

struct QOp {
  QOpKind kind = QOpKind::kInput;
  std::string name;
  std::vector<int> inputs;
  Shape out_shape;
  int fix_pos_out = 0;  // output quantization position

  // Conv payload.
  TensorI8 weights;               // [K][K][Cin][Cout]
  std::vector<std::int32_t> bias; // [Cout], at scale 2^-(fp_in+fp_w)
  int fix_pos_w = 0;
  std::int64_t kernel = 0;
  bool relu = false;

  // Statically-proven output activation interval (annotate_intervals):
  // every int8 value this op can emit lies in [act_lo, act_hi]. The default
  // is the full int8 domain, which is always sound.
  std::int16_t act_lo = -128;
  std::int16_t act_hi = 127;
};

struct QGraph {
  std::vector<QOp> ops;
  int input_op = -1;
  int output_op = -1;
  int input_fix_pos = 0;  // the "scale factor stored into the xmodel" (§III-E)
  Shape input_shape;

  /// Integer forward through the dispatched kernels (quant/kernels.hpp);
  /// bit-exact with the scalar reference kernels below by construction.
  /// Optionally captures all op outputs (the returned output and the input
  /// are then the only tensors copied). With an arena, intermediate
  /// activations recycle its slabs from the second frame on. A forward
  /// still allocates its per-op activation and fix-pos vectors, and each
  /// x86 conv/tconv call, given no pack, its packed weights and its
  /// input plane. The arena is single-threaded state — one per
  /// executor thread, never shared across concurrent forwards.
  TensorI8 forward(const TensorI8& input,
                   std::vector<TensorI8>* activations = nullptr,
                   tensor::TensorArena* arena = nullptr) const;

  /// Total INT8 weight bytes (memory-footprint reporting).
  std::int64_t weight_bytes() const;
};

// --- Fix-point helpers (shared with the DPU simulator). -------------------

inline std::int8_t saturate_i8(std::int64_t v) {
  if (v > 127) return 127;
  if (v < -128) return -128;
  return static_cast<std::int8_t>(v);
}

/// sat8(round-half-away-from-zero(v)), equal to saturate_i8(llround(v))
/// wherever llround is defined, with no libm call: clamp to
/// [-128.5, 127.5], truncate toward zero, then step one away from zero when
/// the dropped fraction is at least a half. The fraction is exact (v and its
/// truncation t share a sign and |t| <= |v| < |t| + 1, so v - t needs no
/// rounding); NaN clamps to -128. The tie rule is the runtime's
/// rshift_round's, so calibration and execution agree on every
/// representable tie.
inline std::int8_t round_saturate_i8(double v) {
  v = v > -128.5 ? v : -128.5;
  v = v < 127.5 ? v : 127.5;
  const auto t = static_cast<std::int32_t>(v);
  const double frac = v - static_cast<double>(t);
  return saturate_i8(t + (frac >= 0.5) - (frac <= -0.5));
}

/// Round-half-away-from-zero right shift (shift may be <= 0: left shift).
inline std::int64_t rshift_round(std::int64_t v, int shift) {
  if (shift <= 0) return v << (-shift);
  const std::int64_t bias = std::int64_t{1} << (shift - 1);
  if (v >= 0) return (v + bias) >> shift;
  return -((-v + bias) >> shift);
}

/// Quantize a float tensor at a given fix position.
TensorI8 quantize_tensor(const TensorF& x, int fix_pos);
/// Dequantize back to float.
TensorF dequantize_tensor(const TensorI8& q, int fix_pos);

/// Quantization MSE of x at fix_pos (used to pick the best position).
double quantization_mse(const TensorF& x, int fix_pos);

/// Best power-of-two fix position for max-abs value m, refined by MSE
/// against the candidate one position up (Vitis-AI-style "diffs" method).
int choose_fix_pos(const TensorF& x);

// --- Static range analysis (SENECA-Prove; shared with src/dpu/verify). ----
//
// All propagation is *sound*: border pixels and tconv output phases see only
// a subset of the kernel taps, so every per-tap product interval includes 0
// and the bounds hold for any pixel position and any input inside the input
// interval.

/// Worst-channel accumulator interval of a conv/tconv: bias plus the sum of
/// every kernel tap's product interval. `weights` is the [K][K][Cin][Cout]
/// layout flattened, `taps` = k*k*ci, `in` the input activation interval.
Interval conv_acc_interval(const std::int8_t* weights, std::int64_t taps,
                           std::int64_t co, const std::int32_t* bias,
                           Interval in);
/// Same over an op's own payload (`ci` from the input tensor).
Interval conv_acc_interval(const QOp& op, std::int64_t ci, Interval in);

/// Output interval after requant: sat8(rshift_round(acc, shift)) with an
/// optional ReLU. rshift_round and sat8 are monotone, so evaluating the
/// endpoints is exact.
Interval requant_out_interval(Interval acc, int shift, bool relu);

/// True when evaluating the requant of any accumulator inside `acc` in
/// 32-bit arithmetic cannot overflow: the interval fits int32 even after
/// the left-shift growth (shift < 0) or the rounding-bias addition
/// (shift > 0) of rshift_round. Tight analog of kernels::acc32_safe +
/// the dispatcher's shift headroom check.
bool interval_shift32_safe(Interval acc, int shift);

/// Propagates activation intervals through the graph in index order and
/// stores them on each op (act_lo/act_hi). Called by the quantizer; safe to
/// re-run after any payload change.
void annotate_intervals(QGraph& g);

// Integer kernels (also used by the DPU functional model).
void qconv2d_forward(const TensorI8& x, const QOp& op, TensorI8& out,
                     int fix_pos_in);
void qtconv2d_forward(const TensorI8& x, const QOp& op, TensorI8& out,
                      int fix_pos_in);
void qmaxpool2d_forward(const TensorI8& x, TensorI8& out);
void qconcat_forward(const TensorI8& a, int fp_a, const TensorI8& b, int fp_b,
                     TensorI8& out, int fp_out);

}  // namespace seneca::quant
