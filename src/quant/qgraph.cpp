#include "quant/qgraph.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "quant/kernels.hpp"

namespace seneca::quant {

TensorI8 quantize_tensor(const TensorF& x, int fix_pos) {
  TensorI8 q(x.shape());
  const double scale = std::ldexp(1.0, fix_pos);  // 2^fix_pos
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    q[i] = round_saturate_i8(static_cast<double>(x[i]) * scale);
  }
  return q;
}

TensorF dequantize_tensor(const TensorI8& q, int fix_pos) {
  TensorF x(q.shape());
  const float scale = std::ldexp(1.0f, -fix_pos);
  for (std::int64_t i = 0; i < q.numel(); ++i) {
    x[i] = static_cast<float>(q[i]) * scale;
  }
  return x;
}

double quantization_mse(const TensorF& x, int fix_pos) {
  const double scale = std::ldexp(1.0, fix_pos);
  const double inv = 1.0 / scale;
  double mse = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const double q = round_saturate_i8(x[i] * scale);
    const double err = q * inv - x[i];
    mse += err * err;
  }
  return x.numel() ? mse / static_cast<double>(x.numel()) : 0.0;
}

int choose_fix_pos(const TensorF& x) {
  const float m = tensor::max_abs(x);
  if (m <= 0.f) return 7;
  // Largest fp with 127*2^-fp >= m, i.e. fp = floor(log2(127/m)).
  int fp = static_cast<int>(std::floor(std::log2(127.0 / m)));
  // The next position up halves the step but clips the extremes; keep
  // whichever has lower MSE (Vitis AI quantizer's calibration refinement).
  const double mse0 = quantization_mse(x, fp);
  const double mse1 = quantization_mse(x, fp + 1);
  if (mse1 < mse0) ++fp;
  return fp;
}

void qconv2d_forward(const TensorI8& x, const QOp& op, TensorI8& out,
                     int fix_pos_in) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t ci = x.shape()[2];
  const std::int64_t k = op.kernel;
  const std::int64_t co = op.out_shape[2];
  const std::int64_t pad = k / 2;
  const int shift = fix_pos_in + op.fix_pos_w - op.fix_pos_out;
  const std::int8_t* weights = op.weight_view().data();
  std::vector<std::int64_t> acc(static_cast<std::size_t>(co));

  for (std::int64_t oy = 0; oy < h; ++oy) {
    for (std::int64_t ox = 0; ox < w; ++ox) {
      for (std::int64_t o = 0; o < co; ++o) acc[static_cast<std::size_t>(o)] = op.bias[static_cast<std::size_t>(o)];
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int64_t iy = oy + ky - pad;
        if (iy < 0 || iy >= h) continue;
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::int64_t ix = ox + kx - pad;
          if (ix < 0 || ix >= w) continue;
          const std::int8_t* px = x.data() + (iy * w + ix) * ci;
          const std::int8_t* pw = weights + ((ky * k + kx) * ci) * co;
          for (std::int64_t c = 0; c < ci; ++c) {
            const std::int32_t xv = px[c];
            if (xv == 0) continue;
            const std::int8_t* pwc = pw + c * co;
            for (std::int64_t o = 0; o < co; ++o) {
              acc[static_cast<std::size_t>(o)] += xv * pwc[o];
            }
          }
        }
      }
      std::int8_t* po = out.data() + (oy * w + ox) * co;
      for (std::int64_t o = 0; o < co; ++o) {
        std::int64_t v = rshift_round(acc[static_cast<std::size_t>(o)], shift);
        if (op.relu && v < 0) v = 0;
        po[o] = saturate_i8(v);
      }
    }
  }
}

void qtconv2d_forward(const TensorI8& x, const QOp& op, TensorI8& out,
                      int fix_pos_in) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t ci = x.shape()[2];
  const std::int64_t k = op.kernel;
  const std::int64_t co = op.out_shape[2];
  const std::int64_t oh = h * 2, ow = w * 2;
  const int shift = fix_pos_in + op.fix_pos_w - op.fix_pos_out;
  const std::int8_t* weights = op.weight_view().data();

  std::vector<std::int64_t> acc(static_cast<std::size_t>(oh * ow * co));
  for (std::int64_t i = 0; i < oh * ow; ++i) {
    for (std::int64_t o = 0; o < co; ++o) {
      acc[static_cast<std::size_t>(i * co + o)] = op.bias[static_cast<std::size_t>(o)];
    }
  }
  for (std::int64_t iy = 0; iy < h; ++iy) {
    for (std::int64_t ix = 0; ix < w; ++ix) {
      const std::int8_t* px = x.data() + (iy * w + ix) * ci;
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int64_t oy = 2 * iy - 1 + ky;
        if (oy < 0 || oy >= oh) continue;
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::int64_t ox = 2 * ix - 1 + kx;
          if (ox < 0 || ox >= ow) continue;
          std::int64_t* pa = acc.data() + (oy * ow + ox) * co;
          const std::int8_t* pw = weights + ((ky * k + kx) * ci) * co;
          for (std::int64_t c = 0; c < ci; ++c) {
            const std::int32_t xv = px[c];
            if (xv == 0) continue;
            const std::int8_t* pwc = pw + c * co;
            for (std::int64_t o = 0; o < co; ++o) pa[o] += xv * pwc[o];
          }
        }
      }
    }
  }
  for (std::int64_t i = 0; i < oh * ow * co; ++i) {
    std::int64_t v = rshift_round(acc[static_cast<std::size_t>(i)], shift);
    if (op.relu && v < 0) v = 0;
    out[i] = saturate_i8(v);
  }
}

void qmaxpool2d_forward(const TensorI8& x, TensorI8& out) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t c = x.shape()[2];
  const std::int64_t ow = w / 2;
  for (std::int64_t oy = 0; oy < h / 2; ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      std::int8_t* po = out.data() + (oy * ow + ox) * c;
      const std::int8_t* p00 = x.data() + ((2 * oy) * w + 2 * ox) * c;
      const std::int8_t* p01 = p00 + c;
      const std::int8_t* p10 = x.data() + ((2 * oy + 1) * w + 2 * ox) * c;
      const std::int8_t* p11 = p10 + c;
      for (std::int64_t ch = 0; ch < c; ++ch) {
        po[ch] = std::max(std::max(p00[ch], p01[ch]), std::max(p10[ch], p11[ch]));
      }
    }
  }
}

void qconcat_forward(const TensorI8& a, int fp_a, const TensorI8& b, int fp_b,
                     TensorI8& out, int fp_out) {
  const std::int64_t ca = a.shape()[2];
  const std::int64_t cb = b.shape()[2];
  const std::int64_t rows = a.numel() / ca;
  const int sa = fp_a - fp_out;
  const int sb = fp_b - fp_out;
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int8_t* po = out.data() + r * (ca + cb);
    const std::int8_t* pa = a.data() + r * ca;
    const std::int8_t* pb = b.data() + r * cb;
    for (std::int64_t ch = 0; ch < ca; ++ch) {
      po[ch] = saturate_i8(rshift_round(pa[ch], sa));
    }
    for (std::int64_t ch = 0; ch < cb; ++ch) {
      po[ca + ch] = saturate_i8(rshift_round(pb[ch], sb));
    }
  }
}

TensorI8 QGraph::forward(const TensorI8& input,
                         std::vector<TensorI8>* activations,
                         tensor::TensorArena* arena) const {
  std::vector<TensorI8> acts(ops.size());
  std::vector<int> fps(ops.size(), 0);
  fps[static_cast<std::size_t>(input_op)] = input_fix_pos;

  // The input is only materialized into the activation set when the caller
  // asked for activations; the frame path reads it by reference.
  auto in_of = [&](int id) -> const TensorI8& {
    return id == input_op ? input : acts[static_cast<std::size_t>(id)];
  };

  for (std::size_t id = 0; id < ops.size(); ++id) {
    const QOp& op = ops[id];
    if (op.kind == QOpKind::kInput) continue;
    const int in0 = op.inputs[0];
    const int fp0 = fps[static_cast<std::size_t>(in0)];
    TensorI8 out = arena ? arena->acquire(op.out_shape)
                         : TensorI8(op.out_shape);
    switch (op.kind) {
      case QOpKind::kConv2D:
        kernels::conv2d(in_of(in0), op, out, fp0);
        break;
      case QOpKind::kTConv2D:
        kernels::tconv2d(in_of(in0), op, out, fp0, arena);
        break;
      case QOpKind::kMaxPool2D:
        kernels::maxpool2d(in_of(in0), out);
        break;
      case QOpKind::kConcat: {
        const int in1 = op.inputs[1];
        kernels::concat(in_of(in0), fp0, in_of(in1),
                        fps[static_cast<std::size_t>(in1)], out,
                        op.fix_pos_out);
        break;
      }
      default:
        throw std::logic_error("QGraph::forward: bad op");
    }
    acts[id] = std::move(out);
    fps[id] = (op.kind == QOpKind::kMaxPool2D) ? fp0 : op.fix_pos_out;
  }
  TensorI8 result = std::move(acts[static_cast<std::size_t>(output_op)]);
  if (activations) {
    // Keep the capture complete: the output op's slot and the network
    // input both appear in the activation set (one copy each, only here).
    acts[static_cast<std::size_t>(output_op)] = result;
    acts[static_cast<std::size_t>(input_op)] = input;
    *activations = std::move(acts);
  } else if (arena) {
    for (auto& t : acts) arena->release(std::move(t));
  }
  return result;
}

// --- Static range analysis -------------------------------------------------

Interval conv_acc_interval(const std::int8_t* weights, std::int64_t taps,
                           std::int64_t co, const std::int32_t* bias,
                           Interval in) {
  assert(in.lo <= in.hi);
  if (co <= 0) return {0, 0};
  // A tap can be absent (zero padding at borders, tconv phases), so each
  // product's interval includes 0. With lo <= hi, min(w lo, w hi, 0) is
  // w min(lo, 0) for w > 0 and w max(hi, 0) for w < 0, and the maximum
  // mirrors it, so a channel's sums over its taps need only P and N, the
  // sums of its positive and of its negative weights:
  //   lo = bias + min(lo, 0) P + max(hi, 0) N,
  //   hi = bias + max(hi, 0) P + min(lo, 0) N.
  // P and N add up in int32 over chunks of 2^23 taps, within 2^30, then in
  // int64. Taps outer, channels inner, so the [tap][co] weights are read in
  // order and the channel loop vectorizes.
  const auto n = static_cast<std::size_t>(co);
  std::vector<std::int64_t> pos(n), neg(n);
  std::vector<std::int32_t> chunk_pos(n), chunk_neg(n);
  constexpr std::int64_t kChunk = std::int64_t{1} << 23;
  for (std::int64_t t0 = 0; t0 < taps; t0 += kChunk) {
    std::fill(chunk_pos.begin(), chunk_pos.end(), 0);
    std::fill(chunk_neg.begin(), chunk_neg.end(), 0);
    const std::int64_t t1 = std::min(taps, t0 + kChunk);
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int8_t* row = weights + t * co;
      for (std::size_t o = 0; o < n; ++o) {
        const std::int32_t w = row[o];
        chunk_pos[o] += w > 0 ? w : 0;
        chunk_neg[o] += w < 0 ? w : 0;
      }
    }
    for (std::size_t o = 0; o < n; ++o) {
      pos[o] += chunk_pos[o];
      neg[o] += chunk_neg[o];
    }
  }
  const std::int64_t below = std::min<std::int64_t>(in.lo, 0);
  const std::int64_t above = std::max<std::int64_t>(in.hi, 0);
  Interval acc{std::numeric_limits<std::int64_t>::max(),
               std::numeric_limits<std::int64_t>::min()};
  for (std::size_t o = 0; o < n; ++o) {
    acc.lo = std::min(acc.lo, bias[o] + below * pos[o] + above * neg[o]);
    acc.hi = std::max(acc.hi, bias[o] + above * pos[o] + below * neg[o]);
  }
  return acc;
}

Interval conv_acc_interval(const QOp& op, std::int64_t ci, Interval in) {
  const std::int64_t co = op.out_shape[2];
  return conv_acc_interval(op.weight_view().data(),
                           op.kernel * op.kernel * ci, co, op.bias.data(), in);
}

Interval requant_out_interval(Interval acc, int shift, bool relu) {
  std::int64_t lo = rshift_round(acc.lo, shift);
  std::int64_t hi = rshift_round(acc.hi, shift);
  if (relu) {
    lo = std::max<std::int64_t>(lo, 0);
    hi = std::max<std::int64_t>(hi, 0);
  }
  return {saturate_i8(lo), saturate_i8(hi)};
}

bool interval_shift32_safe(Interval acc, int shift) {
  if (shift > 30 || shift < -20) return false;
  std::int64_t lo = acc.lo;
  std::int64_t hi = acc.hi;
  if (shift < 0) {
    lo <<= -shift;
    hi <<= -shift;
  } else if (shift > 0) {
    const std::int64_t round_bias = std::int64_t{1} << (shift - 1);
    lo -= round_bias;
    hi += round_bias;
  }
  return lo >= std::numeric_limits<std::int32_t>::min() &&
         hi <= std::numeric_limits<std::int32_t>::max();
}

void annotate_intervals(QGraph& g) {
  std::vector<Interval> act(g.ops.size());
  std::vector<int> fps(g.ops.size(), 0);
  for (std::size_t id = 0; id < g.ops.size(); ++id) {
    QOp& op = g.ops[id];
    Interval out{-128, 127};
    int fp = op.fix_pos_out;
    switch (op.kind) {
      case QOpKind::kInput:
        fp = g.input_fix_pos;
        break;
      case QOpKind::kConv2D:
      case QOpKind::kTConv2D: {
        const int in0 = op.inputs[0];
        const Shape& in_shape = in0 == g.input_op
                                    ? g.input_shape
                                    : g.ops[static_cast<std::size_t>(in0)].out_shape;
        const Interval acc =
            conv_acc_interval(op, in_shape[2], act[static_cast<std::size_t>(in0)]);
        const int shift =
            fps[static_cast<std::size_t>(in0)] + op.fix_pos_w - op.fix_pos_out;
        out = requant_out_interval(acc, shift, op.relu);
        break;
      }
      case QOpKind::kMaxPool2D:
        out = act[static_cast<std::size_t>(op.inputs[0])];
        fp = fps[static_cast<std::size_t>(op.inputs[0])];
        break;
      case QOpKind::kConcat: {
        bool first = true;
        for (int in : op.inputs) {
          const Interval v = requant_out_interval(
              act[static_cast<std::size_t>(in)],
              fps[static_cast<std::size_t>(in)] - op.fix_pos_out, false);
          if (first || v.lo < out.lo) out.lo = v.lo;
          if (first || v.hi > out.hi) out.hi = v.hi;
          first = false;
        }
        break;
      }
    }
    act[id] = out;
    fps[id] = fp;
    op.act_lo = static_cast<std::int16_t>(out.lo);
    op.act_hi = static_cast<std::int16_t>(out.hi);
  }
}

std::int64_t QGraph::weight_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& op : ops) {
    bytes += op.weights.numel();
    bytes += static_cast<std::int64_t>(op.bias.size()) * 4;
  }
  return bytes;
}

}  // namespace seneca::quant
