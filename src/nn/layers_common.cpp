#include "nn/layers_common.hpp"

#include <cmath>
#include <stdexcept>

namespace seneca::nn {

namespace {
void require_single_input(const std::vector<Shape>& in, const char* who) {
  if (in.size() != 1) {
    throw std::invalid_argument(std::string(who) + ": expects one input");
  }
}

std::int64_t last_dim(const Shape& s) { return s[s.rank() - 1]; }
}  // namespace

// ---------------------------------------------------------------- ReLU ----

Shape ReLU::output_shape(const std::vector<Shape>& in) const {
  require_single_input(in, "relu");
  return in[0];
}

void ReLU::forward(const std::vector<const TensorF*>& in, TensorF& out, bool) {
  const TensorF& x = *in[0];
  for (std::int64_t i = 0; i < x.numel(); ++i) out[i] = x[i] > 0.f ? x[i] : 0.f;
}

void ReLU::backward(const std::vector<const TensorF*>& in, const TensorF&,
                    const TensorF& grad_out,
                    const std::vector<TensorF*>& grad_in) {
  const TensorF& x = *in[0];
  TensorF& gx = *grad_in[0];
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (x[i] > 0.f) gx[i] += grad_out[i];
  }
}

// ----------------------------------------------------------- BatchNorm ----

BatchNorm::BatchNorm(std::int64_t channels, float momentum, float epsilon)
    : channels_(channels),
      momentum_(momentum),
      epsilon_(epsilon),
      gamma_("gamma", Shape{channels}),
      beta_("beta", Shape{channels}),
      running_mean_(Shape{channels}, 0.f),
      running_var_(Shape{channels}, 1.f) {
  gamma_.value.fill(1.f);
}

Shape BatchNorm::output_shape(const std::vector<Shape>& in) const {
  require_single_input(in, "batchnorm");
  if (last_dim(in[0]) != channels_) {
    throw std::invalid_argument("batchnorm: channel mismatch");
  }
  return in[0];
}

void BatchNorm::forward(const std::vector<const TensorF*>& in, TensorF& out,
                        bool training) {
  const TensorF& x = *in[0];
  const std::int64_t c = channels_;
  const std::int64_t rows = x.numel() / c;

  const TensorF* mean = &running_mean_;
  const TensorF* var = &running_var_;
  if (training) {
    if (batch_mean_.shape() != Shape{c}) {
      batch_mean_ = TensorF(Shape{c});
      batch_var_ = TensorF(Shape{c});
    }
    batch_mean_.fill(0.f);
    batch_var_.fill(0.f);
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* px = x.data() + r * c;
      for (std::int64_t ch = 0; ch < c; ++ch) batch_mean_[ch] += px[ch];
    }
    for (std::int64_t ch = 0; ch < c; ++ch) batch_mean_[ch] /= static_cast<float>(rows);
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* px = x.data() + r * c;
      for (std::int64_t ch = 0; ch < c; ++ch) {
        const float d = px[ch] - batch_mean_[ch];
        batch_var_[ch] += d * d;
      }
    }
    for (std::int64_t ch = 0; ch < c; ++ch) batch_var_[ch] /= static_cast<float>(rows);
    for (std::int64_t ch = 0; ch < c; ++ch) {
      running_mean_[ch] = momentum_ * running_mean_[ch] + (1.f - momentum_) * batch_mean_[ch];
      running_var_[ch] = momentum_ * running_var_[ch] + (1.f - momentum_) * batch_var_[ch];
    }
    mean = &batch_mean_;
    var = &batch_var_;
  }

  for (std::int64_t r = 0; r < rows; ++r) {
    const float* px = x.data() + r * c;
    float* po = out.data() + r * c;
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float inv = 1.f / std::sqrt((*var)[ch] + epsilon_);
      po[ch] = gamma_.value[ch] * (px[ch] - (*mean)[ch]) * inv + beta_.value[ch];
    }
  }
}

void BatchNorm::backward(const std::vector<const TensorF*>& in, const TensorF&,
                         const TensorF& grad_out,
                         const std::vector<TensorF*>& grad_in) {
  // Standard batch-norm backward using the cached batch statistics.
  const TensorF& x = *in[0];
  TensorF& gx = *grad_in[0];
  const std::int64_t c = channels_;
  const std::int64_t rows = x.numel() / c;
  const float n = static_cast<float>(rows);

  std::vector<float> sum_dy(static_cast<std::size_t>(c), 0.f);
  std::vector<float> sum_dy_xhat(static_cast<std::size_t>(c), 0.f);
  std::vector<float> inv_std(static_cast<std::size_t>(c));
  for (std::int64_t ch = 0; ch < c; ++ch) {
    inv_std[static_cast<std::size_t>(ch)] = 1.f / std::sqrt(batch_var_[ch] + epsilon_);
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* px = x.data() + r * c;
    const float* pg = grad_out.data() + r * c;
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float xhat = (px[ch] - batch_mean_[ch]) * inv_std[static_cast<std::size_t>(ch)];
      sum_dy[static_cast<std::size_t>(ch)] += pg[ch];
      sum_dy_xhat[static_cast<std::size_t>(ch)] += pg[ch] * xhat;
    }
  }
  TensorF& ggamma = gamma_.grad();
  TensorF& gbeta = beta_.grad();
  for (std::int64_t ch = 0; ch < c; ++ch) {
    ggamma[ch] += sum_dy_xhat[static_cast<std::size_t>(ch)];
    gbeta[ch] += sum_dy[static_cast<std::size_t>(ch)];
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* px = x.data() + r * c;
    const float* pg = grad_out.data() + r * c;
    float* pgx = gx.data() + r * c;
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const std::size_t cs = static_cast<std::size_t>(ch);
      const float xhat = (px[ch] - batch_mean_[ch]) * inv_std[cs];
      pgx[ch] += gamma_.value[ch] * inv_std[cs] *
                 (pg[ch] - sum_dy[cs] / n - xhat * sum_dy_xhat[cs] / n);
    }
  }
}

// ------------------------------------------------------------- Dropout ----

Shape Dropout::output_shape(const std::vector<Shape>& in) const {
  require_single_input(in, "dropout");
  return in[0];
}

void Dropout::forward(const std::vector<const TensorF*>& in, TensorF& out,
                      bool training) {
  const TensorF& x = *in[0];
  if (!training || rate_ <= 0.f) {
    std::copy(x.begin(), x.end(), out.begin());
    return;
  }
  mask_.assign(static_cast<std::size_t>(x.numel()), 0);
  const float scale = 1.f / (1.f - rate_);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const bool keep = !rng_.bernoulli(rate_);
    mask_[static_cast<std::size_t>(i)] = keep;
    out[i] = keep ? x[i] * scale : 0.f;
  }
}

void Dropout::backward(const std::vector<const TensorF*>&, const TensorF&,
                       const TensorF& grad_out,
                       const std::vector<TensorF*>& grad_in) {
  TensorF& gx = *grad_in[0];
  if (mask_.empty()) {  // inference-mode forward; identity
    for (std::int64_t i = 0; i < grad_out.numel(); ++i) gx[i] += grad_out[i];
    return;
  }
  const float scale = 1.f / (1.f - rate_);
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    if (mask_[static_cast<std::size_t>(i)]) gx[i] += grad_out[i] * scale;
  }
}

// ------------------------------------------------------------- Softmax ----

Shape Softmax::output_shape(const std::vector<Shape>& in) const {
  require_single_input(in, "softmax");
  return in[0];
}

void Softmax::forward(const std::vector<const TensorF*>& in, TensorF& out,
                      bool) {
  const TensorF& x = *in[0];
  const std::int64_t c = last_dim(x.shape());
  const std::int64_t rows = x.numel() / c;
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* px = x.data() + r * c;
    float* po = out.data() + r * c;
    float mx = px[0];
    for (std::int64_t ch = 1; ch < c; ++ch) mx = std::max(mx, px[ch]);
    float sum = 0.f;
    for (std::int64_t ch = 0; ch < c; ++ch) {
      po[ch] = std::exp(px[ch] - mx);
      sum += po[ch];
    }
    const float inv = 1.f / sum;
    for (std::int64_t ch = 0; ch < c; ++ch) po[ch] *= inv;
  }
}

void Softmax::backward(const std::vector<const TensorF*>&, const TensorF& out,
                       const TensorF& grad_out,
                       const std::vector<TensorF*>& grad_in) {
  // dL/dz_i = p_i * (dL/dp_i - sum_j p_j dL/dp_j), per pixel.
  TensorF& gx = *grad_in[0];
  const std::int64_t c = last_dim(out.shape());
  const std::int64_t rows = out.numel() / c;
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* p = out.data() + r * c;
    const float* g = grad_out.data() + r * c;
    float* pgx = gx.data() + r * c;
    float dot = 0.f;
    for (std::int64_t ch = 0; ch < c; ++ch) dot += p[ch] * g[ch];
    for (std::int64_t ch = 0; ch < c; ++ch) pgx[ch] += p[ch] * (g[ch] - dot);
  }
}

// -------------------------------------------------------------- Concat ----

Shape Concat::output_shape(const std::vector<Shape>& in) const {
  if (in.size() != 2) throw std::invalid_argument("concat: expects two inputs");
  const Shape& a = in[0];
  const Shape& b = in[1];
  if (a.rank() != b.rank()) throw std::invalid_argument("concat: rank mismatch");
  for (std::size_t d = 0; d + 1 < a.rank(); ++d) {
    if (a[d] != b[d]) throw std::invalid_argument("concat: spatial mismatch");
  }
  if (a.rank() == 3) return Shape{a[0], a[1], a[2] + b[2]};
  if (a.rank() == 4) return Shape{a[0], a[1], a[2], a[3] + b[3]};
  throw std::invalid_argument("concat: unsupported rank");
}

void Concat::forward(const std::vector<const TensorF*>& in, TensorF& out,
                     bool) {
  const TensorF& a = *in[0];
  const TensorF& b = *in[1];
  const std::int64_t ca = last_dim(a.shape());
  const std::int64_t cb = last_dim(b.shape());
  const std::int64_t rows = a.numel() / ca;
  for (std::int64_t r = 0; r < rows; ++r) {
    float* po = out.data() + r * (ca + cb);
    const float* pa = a.data() + r * ca;
    const float* pb = b.data() + r * cb;
    std::copy(pa, pa + ca, po);
    std::copy(pb, pb + cb, po + ca);
  }
}

void Concat::backward(const std::vector<const TensorF*>& in, const TensorF&,
                      const TensorF& grad_out,
                      const std::vector<TensorF*>& grad_in) {
  const std::int64_t ca = last_dim(in[0]->shape());
  const std::int64_t cb = last_dim(in[1]->shape());
  const std::int64_t rows = in[0]->numel() / ca;
  TensorF& ga = *grad_in[0];
  TensorF& gb = *grad_in[1];
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* pg = grad_out.data() + r * (ca + cb);
    float* pga = ga.data() + r * ca;
    float* pgb = gb.data() + r * cb;
    for (std::int64_t ch = 0; ch < ca; ++ch) pga[ch] += pg[ch];
    for (std::int64_t ch = 0; ch < cb; ++ch) pgb[ch] += pg[ca + ch];
  }
}

}  // namespace seneca::nn
