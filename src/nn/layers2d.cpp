#include "nn/layers2d.hpp"

#include <cmath>
#include <stdexcept>

namespace seneca::nn {

namespace {
void he_init(TensorF& w, std::int64_t fan_in, util::Rng& rng) {
  const float stddev = std::sqrt(2.f / static_cast<float>(fan_in));
  for (auto& v : w) v = static_cast<float>(rng.gauss(0.0, stddev));
}
}  // namespace

// -------------------------------------------------------------- Conv2D ----

Conv2D::Conv2D(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      weight_("weight", Shape{kernel, kernel, in_channels, out_channels}),
      bias_("bias", Shape{out_channels}) {
  if (kernel % 2 == 0) throw std::invalid_argument("Conv2D: even kernel");
}

void Conv2D::init_he(util::Rng& rng) {
  he_init(weight_.value, kernel_ * kernel_ * in_channels_, rng);
  bias_.value.fill(0.f);
}

Shape Conv2D::output_shape(const std::vector<Shape>& in) const {
  if (in.size() != 1 || in[0].rank() != 3 || in[0][2] != in_channels_) {
    throw std::invalid_argument("Conv2D: bad input shape");
  }
  return Shape{in[0][0], in[0][1], out_channels_};
}

void Conv2D::forward(const std::vector<const TensorF*>& in, TensorF& out,
                     bool) {
  const TensorF& x = *in[0];
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t ci = in_channels_;
  const std::int64_t co = out_channels_;
  const std::int64_t k = kernel_;
  const std::int64_t pad = k / 2;
  const float* wp = weight_.value.data();

  for (std::int64_t oy = 0; oy < h; ++oy) {
    for (std::int64_t ox = 0; ox < w; ++ox) {
      float* po = out.data() + (oy * w + ox) * co;
      for (std::int64_t c = 0; c < co; ++c) po[c] = bias_.value[c];
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int64_t iy = oy + ky - pad;
        if (iy < 0 || iy >= h) continue;
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::int64_t ix = ox + kx - pad;
          if (ix < 0 || ix >= w) continue;
          const float* px = x.data() + (iy * w + ix) * ci;
          const float* pw = wp + ((ky * k + kx) * ci) * co;
          for (std::int64_t c = 0; c < ci; ++c) {
            const float xv = px[c];
            const float* pwc = pw + c * co;
            for (std::int64_t o = 0; o < co; ++o) po[o] += xv * pwc[o];
          }
        }
      }
    }
  }
}

void Conv2D::backward(const std::vector<const TensorF*>& in, const TensorF&,
                      const TensorF& grad_out,
                      const std::vector<TensorF*>& grad_in) {
  const TensorF& x = *in[0];
  TensorF& gx = *grad_in[0];
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t ci = in_channels_;
  const std::int64_t co = out_channels_;
  const std::int64_t k = kernel_;
  const std::int64_t pad = k / 2;
  const float* wp = weight_.value.data();
  float* gwp = weight_.grad().data();
  float* gbp = bias_.grad().data();

  for (std::int64_t oy = 0; oy < h; ++oy) {
    for (std::int64_t ox = 0; ox < w; ++ox) {
      const float* pg = grad_out.data() + (oy * w + ox) * co;
      for (std::int64_t o = 0; o < co; ++o) gbp[o] += pg[o];
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int64_t iy = oy + ky - pad;
        if (iy < 0 || iy >= h) continue;
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::int64_t ix = ox + kx - pad;
          if (ix < 0 || ix >= w) continue;
          const float* px = x.data() + (iy * w + ix) * ci;
          float* pgx = gx.data() + (iy * w + ix) * ci;
          const float* pw = wp + ((ky * k + kx) * ci) * co;
          float* pgw = gwp + ((ky * k + kx) * ci) * co;
          for (std::int64_t c = 0; c < ci; ++c) {
            const float xv = px[c];
            const float* pwc = pw + c * co;
            float* pgwc = pgw + c * co;
            float acc = 0.f;
            for (std::int64_t o = 0; o < co; ++o) {
              acc += pwc[o] * pg[o];
              pgwc[o] += xv * pg[o];
            }
            pgx[c] += acc;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------- TransposedConv2D ----

TransposedConv2D::TransposedConv2D(std::int64_t in_channels,
                                   std::int64_t out_channels,
                                   std::int64_t kernel)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      weight_("weight", Shape{kernel, kernel, in_channels, out_channels}),
      bias_("bias", Shape{out_channels}) {
  if (kernel != 3) {
    throw std::invalid_argument("TransposedConv2D: only k=3 supported");
  }
}

void TransposedConv2D::init_he(util::Rng& rng) {
  he_init(weight_.value, kernel_ * kernel_ * in_channels_, rng);
  bias_.value.fill(0.f);
}

Shape TransposedConv2D::output_shape(const std::vector<Shape>& in) const {
  if (in.size() != 1 || in[0].rank() != 3 || in[0][2] != in_channels_) {
    throw std::invalid_argument("TransposedConv2D: bad input shape");
  }
  return Shape{in[0][0] * 2, in[0][1] * 2, out_channels_};
}

void TransposedConv2D::forward(const std::vector<const TensorF*>& in,
                               TensorF& out, bool) {
  const TensorF& x = *in[0];
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t oh = h * 2;
  const std::int64_t ow = w * 2;
  const std::int64_t ci = in_channels_;
  const std::int64_t co = out_channels_;
  const std::int64_t k = kernel_;
  const float* wp = weight_.value.data();

  for (std::int64_t i = 0; i < out.numel(); i += co) {
    for (std::int64_t o = 0; o < co; ++o) out[i + o] = bias_.value[o];
  }
  // Scatter: out[2*iy - 1 + ky][2*ix - 1 + kx] += x[iy][ix] * W[ky][kx].
  for (std::int64_t iy = 0; iy < h; ++iy) {
    for (std::int64_t ix = 0; ix < w; ++ix) {
      const float* px = x.data() + (iy * w + ix) * ci;
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int64_t oy = 2 * iy - 1 + ky;
        if (oy < 0 || oy >= oh) continue;
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::int64_t ox = 2 * ix - 1 + kx;
          if (ox < 0 || ox >= ow) continue;
          float* po = out.data() + (oy * ow + ox) * co;
          const float* pw = wp + ((ky * k + kx) * ci) * co;
          for (std::int64_t c = 0; c < ci; ++c) {
            const float xv = px[c];
            const float* pwc = pw + c * co;
            for (std::int64_t o = 0; o < co; ++o) po[o] += xv * pwc[o];
          }
        }
      }
    }
  }
}

void TransposedConv2D::backward(const std::vector<const TensorF*>& in,
                                const TensorF&, const TensorF& grad_out,
                                const std::vector<TensorF*>& grad_in) {
  const TensorF& x = *in[0];
  TensorF& gx = *grad_in[0];
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t oh = h * 2;
  const std::int64_t ow = w * 2;
  const std::int64_t ci = in_channels_;
  const std::int64_t co = out_channels_;
  const std::int64_t k = kernel_;
  const float* wp = weight_.value.data();
  float* gwp = weight_.grad().data();
  float* gbp = bias_.grad().data();

  for (std::int64_t i = 0; i < grad_out.numel(); i += co) {
    for (std::int64_t o = 0; o < co; ++o) gbp[o] += grad_out[i + o];
  }
  for (std::int64_t iy = 0; iy < h; ++iy) {
    for (std::int64_t ix = 0; ix < w; ++ix) {
      const float* px = x.data() + (iy * w + ix) * ci;
      float* pgx = gx.data() + (iy * w + ix) * ci;
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int64_t oy = 2 * iy - 1 + ky;
        if (oy < 0 || oy >= oh) continue;
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::int64_t ox = 2 * ix - 1 + kx;
          if (ox < 0 || ox >= ow) continue;
          const float* pg = grad_out.data() + (oy * ow + ox) * co;
          const float* pw = wp + ((ky * k + kx) * ci) * co;
          float* pgw = gwp + ((ky * k + kx) * ci) * co;
          for (std::int64_t c = 0; c < ci; ++c) {
            const float xv = px[c];
            const float* pwc = pw + c * co;
            float* pgwc = pgw + c * co;
            float acc = 0.f;
            for (std::int64_t o = 0; o < co; ++o) {
              acc += pwc[o] * pg[o];
              pgwc[o] += xv * pg[o];
            }
            pgx[c] += acc;
          }
        }
      }
    }
  }
}

// ----------------------------------------------------------- MaxPool2D ----

Shape MaxPool2D::output_shape(const std::vector<Shape>& in) const {
  if (in.size() != 1 || in[0].rank() != 3) {
    throw std::invalid_argument("MaxPool2D: bad input");
  }
  if (in[0][0] % 2 != 0 || in[0][1] % 2 != 0) {
    throw std::invalid_argument("MaxPool2D: odd spatial dims");
  }
  return Shape{in[0][0] / 2, in[0][1] / 2, in[0][2]};
}

void MaxPool2D::forward(const std::vector<const TensorF*>& in, TensorF& out,
                        bool) {
  const TensorF& x = *in[0];
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t c = x.shape()[2];
  const std::int64_t ow = w / 2;
  argmax_.assign(static_cast<std::size_t>(out.numel()), 0);

  for (std::int64_t oy = 0; oy < h / 2; ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      float* po = out.data() + (oy * ow + ox) * c;
      std::int64_t* pa = argmax_.data() + (oy * ow + ox) * c;
      for (std::int64_t ch = 0; ch < c; ++ch) {
        float best = -std::numeric_limits<float>::infinity();
        std::int64_t best_idx = 0;
        for (std::int64_t dy = 0; dy < 2; ++dy) {
          for (std::int64_t dx = 0; dx < 2; ++dx) {
            const std::int64_t idx =
                ((2 * oy + dy) * w + (2 * ox + dx)) * c + ch;
            if (x[idx] > best) {
              best = x[idx];
              best_idx = idx;
            }
          }
        }
        po[ch] = best;
        pa[ch] = best_idx;
      }
    }
  }
}

void MaxPool2D::backward(const std::vector<const TensorF*>&, const TensorF&,
                         const TensorF& grad_out,
                         const std::vector<TensorF*>& grad_in) {
  TensorF& gx = *grad_in[0];
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    gx[argmax_[static_cast<std::size_t>(i)]] += grad_out[i];
  }
}

}  // namespace seneca::nn
