#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace seneca::nn {

void Sgd::step(const std::vector<Param*>& params) {
  if (momentum_ > 0.f && velocity_.size() != params.size()) {
    velocity_.clear();
    for (Param* p : params) velocity_.emplace_back(p->value.shape(), 0.f);
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    Param& p = *params[i];
    const TensorF& grad = p.grad();
    if (momentum_ > 0.f) {
      TensorF& vel = velocity_[i];
      for (std::int64_t j = 0; j < p.value.numel(); ++j) {
        vel[j] = momentum_ * vel[j] + grad[j];
        p.value[j] -= lr_ * vel[j];
      }
    } else {
      for (std::int64_t j = 0; j < p.value.numel(); ++j) {
        p.value[j] -= lr_ * grad[j];
      }
    }
  }
}

void Adam::step(const std::vector<Param*>& params) {
  if (m_.size() != params.size()) {
    m_.clear();
    v_.clear();
    for (Param* p : params) {
      m_.emplace_back(p->value.shape(), 0.f);
      v_.emplace_back(p->value.shape(), 0.f);
    }
    t_ = 0;
  }
  ++t_;
  const float bc1 = 1.f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    Param& p = *params[i];
    TensorF& m = m_[i];
    TensorF& v = v_[i];
    const TensorF& grad = p.grad();
    for (std::int64_t j = 0; j < p.value.numel(); ++j) {
      const float g = grad[j];
      m[j] = beta1_ * m[j] + (1.f - beta1_) * g;
      v[j] = beta2_ * v[j] + (1.f - beta2_) * g * g;
      const float mhat = m[j] / bc1;
      const float vhat = v[j] / bc2;
      p.value[j] -= lr_ * mhat / (std::sqrt(vhat) + epsilon_);
    }
  }
}

}  // namespace seneca::nn
