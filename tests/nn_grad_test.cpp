// Gradient correctness: central finite differences against analytic
// backward passes, per layer and through a full tiny U-Net. BN conv biases
// are excluded (BN absorbs them: analytic gradient is exactly zero while the
// numeric probe reads float noise).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "nn/graph.hpp"
#include "nn/layers2d.hpp"
#include "nn/layers3d.hpp"
#include "nn/layers_common.hpp"
#include "nn/loss.hpp"
#include "nn/unet.hpp"
#include "util/rng.hpp"

namespace seneca::nn {
namespace {

using tensor::Shape;
using tensor::TensorF;

TensorF random_tensor(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  TensorF t(shape);
  for (auto& v : t) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

/// Scalar objective: weighted sum of layer outputs (fixed random weights),
/// differentiable and sensitive to every output element.
struct LayerProbe {
  Layer& layer;
  std::vector<const TensorF*> inputs;
  TensorF coeffs;  // objective weights, same shape as output

  double objective(bool training = false) {
    Shape out_shape = layer.output_shape(shapes());
    TensorF out(out_shape);
    layer.forward(inputs, out, training);
    double s = 0.0;
    for (std::int64_t i = 0; i < out.numel(); ++i) s += out[i] * coeffs[i];
    return s;
  }

  std::vector<Shape> shapes() const {
    std::vector<Shape> s;
    for (auto* in : inputs) s.push_back(in->shape());
    return s;
  }

  /// Analytic gradients: d(objective)/d(input_i) and parameter grads.
  std::vector<TensorF> input_grads(bool training = false) {
    Shape out_shape = layer.output_shape(shapes());
    TensorF out(out_shape);
    layer.forward(inputs, out, training);
    std::vector<TensorF> grads;
    std::vector<TensorF*> grad_ptrs;
    for (auto* in : inputs) grads.emplace_back(in->shape(), 0.f);
    for (auto& g : grads) grad_ptrs.push_back(&g);
    for (Param* p : layer.params()) p->grad().fill(0.f);
    layer.backward(inputs, out, coeffs, grad_ptrs);
    return grads;
  }
};

void check_input_gradient(Layer& layer, std::vector<TensorF> inputs,
                          std::uint64_t seed, double tol = 2e-2) {
  std::vector<const TensorF*> input_ptrs;
  for (auto& in : inputs) input_ptrs.push_back(&in);
  LayerProbe probe{layer, input_ptrs,
                   random_tensor(layer.output_shape([&] {
                     std::vector<Shape> s;
                     for (auto& in : inputs) s.push_back(in.shape());
                     return s;
                   }()), seed)};
  auto grads = probe.input_grads();
  const float h = 1e-2f;
  util::Rng pick(seed ^ 0xABC);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    for (int probe_i = 0; probe_i < 4; ++probe_i) {
      const std::int64_t idx = static_cast<std::int64_t>(
          pick.uniform_index(static_cast<std::uint64_t>(inputs[k].numel())));
      const float orig = inputs[k][idx];
      inputs[k][idx] = orig + h;
      const double lp = probe.objective();
      inputs[k][idx] = orig - h;
      const double lm = probe.objective();
      inputs[k][idx] = orig;
      const double num = (lp - lm) / (2.0 * h);
      const double ana = grads[k][idx];
      EXPECT_NEAR(ana, num, tol * (std::fabs(num) + std::fabs(ana) + 1.0))
          << "input " << k << " idx " << idx;
    }
  }
}

void check_param_gradient(Layer& layer, std::vector<TensorF> inputs,
                          std::uint64_t seed, double tol = 2e-2) {
  std::vector<const TensorF*> input_ptrs;
  for (auto& in : inputs) input_ptrs.push_back(&in);
  LayerProbe probe{layer, input_ptrs,
                   random_tensor(layer.output_shape([&] {
                     std::vector<Shape> s;
                     for (auto& in : inputs) s.push_back(in.shape());
                     return s;
                   }()), seed)};
  probe.input_grads(true);  // fills param grads
  const float h = 1e-2f;
  util::Rng pick(seed ^ 0x123);
  for (Param* p : layer.params()) {
    std::vector<double> saved;
    for (int probe_i = 0; probe_i < 3; ++probe_i) {
      const std::int64_t idx = static_cast<std::int64_t>(
          pick.uniform_index(static_cast<std::uint64_t>(p->value.numel())));
      const double ana = p->grad()[idx];
      const float orig = p->value[idx];
      p->value[idx] = orig + h;
      const double lp = probe.objective(true);
      p->value[idx] = orig - h;
      const double lm = probe.objective(true);
      p->value[idx] = orig;
      const double num = (lp - lm) / (2.0 * h);
      EXPECT_NEAR(ana, num, tol * (std::fabs(num) + std::fabs(ana) + 1.0))
          << p->name << " idx " << idx;
      saved.push_back(ana);
    }
  }
}

TEST(Grad, Conv2DInput) {
  Conv2D conv(2, 3);
  util::Rng rng(1);
  conv.init_he(rng);
  check_input_gradient(conv, {random_tensor(Shape{5, 5, 2}, 2)}, 3);
}

TEST(Grad, Conv2DParams) {
  Conv2D conv(2, 3);
  util::Rng rng(4);
  conv.init_he(rng);
  check_param_gradient(conv, {random_tensor(Shape{5, 5, 2}, 5)}, 6);
}

TEST(Grad, TransposedConv2DInput) {
  TransposedConv2D up(3, 2);
  util::Rng rng(7);
  up.init_he(rng);
  check_input_gradient(up, {random_tensor(Shape{3, 3, 3}, 8)}, 9);
}

TEST(Grad, TransposedConv2DParams) {
  TransposedConv2D up(3, 2);
  util::Rng rng(10);
  up.init_he(rng);
  check_param_gradient(up, {random_tensor(Shape{3, 3, 3}, 11)}, 12);
}

TEST(Grad, ReLUInput) {
  ReLU relu;
  check_input_gradient(relu, {random_tensor(Shape{4, 4, 3}, 13)}, 14);
}

TEST(Grad, MaxPool2DInput) {
  MaxPool2D pool;
  check_input_gradient(pool, {random_tensor(Shape{4, 4, 2}, 15)}, 16);
}

TEST(Grad, ConcatInputs) {
  Concat cat;
  check_input_gradient(
      cat, {random_tensor(Shape{3, 3, 2}, 17), random_tensor(Shape{3, 3, 1}, 18)},
      19);
}

TEST(Grad, SoftmaxInput) {
  Softmax sm;
  check_input_gradient(sm, {random_tensor(Shape{2, 2, 4}, 20)}, 21, 3e-2);
}

TEST(Grad, BatchNormParams) {
  BatchNorm bn(3);
  check_param_gradient(bn, {random_tensor(Shape{6, 6, 3}, 22)}, 23);
}

TEST(Grad, Conv3DInput) {
  Conv3D conv(2, 2);
  util::Rng rng(24);
  conv.init_he(rng);
  check_input_gradient(conv, {random_tensor(Shape{3, 3, 3, 2}, 25)}, 26);
}

TEST(Grad, Conv3DParams) {
  Conv3D conv(2, 2);
  util::Rng rng(27);
  conv.init_he(rng);
  check_param_gradient(conv, {random_tensor(Shape{3, 3, 3, 2}, 28)}, 29);
}

TEST(Grad, TransposedConv3DInput) {
  TransposedConv3D up(2, 2);
  util::Rng rng(30);
  up.init_he(rng);
  check_input_gradient(up, {random_tensor(Shape{2, 2, 2, 2}, 31)}, 32);
}

TEST(Grad, MaxPool3DInput) {
  MaxPool3D pool;
  check_input_gradient(pool, {random_tensor(Shape{2, 2, 2, 2}, 33)}, 34);
}

/// End-to-end: loss gradient through a whole tiny 2D U-Net.
TEST(Grad, WholeUNetThroughLoss) {
  UNet2DConfig cfg;
  cfg.input_size = 16;
  cfg.depth = 2;
  cfg.base_filters = 4;
  cfg.num_classes = 3;
  cfg.dropout = 0.f;
  auto graph = build_unet2d(cfg);
  util::Rng rng(35);
  TensorF x = random_tensor(Shape{16, 16, 1}, 36);
  LabelMap y(Shape{16, 16});
  for (auto& v : y) v = static_cast<std::int32_t>(rng.uniform_index(3));
  FocalTverskyLoss loss(0.7f, 0.3f, 4.f / 3.f, {0.5f, 1.f, 2.f});

  auto run = [&] {
    const TensorF& p = graph->forward(x, true);
    TensorF gp(p.shape());
    return std::make_pair(loss.compute(p, y, gp), gp);
  };
  auto [l0, gp] = run();
  graph->zero_grad();
  graph->backward(gp);

  // Central differences through a float32 forward are noisy (loss deltas of
  // ~1e-6 ride on ~1e-7 accumulation noise), so this end-to-end check only
  // probes parameters with non-negligible gradients and uses a loose bound;
  // the strict per-layer checks above pin exactness.
  const float h = 5e-3f;
  int checked = 0;
  for (Param* p : graph->params()) {
    if (checked >= 6) break;
    if (p->name == "bias") continue;  // absorbed by the following BN
    if (p->value.numel() < 8) continue;
    const std::int64_t idx = p->value.numel() / 3;
    const double ana = p->grad()[idx];
    if (std::fabs(ana) < 2e-3) continue;
    const float orig = p->value[idx];
    p->value[idx] = orig + h;
    const double lp = run().first;
    p->value[idx] = orig - h;
    const double lm = run().first;
    p->value[idx] = orig;
    const double num = (lp - lm) / (2.0 * h);
    EXPECT_NEAR(ana, num, 0.2 * (std::fabs(num) + std::fabs(ana)) + 5e-4)
        << p->name;
    ++checked;
  }
  EXPECT_GE(checked, 2);
}

}  // namespace
}  // namespace seneca::nn
