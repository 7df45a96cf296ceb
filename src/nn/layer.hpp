#pragma once
// Layer interface of the SENECA training/inference framework.
//
// Layers operate on single-sample channels-last tensors (HWC for 2D nets,
// DHWC for 3D nets); the batch loop lives in the trainer. Each layer computes
// a forward pass and, for training, a backward pass that accumulates
// gradients into the provided input-gradient tensors. Layers may cache
// intermediate state between a forward(training=true) and the matching
// backward call (the trainer is single-stream).

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace seneca::nn {

using tensor::Shape;
using tensor::TensorF;

/// A trainable parameter: value plus gradient accumulator of the same shape.
/// The accumulator is allocated, zeroed, on the first call to grad(), so a
/// graph that is only folded and quantized never holds a second copy of its
/// weights.
struct Param {
  std::string name;
  TensorF value;

  Param(std::string n, Shape shape) : name(std::move(n)), value(shape, 0.f) {}

  TensorF& grad() {
    if (grad_.numel() != value.numel()) grad_ = TensorF(value.shape(), 0.f);
    return grad_;
  }
  bool has_grad() const { return grad_.numel() != 0; }

 private:
  TensorF grad_;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Stable type tag used by the quantizer and DPU compiler to dispatch.
  virtual std::string type() const = 0;

  /// Shape inference; throws std::invalid_argument on illegal inputs.
  virtual Shape output_shape(const std::vector<Shape>& inputs) const = 0;

  /// Forward pass. `out` is pre-sized to output_shape(). `training` enables
  /// stochastic behaviour (dropout) and batch statistics (batch norm).
  virtual void forward(const std::vector<const TensorF*>& inputs, TensorF& out,
                       bool training) = 0;

  /// Backward pass: given d(loss)/d(out), ACCUMULATE d(loss)/d(input_i) into
  /// grad_inputs[i] (pre-sized, possibly already holding gradients from other
  /// consumers) and accumulate parameter gradients.
  virtual void backward(const std::vector<const TensorF*>& inputs,
                        const TensorF& out, const TensorF& grad_out,
                        const std::vector<TensorF*>& grad_inputs) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Non-trainable state that must survive serialization (e.g. batch-norm
  /// running statistics), as (name, tensor) pairs.
  virtual std::vector<std::pair<std::string, TensorF*>> state() { return {}; }
};

}  // namespace seneca::nn
