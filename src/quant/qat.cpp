#include "quant/qat.hpp"

#include <cmath>
#include <numeric>

#include "quant/qgraph.hpp"
#include "util/rng.hpp"

namespace seneca::quant {

void fake_quantize(tensor::TensorF& t) {
  const int fp = choose_fix_pos(t);
  const double scale = std::ldexp(1.0, fp);
  const double inv = 1.0 / scale;
  for (auto& v : t) {
    // Half-away-from-zero ties, independent of the ambient FP rounding mode:
    // the rounding quantize_tensor and the runtime's rshift_round use, so
    // QAT trains against deployment rounding.
    const std::int8_t q = round_saturate_i8(static_cast<double>(v) * scale);
    v = static_cast<float>(static_cast<double>(q) * inv);
  }
}

double qat_finetune(nn::Graph& graph, const nn::Loss& loss,
                    const std::vector<nn::Sample>& data,
                    const QatOptions& opts) {
  if (data.empty()) return 0.0;
  nn::Adam optimizer(opts.learning_rate);
  util::Rng rng(opts.shuffle_seed);

  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);

  // Shadow copies of the weight tensors (biases are kept float on the DPU's
  // INT32 accumulator path, so they train normally).
  auto params = graph.params();
  std::vector<tensor::TensorF> shadows;
  std::vector<std::size_t> weight_idx;
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i]->name == "weight") {
      weight_idx.push_back(i);
      shadows.push_back(params[i]->value);
    }
  }

  tensor::TensorF grad_probs;
  double last_epoch_loss = 0.0;
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    for (std::size_t idx : order) {
      // Forward/backward with snapped weights.
      for (std::size_t k = 0; k < weight_idx.size(); ++k) {
        params[weight_idx[k]]->value = shadows[k];
        fake_quantize(params[weight_idx[k]]->value);
      }
      const nn::Sample& s = data[idx];
      const auto& probs = graph.forward(s.image, /*training=*/true);
      if (grad_probs.shape() != probs.shape()) {
        grad_probs = tensor::TensorF(probs.shape());
      }
      epoch_loss += loss.compute(probs, s.labels, grad_probs);
      graph.zero_grad();
      graph.backward(grad_probs);
      // Straight-through: apply the quantized-forward gradients to shadows.
      for (std::size_t k = 0; k < weight_idx.size(); ++k) {
        params[weight_idx[k]]->value = shadows[k];
      }
      optimizer.step(params);
      for (std::size_t k = 0; k < weight_idx.size(); ++k) {
        shadows[k] = params[weight_idx[k]]->value;
      }
    }
    last_epoch_loss = epoch_loss / static_cast<double>(data.size());
  }
  // Leave the graph holding the trained float shadows.
  for (std::size_t k = 0; k < weight_idx.size(); ++k) {
    params[weight_idx[k]]->value = shadows[k];
  }
  return last_epoch_loss;
}

}  // namespace seneca::quant
