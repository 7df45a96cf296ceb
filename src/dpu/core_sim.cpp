#include "dpu/core_sim.hpp"

#include <stdexcept>

#include "quant/kernels.hpp"

namespace seneca::dpu {

DpuCoreSim::DpuCoreSim(const XModel* model) : model_(model) {
  payloads_.resize(model_->layers.size());
  packs_.resize(model_->layers.size());
  consts_.resize(model_->layers.size());
  for (std::size_t i = 0; i < model_->layers.size(); ++i) {
    const XLayer& layer = model_->layers[i];
    if (layer.weight_count == 0) continue;  // pool, concat: no payload
    const std::int8_t* blob = model_->weights.data() + layer.weight_offset;
    if (layer.kind == XLayer::Kind::kConst) {
      // The folded feature map rides in the weights blob, unpadded HWC.
      consts_[i] = TensorI8(layer.out_shape);
      std::copy(blob, blob + layer.weight_count, consts_[i].data());
      continue;
    }
    // A conv or tconv: the kernels read its [K][K][Cin][Cout] weights in
    // place in the blob, and only its biases are copied.
    quant::QOp& op = payloads_[i];
    op.kind = layer.kind == XLayer::Kind::kConv ? quant::QOpKind::kConv2D
                                                : quant::QOpKind::kTConv2D;
    op.name = layer.name;
    op.out_shape = layer.out_shape;
    op.fix_pos_out = layer.fix_pos_out;
    op.fix_pos_w = layer.fix_pos_w;
    op.kernel = layer.kernel;
    op.relu = layer.relu;
    op.borrowed_weights = {blob, static_cast<std::size_t>(layer.weight_count)};
    const auto bias = model_->biases.begin() + layer.bias_offset;
    op.bias.assign(bias, bias + layer.bias_count);
    packs_[i] = quant::kernels::pack_weights(op);
  }
}

RunResult DpuCoreSim::run(const TensorI8& input, int bw_sharers,
                          tensor::TensorArena* arena) const {
  if (input.shape() != model_->input_shape) {
    throw std::invalid_argument("DpuCoreSim::run: input shape mismatch");
  }
  std::vector<TensorI8> acts(model_->layers.size());
  std::vector<int> fps(model_->layers.size(), 0);

  auto input_of = [&](int id) -> const TensorI8& {
    if (id < 0) return input;
    // Folded kConst feature maps are read in place from the construction-time
    // decode; they never enter the per-frame activation set.
    if (model_->layers[static_cast<std::size_t>(id)].kind ==
        XLayer::Kind::kConst) {
      return consts_[static_cast<std::size_t>(id)];
    }
    return acts[static_cast<std::size_t>(id)];
  };
  auto fp_of = [&](int id) {
    return id < 0 ? model_->input_fix_pos : fps[static_cast<std::size_t>(id)];
  };

  for (std::size_t i = 0; i < model_->layers.size(); ++i) {
    const XLayer& layer = model_->layers[i];
    if (layer.kind == XLayer::Kind::kConst) {
      fps[i] = layer.fix_pos_out;  // aliased via input_of, nothing to execute
      continue;
    }
    const quant::QOp& op = payloads_[i];
    TensorI8 out =
        arena ? arena->acquire(layer.out_shape) : TensorI8(layer.out_shape);
    switch (layer.kind) {
      case XLayer::Kind::kConv:
        quant::kernels::conv2d(input_of(layer.inputs[0]), op, out,
                               fp_of(layer.inputs[0]), &packs_[i]);
        break;
      case XLayer::Kind::kTConv:
        quant::kernels::tconv2d(input_of(layer.inputs[0]), op, out,
                                fp_of(layer.inputs[0]), arena, &packs_[i]);
        break;
      case XLayer::Kind::kPool:
        quant::kernels::maxpool2d(input_of(layer.inputs[0]), out);
        break;
      case XLayer::Kind::kConcat:
        if (layer.materialized) {
          // Offset-addressed assembly: each input lands in its channel
          // region of this buffer, requantized on the way in — either by a
          // producer's redirected store or by a region LOAD. The requant
          // (sat8(rshift_round(v, fp_in - fp_out))) is the same arithmetic
          // the deleted kConcat copy performed, so outputs are bit-exact.
          std::int64_t chan_off = 0;
          for (int src : layer.inputs) {
            const TensorI8& in = input_of(src);
            const std::int64_t ci = in.shape()[2];
            const int shift = fp_of(src) - layer.fix_pos_out;
            const std::int64_t co = layer.out_shape[2];
            const std::int64_t pixels = in.numel() / ci;
            for (std::int64_t p = 0; p < pixels; ++p) {
              quant::kernels::requant_row(in.data() + p * ci,
                                          out.data() + p * co + chan_off, ci,
                                          shift);
            }
            chan_off += ci;
          }
        } else {
          quant::kernels::concat(input_of(layer.inputs[0]),
                                 fp_of(layer.inputs[0]),
                                 input_of(layer.inputs[1]),
                                 fp_of(layer.inputs[1]), out,
                                 layer.fix_pos_out);
        }
        break;
      case XLayer::Kind::kConst:
        break;  // unreachable: handled before the payload dispatch
    }
    acts[i] = std::move(out);
    fps[i] = (layer.kind == XLayer::Kind::kPool) ? fp_of(layer.inputs[0])
                                                 : layer.fix_pos_out;
  }

  RunResult result;
  const std::size_t out_id = static_cast<std::size_t>(model_->output_layer);
  if (model_->layers[out_id].kind == XLayer::Kind::kConst) {
    result.output = consts_[out_id];  // degenerate fully-folded model
  } else {
    result.output = std::move(acts[out_id]);
  }
  if (arena) {
    for (auto& t : acts) arena->release(std::move(t));
  }
  result.cycles = model_->latency_cycles(bw_sharers);
  result.seconds = model_->latency_seconds(bw_sharers);
  return result;
}

}  // namespace seneca::dpu
