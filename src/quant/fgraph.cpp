#include "quant/fgraph.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/layers_common.hpp"

namespace seneca::quant {

void conv2d_forward(const TensorF& x, const TensorF& w, const TensorF& b,
                    TensorF& out, bool relu) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t wd = x.shape()[1];
  const std::int64_t ci = x.shape()[2];
  const std::int64_t k = w.shape()[0];
  const std::int64_t co = w.shape()[3];
  const std::int64_t pad = k / 2;
  for (std::int64_t oy = 0; oy < h; ++oy) {
    for (std::int64_t ox = 0; ox < wd; ++ox) {
      float* po = out.data() + (oy * wd + ox) * co;
      for (std::int64_t o = 0; o < co; ++o) po[o] = b[o];
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int64_t iy = oy + ky - pad;
        if (iy < 0 || iy >= h) continue;
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::int64_t ix = ox + kx - pad;
          if (ix < 0 || ix >= wd) continue;
          const float* px = x.data() + (iy * wd + ix) * ci;
          const float* pw = w.data() + ((ky * k + kx) * ci) * co;
          for (std::int64_t c = 0; c < ci; ++c) {
            const float xv = px[c];
            const float* pwc = pw + c * co;
            for (std::int64_t o = 0; o < co; ++o) po[o] += xv * pwc[o];
          }
        }
      }
      if (relu) {
        for (std::int64_t o = 0; o < co; ++o) po[o] = std::max(po[o], 0.f);
      }
    }
  }
}

void tconv2d_forward(const TensorF& x, const TensorF& w, const TensorF& b,
                     TensorF& out, bool relu) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t wd = x.shape()[1];
  const std::int64_t ci = x.shape()[2];
  const std::int64_t k = w.shape()[0];
  const std::int64_t co = w.shape()[3];
  const std::int64_t oh = h * 2, ow = wd * 2;
  for (std::int64_t i = 0; i < out.numel(); i += co) {
    for (std::int64_t o = 0; o < co; ++o) out[i + o] = b[o];
  }
  for (std::int64_t iy = 0; iy < h; ++iy) {
    for (std::int64_t ix = 0; ix < wd; ++ix) {
      const float* px = x.data() + (iy * wd + ix) * ci;
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int64_t oy = 2 * iy - 1 + ky;
        if (oy < 0 || oy >= oh) continue;
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::int64_t ox = 2 * ix - 1 + kx;
          if (ox < 0 || ox >= ow) continue;
          float* po = out.data() + (oy * ow + ox) * co;
          const float* pw = w.data() + ((ky * k + kx) * ci) * co;
          for (std::int64_t c = 0; c < ci; ++c) {
            const float xv = px[c];
            const float* pwc = pw + c * co;
            for (std::int64_t o = 0; o < co; ++o) po[o] += xv * pwc[o];
          }
        }
      }
    }
  }
  if (relu) {
    for (std::int64_t i = 0; i < out.numel(); ++i) out[i] = std::max(out[i], 0.f);
  }
}

void maxpool2d_forward(const TensorF& x, TensorF& out) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t c = x.shape()[2];
  const std::int64_t ow = w / 2;
  for (std::int64_t oy = 0; oy < h / 2; ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      float* po = out.data() + (oy * ow + ox) * c;
      const float* p00 = x.data() + ((2 * oy) * w + 2 * ox) * c;
      const float* p01 = p00 + c;
      const float* p10 = x.data() + ((2 * oy + 1) * w + 2 * ox) * c;
      const float* p11 = p10 + c;
      for (std::int64_t ch = 0; ch < c; ++ch) {
        po[ch] = std::max(std::max(p00[ch], p01[ch]), std::max(p10[ch], p11[ch]));
      }
    }
  }
}

void concat_forward(const TensorF& a, const TensorF& b, TensorF& out) {
  const std::int64_t ca = a.shape()[2];
  const std::int64_t cb = b.shape()[2];
  const std::int64_t rows = a.numel() / ca;
  for (std::int64_t r = 0; r < rows; ++r) {
    float* po = out.data() + r * (ca + cb);
    const float* pa = a.data() + r * ca;
    const float* pb = b.data() + r * cb;
    std::copy(pa, pa + ca, po);
    std::copy(pb, pb + cb, po + ca);
  }
}

TensorF FGraph::forward(const TensorF& input,
                        std::vector<TensorF>* activations) const {
  std::vector<TensorF> acts(ops.size());
  acts[static_cast<std::size_t>(input_op)] = input;
  for (std::size_t id = 0; id < ops.size(); ++id) {
    const FOp& op = ops[id];
    if (op.kind == OpKind::kInput) continue;
    TensorF out(op.out_shape);
    const TensorF& a = acts[static_cast<std::size_t>(op.inputs[0])];
    switch (op.kind) {
      case OpKind::kConv2D:
        conv2d_forward(a, op.weights, op.bias, out, op.relu);
        break;
      case OpKind::kTConv2D:
        tconv2d_forward(a, op.weights, op.bias, out, op.relu);
        break;
      case OpKind::kMaxPool2D:
        maxpool2d_forward(a, out);
        break;
      case OpKind::kConcat:
        concat_forward(a, acts[static_cast<std::size_t>(op.inputs[1])], out);
        break;
      default:
        throw std::logic_error("FGraph::forward: bad op");
    }
    acts[id] = std::move(out);
  }
  TensorF result = acts[static_cast<std::size_t>(output_op)];
  if (activations) *activations = std::move(acts);
  return result;
}

namespace {

/// The one fold loop. With `take`, each conv/tconv weight and bias moves
/// out of the graph into its FOp instead of being copied, and batch norm
/// then folds into that one image in place.
FGraph fold_graph(nn::Graph& graph, bool take) {
  FGraph fg;
  // node id -> fop id producing that node's value (bn/relu/dropout/softmax
  // map to the id of the op they fold into).
  std::vector<int> fop_of(graph.num_nodes(), -1);
  // Appends the FOp computing node `id`'s value.
  auto emit = [&](std::size_t id, OpKind kind) -> FOp& {
    const auto& node = graph.node(static_cast<int>(id));
    FOp& op = fg.ops.emplace_back();
    op.kind = kind;
    op.name = node.name;
    for (int in : node.inputs) {
      op.inputs.push_back(fop_of[static_cast<std::size_t>(in)]);
    }
    op.out_shape = node.shape;
    fop_of[id] = static_cast<int>(fg.ops.size()) - 1;
    return op;
  };

  for (std::size_t id = 0; id < graph.num_nodes(); ++id) {
    auto& node = graph.node(static_cast<int>(id));
    if (!node.layer) {  // input placeholder
      emit(id, OpKind::kInput);
      fg.input_op = fop_of[id];
      continue;
    }
    const std::string type = node.layer->type();
    if (type == "conv2d" || type == "tconv2d") {
      FOp& op =
          emit(id, type == "conv2d" ? OpKind::kConv2D : OpKind::kTConv2D);
      // Both conv layers' params are {weight [K][K][Cin][Cout], bias}.
      const std::vector<nn::Param*> p = node.layer->params();
      op.weights = take ? std::move(p[0]->value) : p[0]->value;
      op.bias = take ? std::move(p[1]->value) : p[1]->value;
      op.kernel = op.weights.shape()[0];
    } else if (type == "batchnorm") {
      // Fold y = gamma*(x-mean)/sqrt(var+eps)+beta into the producing conv.
      const int src = fop_of[static_cast<std::size_t>(node.inputs[0])];
      FOp& conv = fg.ops[static_cast<std::size_t>(src)];
      if (conv.kind != OpKind::kConv2D && conv.kind != OpKind::kTConv2D) {
        throw std::invalid_argument("fold: batchnorm not after conv");
      }
      auto* bn = dynamic_cast<nn::BatchNorm*>(node.layer.get());
      const std::int64_t co = bn->channels();
      std::vector<float> scale(static_cast<std::size_t>(co));
      for (std::int64_t c = 0; c < co; ++c) {
        scale[static_cast<std::size_t>(c)] =
            bn->gamma()[c] / std::sqrt(bn->running_var()[c] + bn->epsilon());
      }
      // weights layout [..][Cout]: scale innermost dimension.
      for (std::int64_t i = 0; i < conv.weights.numel(); i += co) {
        for (std::int64_t c = 0; c < co; ++c) {
          conv.weights[i + c] *= scale[static_cast<std::size_t>(c)];
        }
      }
      for (std::int64_t c = 0; c < co; ++c) {
        conv.bias[c] = (conv.bias[c] - bn->running_mean()[c]) *
                           scale[static_cast<std::size_t>(c)] +
                       bn->beta()[c];
      }
      fop_of[id] = src;
    } else if (type == "relu") {
      const int src = fop_of[static_cast<std::size_t>(node.inputs[0])];
      FOp& producer = fg.ops[static_cast<std::size_t>(src)];
      if (producer.kind != OpKind::kConv2D && producer.kind != OpKind::kTConv2D) {
        throw std::invalid_argument("fold: relu not after conv");
      }
      producer.relu = true;
      fop_of[id] = src;
    } else if (type == "dropout" || type == "softmax") {
      fop_of[id] = fop_of[static_cast<std::size_t>(node.inputs[0])];
    } else if (type == "maxpool2d") {
      emit(id, OpKind::kMaxPool2D);
    } else if (type == "concat") {
      emit(id, OpKind::kConcat);
    } else {
      throw std::invalid_argument("fold: unsupported layer type " + type);
    }
  }
  fg.output_op = fop_of[static_cast<std::size_t>(graph.output_id())];
  return fg;
}

}  // namespace

FGraph fold(nn::Graph& graph) { return fold_graph(graph, false); }

FGraph fold(std::unique_ptr<nn::Graph> graph) {
  return fold_graph(*graph, true);
}

}  // namespace seneca::quant
