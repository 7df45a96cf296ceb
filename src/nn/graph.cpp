#include "nn/graph.hpp"

#include <stdexcept>

#include "util/io.hpp"

namespace seneca::nn {

int Graph::add_input(const std::string& name, Shape shape) {
  if (input_id_ != -1) throw std::logic_error("Graph: input already declared");
  Node node;
  node.name = name;
  node.shape = shape;
  nodes_.push_back(std::move(node));
  input_id_ = static_cast<int>(nodes_.size()) - 1;
  return input_id_;
}

int Graph::add(const std::string& name, std::unique_ptr<Layer> layer,
               std::vector<int> inputs) {
  if (inputs.empty()) throw std::invalid_argument("Graph::add: no inputs");
  std::vector<Shape> in_shapes;
  in_shapes.reserve(inputs.size());
  for (int id : inputs) {
    if (id < 0 || id >= static_cast<int>(nodes_.size())) {
      throw std::invalid_argument("Graph::add: bad input id for " + name);
    }
    in_shapes.push_back(nodes_[static_cast<std::size_t>(id)].shape);
  }
  Node node;
  node.name = name;
  node.shape = layer->output_shape(in_shapes);
  node.layer = std::move(layer);
  node.inputs = std::move(inputs);
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

void Graph::set_output(int node_id) {
  if (node_id < 0 || node_id >= static_cast<int>(nodes_.size())) {
    throw std::invalid_argument("Graph::set_output: bad node id");
  }
  output_id_ = node_id;
}

const TensorF& Graph::forward(const TensorF& input, bool training) {
  if (input_id_ == -1 || output_id_ == -1) {
    throw std::logic_error("Graph::forward: graph not finalized");
  }
  if (input.shape() != nodes_[static_cast<std::size_t>(input_id_)].shape) {
    throw std::invalid_argument(
        "Graph::forward: input shape " + input.shape().to_string() +
        " != declared " + nodes_[static_cast<std::size_t>(input_id_)].shape.to_string());
  }
  activations_.resize(nodes_.size());
  activations_[static_cast<std::size_t>(input_id_)] = input;

  // Nodes are added in topological order by construction.
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    Node& node = nodes_[id];
    if (!node.layer) continue;
    std::vector<const TensorF*> ins;
    ins.reserve(node.inputs.size());
    for (int in_id : node.inputs) {
      ins.push_back(&activations_[static_cast<std::size_t>(in_id)]);
    }
    TensorF& out = activations_[id];
    if (out.shape() != node.shape) out = TensorF(node.shape);
    node.layer->forward(ins, out, training);
  }
  return activations_[static_cast<std::size_t>(output_id_)];
}

void Graph::backward(const TensorF& grad_output) {
  if (activations_.size() != nodes_.size()) {
    throw std::logic_error("Graph::backward: no forward pass recorded");
  }
  grads_.resize(nodes_.size());
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    if (grads_[id].shape() != nodes_[id].shape) {
      grads_[id] = TensorF(nodes_[id].shape, 0.f);
    } else {
      grads_[id].fill(0.f);
    }
  }
  grads_[static_cast<std::size_t>(output_id_)] = grad_output;

  for (std::size_t idx = nodes_.size(); idx-- > 0;) {
    Node& node = nodes_[idx];
    if (!node.layer) continue;
    std::vector<const TensorF*> ins;
    std::vector<TensorF*> grad_ins;
    ins.reserve(node.inputs.size());
    grad_ins.reserve(node.inputs.size());
    for (int in_id : node.inputs) {
      ins.push_back(&activations_[static_cast<std::size_t>(in_id)]);
      grad_ins.push_back(&grads_[static_cast<std::size_t>(in_id)]);
    }
    node.layer->backward(ins, activations_[idx], grads_[idx], grad_ins);
  }
}

void Graph::zero_grad() {
  for (Param* p : params()) p->grad().fill(0.f);
}

std::vector<Param*> Graph::params() {
  std::vector<Param*> out;
  for (auto& node : nodes_) {
    if (!node.layer) continue;
    for (Param* p : node.layer->params()) out.push_back(p);
  }
  return out;
}

std::int64_t Graph::num_parameters() {
  std::int64_t n = 0;
  for (Param* p : params()) n += p->value.numel();
  return n;
}

namespace {
/// Every serializable tensor of the graph: trainable parameters plus layer
/// state (batch-norm running statistics), in deterministic order.
std::vector<std::pair<std::string, TensorF*>> named_tensors(
    std::vector<Graph::Node>& nodes) {
  std::vector<std::pair<std::string, TensorF*>> named;
  for (auto& node : nodes) {
    if (!node.layer) continue;
    for (Param* p : node.layer->params()) {
      named.emplace_back(node.name + "." + p->name, &p->value);
    }
    for (auto& [name, tensor] : node.layer->state()) {
      named.emplace_back(node.name + "." + name, tensor);
    }
  }
  return named;
}
}  // namespace

void Graph::save_weights(const std::filesystem::path& path) {
  util::BinaryWriter w;
  w.str("SENECAW2");
  auto named = named_tensors(nodes_);
  w.u32(static_cast<std::uint32_t>(named.size()));
  for (auto& [name, tensor] : named) {
    w.str(name);
    w.u32(static_cast<std::uint32_t>(tensor->shape().rank()));
    for (std::size_t d = 0; d < tensor->shape().rank(); ++d) {
      w.u64(static_cast<std::uint64_t>(tensor->shape()[d]));
    }
    w.bytes(tensor->data(), sizeof(float) * static_cast<std::size_t>(tensor->numel()));
  }
  util::write_file(path, w.data().data(), w.data().size());
}

void Graph::load_weights(const std::filesystem::path& path) {
  util::BinaryReader r(util::read_file(path));
  if (r.str() != "SENECAW2") {
    throw std::runtime_error("load_weights: bad magic in " + path.string());
  }
  const std::uint32_t count = r.u32();
  auto named = named_tensors(nodes_);
  if (named.size() != count) {
    throw std::runtime_error("load_weights: tensor count mismatch");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = r.str();
    if (name != named[i].first) {
      throw std::runtime_error("load_weights: name mismatch: " + name +
                               " vs " + named[i].first);
    }
    TensorF* tensor = named[i].second;
    const std::uint32_t rank = r.u32();
    if (rank != tensor->shape().rank()) {
      throw std::runtime_error("load_weights: rank mismatch for " + name);
    }
    for (std::uint32_t d = 0; d < rank; ++d) {
      if (static_cast<std::int64_t>(r.u64()) != tensor->shape()[d]) {
        throw std::runtime_error("load_weights: shape mismatch for " + name);
      }
    }
    r.bytes(tensor->data(), sizeof(float) * static_cast<std::size_t>(tensor->numel()));
  }
}

}  // namespace seneca::nn
