#pragma once
// Folded float inference IR (the quantizer's working representation).
//
// fold() rewrites a trained nn::Graph the way the Vitis AI quantizer does
// before weight conversion (§III-D): batch-norm layers are folded into the
// preceding convolution (using running statistics), ReLUs are fused into the
// producing op, dropout is removed, and the trailing softmax is dropped
// (argmax is monotonic in the logits; the DPU returns INT8 logit maps and
// the host applies softmax/argmax, mirroring the VART deployment).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/graph.hpp"
#include "tensor/tensor.hpp"

namespace seneca::quant {

using tensor::Shape;
using tensor::TensorF;

enum class OpKind {
  kInput,
  kConv2D,    // stride-1 same conv (+optional fused ReLU)
  kTConv2D,   // stride-2 k=3 transposed conv (+optional fused ReLU)
  kMaxPool2D, // 2x2/2
  kConcat,    // channel concat of two inputs
};

struct FOp {
  OpKind kind = OpKind::kInput;
  std::string name;
  std::vector<int> inputs;  // op ids
  Shape out_shape;
  // Conv/TConv payload:
  TensorF weights;  // [K][K][Cin][Cout]
  TensorF bias;     // [Cout]
  std::int64_t kernel = 0;
  bool relu = false;
};

struct FGraph {
  std::vector<FOp> ops;
  int input_op = -1;
  int output_op = -1;

  /// Forward pass; if `activations` is non-null it receives every op's
  /// output (indexed by op id) for calibration.
  TensorF forward(const TensorF& input,
                  std::vector<TensorF>* activations = nullptr) const;
};

/// Folds a trained graph into the inference IR. The graph must follow the
/// SENECA U-Net op vocabulary (conv/bn/relu/pool/dropout/tconv/concat/
/// softmax); anything else throws std::invalid_argument. This form copies
/// every weight, so the graph stays usable as an FP32 model.
FGraph fold(nn::Graph& graph);

/// The same fold, consuming the graph: each conv/tconv weight and bias
/// moves into its FOp and batch norm folds into it in place, so the
/// weights exist once in FP32, not twice. Same result as fold(*graph).
FGraph fold(std::unique_ptr<nn::Graph> graph);

// Standalone float kernels shared by fold()'s executor (and tests).
void conv2d_forward(const TensorF& x, const TensorF& w, const TensorF& b,
                    TensorF& out, bool relu);
void tconv2d_forward(const TensorF& x, const TensorF& w, const TensorF& b,
                     TensorF& out, bool relu);
void maxpool2d_forward(const TensorF& x, TensorF& out);
void concat_forward(const TensorF& a, const TensorF& b, TensorF& out);

}  // namespace seneca::quant
