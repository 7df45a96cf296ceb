#pragma once
// Functional + timing simulator of one DPU core executing an xmodel.
//
// Functional semantics are defined to be bit-exact with the quant::QGraph
// reference executor (tests/dpu_* pin this); timing comes from the compiled
// per-layer cycle/byte annotations. The dual-core system view (job queues,
// thread scaling, bandwidth sharing) lives in src/runtime.

#include <memory>
#include <vector>

#include "dpu/xmodel.hpp"
#include "quant/kernels.hpp"
#include "quant/qgraph.hpp"

namespace seneca::dpu {

using tensor::TensorI8;

struct RunResult {
  TensorI8 output;       // INT8 logit maps at output_fix_pos
  double cycles = 0.0;   // end-to-end latency on this core
  double seconds = 0.0;  // at the arch clock
};

class DpuCoreSim {
 public:
  /// The xmodel must outlive the simulator, weights blob unchanged: the
  /// kernels read the weights in place there. Construction packs each
  /// conv/tconv layer's weights for the SIMD kernels
  /// (quant::kernels::pack_weights), once: run packs nothing.
  explicit DpuCoreSim(const XModel* model);

  const XModel& model() const { return *model_; }

  /// Executes one inference. `bw_sharers` is the number of cores currently
  /// contending for DDR bandwidth (affects LOAD/SAVE latency only). With an
  /// `arena`, per-layer activations recycle its slabs across frames, and in
  /// steady state only the returned output takes a fresh one. A run still
  /// allocates its per-layer activation and fix-pos vectors, and each
  /// x86 conv/tconv call its input plane. The arena is
  /// single-threaded state — one per executing thread, never shared.
  RunResult run(const TensorI8& input, int bw_sharers = 1,
                tensor::TensorArena* arena = nullptr) const;

 private:
  const XModel* model_;
  // Per-layer payloads decoded once at construction. Their weights borrow
  // the xmodel's blob, where the reference kernels, NEON and the debug
  // interval check read them; only the biases are copied.
  std::vector<quant::QOp> payloads_;
  // Per conv/tconv layer, the blob's weights in the x86 SIMD operand
  // layout (empty wherever x86 SIMD does not run), read-only and shared by
  // every thread running this simulator: about the int8 weights' size
  // again as quads (8.8 MB on 16M at 64x64), twice that as pairs.
  std::vector<quant::kernels::PackedWeights> packs_;
  // Folded feature maps of kConst layers, rebuilt from the weights blob.
  std::vector<TensorI8> consts_;
};

}  // namespace seneca::dpu
