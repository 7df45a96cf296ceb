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
  /// The xmodel must outlive the simulator. Construction decodes every
  /// layer's weights and packs each conv/tconv layer's for the SIMD
  /// kernels (quant::kernels::pack_weights), once: run packs nothing.
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
  // Per-layer weight/bias views materialized once at construction.
  std::vector<quant::QOp> payloads_;
  // Per conv/tconv layer, payloads_' weights in the SIMD kernel's operand
  // layout. The xmodel's weights never change, and the packs are read-only
  // after construction, so every thread running this simulator shares them.
  // The x86 quad format's packs take about the int8 weights' size again
  // (8.7 MB on 16M at 64x64), the pair format's twice that.
  std::vector<quant::kernels::PackedWeights> packs_;
  // Folded feature maps of kConst layers, rebuilt from the weights blob.
  std::vector<TensorI8> consts_;
};

}  // namespace seneca::dpu
