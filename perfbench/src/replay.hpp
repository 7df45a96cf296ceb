#pragma once
// Traced-run replay of served frames, single-threaded, after the measured
// window: once through dpu::DpuCoreSim::run (with an arena, as a VART
// worker runs it) and once layer by layer through the public
// quant::kernels entry points, so each XModel layer's predicted cycles sit
// beside its measured host time. The layer-by-layer pass is a copy of
// DpuCoreSim::run's loop, so the quant.* figures time that copy. Both
// replays must reproduce the bytes the server returned.

#include <cstdint>
#include <string>
#include <vector>

#include "dpu/xmodel.hpp"
#include "trace.hpp"

namespace seneca::perfbench {

struct LayerRow {
  std::string name;
  std::string kind;         // conv / tconv / pool / concat / const
  double predicted_cycles = 0.0;  // XModel::layer_latency_cycles, 1 sharer
  double measured_us = 0.0;       // median over replayed frames
  std::int64_t macs = 0;
  bool acc32 = true;  // kernels::acc32_safe; false = int64 scalar fallback
};

struct ReplayReport {
  bool bytes_match = true;  // both replays reproduced the served bytes
  int frames = 0;
  double sim_ms_p50 = 0.0;  // DpuCoreSim::run, ms per frame
  // Per-frame sums over layers of one kind, median over frames.
  double conv_ms = 0.0;
  double tconv_ms = 0.0;
  double pool_concat_ms = 0.0;
  double conv_gmac_per_s = 0.0;  // conv MACs per frame / conv_ms
  int acc64_layers = 0;
  std::vector<LayerRow> layers;
};

/// Replays `inputs[i]` (expecting `served[i]`) round-robin for about
/// `budget_s` seconds. Spans go under `parent` when traced.
ReplayReport replay(const dpu::XModel& model,
                    const std::vector<tensor::TensorI8>& inputs,
                    const std::vector<tensor::TensorI8>& served,
                    double budget_s, Tracer* tracer, std::uint32_t parent);

/// Human-readable per-layer table (predicted cycles beside measured µs),
/// slowest layers first.
std::string format_layer_table(const ReplayReport& report);

}  // namespace seneca::perfbench
