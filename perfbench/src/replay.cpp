#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench_math.hpp"
#include "dpu/core_sim.hpp"
#include "quant/kernels.hpp"
#include "tensor/arena.hpp"

namespace seneca::perfbench {

namespace {

using dpu::XLayer;
using tensor::TensorI8;

/// Replay spans cover only the first few frames: enough to inspect a
/// frame's timeline without a trace file the size of the replay.
constexpr int kSpanFrames = 4;

bool same_bytes(const TensorI8& a, const TensorI8& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel())) == 0;
}

const char* kind_name(XLayer::Kind k) {
  switch (k) {
    case XLayer::Kind::kConv: return "conv";
    case XLayer::Kind::kTConv: return "tconv";
    case XLayer::Kind::kPool: return "pool";
    case XLayer::Kind::kConcat: return "concat";
    case XLayer::Kind::kConst: return "const";
  }
  return "?";
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The layer payloads as quant::QOps, decoded from the XModel blobs.
/// decode() and run_layers() copy DpuCoreSim::run's payload decode and
/// layer loop (src/dpu/core_sim.cpp), because the simulator offers no
/// per-layer timing hook: a change to layer semantics in src/dpu has to be
/// mirrored here, and the byte comparison against the served output is
/// what catches a copy that drifted.
struct Payloads {
  std::vector<quant::QOp> ops;
  std::vector<TensorI8> consts;
};

Payloads decode(const dpu::XModel& model) {
  Payloads p;
  p.ops.resize(model.layers.size());
  p.consts.resize(model.layers.size());
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    const XLayer& layer = model.layers[i];
    quant::QOp& op = p.ops[i];
    op.name = layer.name;
    op.out_shape = layer.out_shape;
    op.fix_pos_out = layer.fix_pos_out;
    op.fix_pos_w = layer.fix_pos_w;
    op.kernel = layer.kernel;
    op.relu = layer.relu;
    const auto w0 = model.weights.begin() + layer.weight_offset;
    if (layer.kind == XLayer::Kind::kConst) {
      p.consts[i] = TensorI8(layer.out_shape);
      std::copy(w0, w0 + layer.weight_count, p.consts[i].data());
      continue;
    }
    if (layer.weight_count > 0) {
      const std::int64_t co = layer.out_shape[2];
      const std::int64_t ci =
          layer.weight_count / (layer.kernel * layer.kernel * co);
      op.weights = TensorI8(tensor::Shape{layer.kernel, layer.kernel, ci, co});
      std::copy(w0, w0 + layer.weight_count, op.weights.data());
      const auto b0 = model.biases.begin() + layer.bias_offset;
      op.bias.assign(b0, b0 + layer.bias_count);
    }
  }
  return p;
}

/// One frame through the kernels, layer by layer; `layer_us` receives each
/// layer's host time.
TensorI8 run_layers(const dpu::XModel& model, const Payloads& p,
                    const TensorI8& input, tensor::TensorArena& arena,
                    std::vector<double>& layer_us, Tracer* tracer,
                    std::uint32_t parent) {
  const std::size_t n = model.layers.size();
  std::vector<TensorI8> acts(n);
  std::vector<int> fps(n, 0);
  auto input_of = [&](int id) -> const TensorI8& {
    if (id < 0) return input;
    const auto i = static_cast<std::size_t>(id);
    return model.layers[i].kind == XLayer::Kind::kConst ? p.consts[i] : acts[i];
  };
  auto fp_of = [&](int id) {
    return id < 0 ? model.input_fix_pos : fps[static_cast<std::size_t>(id)];
  };
  for (std::size_t i = 0; i < n; ++i) {
    const XLayer& layer = model.layers[i];
    if (layer.kind == XLayer::Kind::kConst) {
      fps[i] = layer.fix_pos_out;
      layer_us[i] = 0.0;
      continue;
    }
    const quant::QOp& op = p.ops[i];
    TensorI8 out = arena.acquire(layer.out_shape);
    Tracer::Scope span(tracer, std::string("quant.") + kind_name(layer.kind),
                       kReplayTrace, parent);
    span.attr("layer", static_cast<double>(i));
    span.attr("predicted_cycles", model.layer_latency_cycles(layer, 1));
    const Clock::time_point t0 = Clock::now();
    switch (layer.kind) {
      case XLayer::Kind::kConv:
        quant::kernels::conv2d(input_of(layer.inputs[0]), op, out,
                               fp_of(layer.inputs[0]));
        break;
      case XLayer::Kind::kTConv:
        quant::kernels::tconv2d(input_of(layer.inputs[0]), op, out,
                                fp_of(layer.inputs[0]), &arena);
        break;
      case XLayer::Kind::kPool:
        quant::kernels::maxpool2d(input_of(layer.inputs[0]), out);
        break;
      case XLayer::Kind::kConcat:
        if (layer.materialized) {
          std::int64_t chan_off = 0;
          const std::int64_t co = layer.out_shape[2];
          for (int src : layer.inputs) {
            const TensorI8& in = input_of(src);
            const std::int64_t ci = in.shape()[2];
            const int shift = fp_of(src) - layer.fix_pos_out;
            for (std::int64_t px = 0; px < in.numel() / ci; ++px) {
              quant::kernels::requant_row(in.data() + px * ci,
                                          out.data() + px * co + chan_off, ci,
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
        break;
    }
    layer_us[i] = std::chrono::duration<double, std::micro>(Clock::now() - t0)
                      .count();
    acts[i] = std::move(out);
    fps[i] = layer.kind == XLayer::Kind::kPool ? fp_of(layer.inputs[0])
                                               : layer.fix_pos_out;
  }
  const auto out_id = static_cast<std::size_t>(model.output_layer);
  TensorI8 result = model.layers[out_id].kind == XLayer::Kind::kConst
                        ? p.consts[out_id]
                        : std::move(acts[out_id]);
  for (auto& t : acts) {
    if (t.numel() > 0) arena.release(std::move(t));
  }
  return result;
}

}  // namespace

ReplayReport replay(const dpu::XModel& model,
                    const std::vector<TensorI8>& inputs,
                    const std::vector<TensorI8>& served, double budget_s,
                    Tracer* tracer, std::uint32_t parent) {
  ReplayReport rep;
  if (inputs.empty()) return rep;

  // Frames alternate between DpuCoreSim::run (with an arena, as one VART
  // worker runs it) and the layer-by-layer kernel replay, so both see the
  // same host conditions.
  const dpu::DpuCoreSim sim(&model);
  const Payloads payloads = decode(model);
  const std::size_t n = model.layers.size();
  tensor::TensorArena sim_arena, layer_arena;
  std::vector<double> sim_ms, conv_ms, tconv_ms, pool_concat_ms;
  std::vector<std::vector<double>> per_layer(n);
  std::vector<double> layer_us(n, 0.0);
  const Clock::time_point start = Clock::now();
  for (int f = 0; f == 0 || ms_since(start) < budget_s * 1e3; ++f) {
    const std::size_t i = static_cast<std::size_t>(f) % inputs.size();
    Tracer* frame_tracer = f < kSpanFrames ? tracer : nullptr;
    {
      Tracer::Scope span(frame_tracer, "dpu.core_sim.run", kReplayTrace, parent);
      const Clock::time_point t0 = Clock::now();
      const dpu::RunResult r = sim.run(inputs[i], 1, &sim_arena);
      sim_ms.push_back(ms_since(t0));
      rep.bytes_match = rep.bytes_match && same_bytes(r.output, served[i]);
    }
    Tracer::Scope frame(frame_tracer, "replay.layers", kReplayTrace, parent);
    const TensorI8 out = run_layers(model, payloads, inputs[i], layer_arena,
                                    layer_us, frame_tracer, frame.id());
    rep.bytes_match = rep.bytes_match && same_bytes(out, served[i]);
    double conv = 0.0, tconv = 0.0, other = 0.0;
    for (std::size_t l = 0; l < n; ++l) {
      per_layer[l].push_back(layer_us[l]);
      switch (model.layers[l].kind) {
        case XLayer::Kind::kConv: conv += layer_us[l]; break;
        case XLayer::Kind::kTConv: tconv += layer_us[l]; break;
        default: other += layer_us[l]; break;
      }
    }
    conv_ms.push_back(conv / 1e3);
    tconv_ms.push_back(tconv / 1e3);
    pool_concat_ms.push_back(other / 1e3);
    rep.frames = f + 1;
  }
  rep.sim_ms_p50 = percentile(sim_ms, 0.5);
  rep.conv_ms = percentile(conv_ms, 0.5);
  rep.tconv_ms = percentile(tconv_ms, 0.5);
  rep.pool_concat_ms = percentile(pool_concat_ms, 0.5);

  std::int64_t conv_macs = 0;
  for (std::size_t l = 0; l < n; ++l) {
    const XLayer& layer = model.layers[l];
    LayerRow row;
    row.name = layer.name;
    row.kind = kind_name(layer.kind);
    row.predicted_cycles = model.layer_latency_cycles(layer, 1);
    row.measured_us = percentile(per_layer[l], 0.5);
    row.macs = layer.macs;
    if (layer.kind == XLayer::Kind::kConv || layer.kind == XLayer::Kind::kTConv) {
      const quant::QOp& op = payloads.ops[l];
      row.acc32 = quant::kernels::acc32_safe(op, op.weights.shape()[2]);
      rep.acc64_layers += row.acc32 ? 0 : 1;
    }
    if (layer.kind == XLayer::Kind::kConv) conv_macs += layer.macs;
    rep.layers.push_back(row);
  }
  rep.conv_gmac_per_s =
      rep.conv_ms > 0.0 ? static_cast<double>(conv_macs) / (rep.conv_ms * 1e6)
                        : 0.0;
  return rep;
}

std::string format_layer_table(const ReplayReport& report) {
  std::vector<const LayerRow*> rows;
  double total_us = 0.0;
  for (const auto& r : report.layers) {
    rows.push_back(&r);
    total_us += r.measured_us;
  }
  std::sort(rows.begin(), rows.end(), [](const LayerRow* a, const LayerRow* b) {
    return a->measured_us > b->measured_us;
  });
  std::string out =
      "layer                      kind    pred_cycles   meas_us  share  "
      "GMAC/s  acc\n";
  char line[160];
  for (const LayerRow* r : rows) {
    const double gmacs =
        r->measured_us > 0.0 ? static_cast<double>(r->macs) / (r->measured_us * 1e3)
                             : 0.0;
    std::snprintf(line, sizeof line, "%-26.26s %-6s %12.0f %9.1f %5.1f%% %7.2f  %s\n",
                  r->name.c_str(), r->kind.c_str(), r->predicted_cycles,
                  r->measured_us,
                  total_us > 0.0 ? 100.0 * r->measured_us / total_us : 0.0,
                  gmacs, r->acc32 ? "i32" : "i64");
    out += line;
  }
  return out;
}

}  // namespace seneca::perfbench
