// SENECA-Prove (DESIGN.md §10): every check re-derives an invariant the
// pass pipeline (lowering.cpp / optimize.cpp) is supposed to have
// established, from nothing but the XModel and its arch description, so a
// mutation anywhere between Residency and emit_xmodel surfaces as a
// structured Finding instead of silent garbage on the DPU.

#include "dpu/verify.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "dpu/compiler.hpp"
#include "dpu/passes.hpp"
#include "quant/kernels.hpp"

namespace seneca::dpu {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

namespace {

using quant::Interval;

std::int64_t ceil_div64(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// DDR footprint of an activation tensor (mirror of ir::act_tensor_bytes):
/// channel-major banks pad C up to act_bank_channels per pixel.
std::int64_t act_bytes(const Shape& s, const DpuArch& arch) {
  const std::int64_t c = s[s.rank() - 1];
  return (s.numel() / c) * ceil_div64(c, arch.act_bank_channels) *
         arch.act_bank_channels;
}

/// Weight+bias stream footprint (mirror of ir::padded_weight_bytes).
std::int64_t weight_stream_bytes(const XLayer& l, const DpuArch& arch) {
  if (l.weight_count == 0) return 0;
  const std::int64_t co = l.out_shape[2];
  const std::int64_t ci = l.weight_count / (l.kernel * l.kernel * co);
  return l.kernel * l.kernel * ceil_div64(ci, arch.input_channel_parallel) *
             arch.input_channel_parallel *
             ceil_div64(co, arch.output_channel_parallel) *
             arch.output_channel_parallel +
         4 * l.bias_count;
}

/// Which transfers a tiled layer pipelines against compute (mirror of
/// TimingPass::overlapped).
bool overlapped(const XLayer& l, const Instr& ins) {
  switch (l.tile_mode) {
    case 1:  // row tiles
      return ins.opcode == Opcode::kSave ||
             (ins.opcode == Opcode::kLoad && ins.tensor_id != -2);
    case 2:  // output-channel tiles
      return ins.opcode == Opcode::kSave ||
             (ins.opcode == Opcode::kLoad && ins.tensor_id == -2);
    default:
      return false;
  }
}

/// requant_out_interval with the corrupted-payload guards the reference
/// helper does not need: out-of-domain shifts or accumulators whose left
/// shift would overflow int64 fall back to the full int8 domain, which is
/// always a sound output interval.
Interval safe_requant(Interval acc, int shift, bool relu) {
  if (shift < -31 || shift > 62) return {-128, 127};
  if (shift < 0) {
    const std::int64_t lim = std::numeric_limits<std::int64_t>::max() >> -shift;
    if (acc.hi > lim || acc.lo < -lim) return {-128, 127};
  }
  return quant::requant_out_interval(acc, shift, relu);
}

constexpr int kMaxFixPos = 31;  // signed shift-field domain of the requant unit

struct RangeResult {
  std::vector<RangeProof> proofs;
  std::vector<Finding> findings;
};

class Checker {
 public:
  Checker(const XModel& m, const VerifyOptions& opts) : m_(m), opts_(opts) {}

  std::vector<Finding> run() {
    check_arch_and_model();
    for (std::size_t i = 0; i < m_.layers.size(); ++i) {
      check_layer_structure(static_cast<int>(i));
    }
    // Structural damage (dangling ids, bad shapes, blob overruns) makes the
    // semantic checks meaningless and their indexing unsafe; report it and
    // stop here.
    if (has_errors(findings_)) return std::move(findings_);

    build_consumers();
    for (std::size_t i = 0; i < m_.layers.size(); ++i) {
      check_residency(static_cast<int>(i));
      check_concat(static_cast<int>(i));
      check_schedule(static_cast<int>(i));
    }
    if (end_count_ != 1) {
      add(Severity::kError, -1, -1, "schedule",
          "program has " + std::to_string(end_count_) +
              " kEnd terminators, expected exactly 1 at the end of the "
              "last layer");
    }

    RangeResult rr = run_range(m_);
    for (auto& f : rr.findings) findings_.push_back(std::move(f));

    if (opts_.check_cycles) {
      for (std::size_t i = 0; i < m_.layers.size(); ++i) {
        check_cycles(static_cast<int>(i));
      }
    }
    return std::move(findings_);
  }

  static RangeResult run_range(const XModel& m);

 private:
  void add(Severity sev, int layer, int instr, const char* check,
           std::string msg) {
    Finding f;
    f.severity = sev;
    f.layer = layer;
    f.instr = instr;
    f.check = check;
    f.message = std::move(msg);
    findings_.push_back(std::move(f));
  }

  const Shape& shape_of(int id) const {
    return id < 0 ? m_.input_shape
                  : m_.layers[static_cast<std::size_t>(id)].out_shape;
  }

  const XLayer& layer(int id) const {
    return m_.layers[static_cast<std::size_t>(id)];
  }

  int n_layers() const { return static_cast<int>(m_.layers.size()); }

  static bool shape_ok(const Shape& s) {
    if (s.rank() != 3) return false;
    for (std::size_t d = 0; d < s.rank(); ++d) {
      if (s[d] <= 0) return false;
    }
    return true;
  }

  // --- Stage 1: structure ---------------------------------------------------

  void check_arch_and_model() {
    const DpuArch& a = m_.arch;
    if (a.pixel_parallel <= 0 || a.input_channel_parallel <= 0 ||
        a.output_channel_parallel <= 0 || a.act_bank_channels <= 0 ||
        a.onchip_bytes <= 0) {
      add(Severity::kError, -1, -1, "structure",
          "arch parallelism/memory parameters must be positive");
    }
    if (!(a.ddr_bytes_per_cycle_total > 0.0) || a.instr_overhead_cycles < 0 ||
        a.job_overhead_cycles < 0) {
      add(Severity::kError, -1, -1, "structure",
          "arch timing parameters out of domain");
    }
    if (m_.layers.empty()) {
      add(Severity::kError, -1, -1, "structure", "model has no layers");
      return;
    }
    if (!shape_ok(m_.input_shape)) {
      add(Severity::kError, -1, -1, "structure",
          "input shape must be rank-3 HWC with positive extents");
    }
    if (m_.output_layer < 0 || m_.output_layer >= n_layers()) {
      add(Severity::kError, -1, -1, "structure",
          "output_layer " + std::to_string(m_.output_layer) + " out of range");
    } else if (m_.output_fix_pos !=
               layer(m_.output_layer).fix_pos_out) {
      add(Severity::kError, -1, -1, "structure",
          "model output_fix_pos " + std::to_string(m_.output_fix_pos) +
              " != output layer fix_pos_out " +
              std::to_string(layer(m_.output_layer).fix_pos_out));
    }
  }

  void check_layer_structure(int i) {
    const XLayer& l = layer(i);
    if (static_cast<std::uint8_t>(l.kind) >
        static_cast<std::uint8_t>(XLayer::Kind::kConst)) {
      add(Severity::kError, i, -1, "structure", "invalid layer kind");
      return;
    }
    if (!shape_ok(l.out_shape)) {
      add(Severity::kError, i, -1, "structure",
          "output shape must be rank-3 HWC with positive extents");
      return;
    }

    // Arity and edge sanity: executors evaluate layers in index order, so
    // every input must reference an earlier layer (or -1, the network
    // input); violations are dangling references or cycles.
    const std::size_t arity = l.kind == XLayer::Kind::kConcat ? 2
                              : l.kind == XLayer::Kind::kConst ? 0
                                                               : 1;
    if (l.inputs.size() != arity) {
      add(Severity::kError, i, -1, "structure",
          "expected " + std::to_string(arity) + " inputs, got " +
              std::to_string(l.inputs.size()));
      return;
    }
    for (int in : l.inputs) {
      if (in < -1 || in >= i) {
        add(Severity::kError, i, -1, "structure",
            "input " + std::to_string(in) +
                (in >= i ? " is not yet defined (cycle or forward reference)"
                         : " is dangling"));
        return;
      }
    }
    if (l.input_resident.size() != l.inputs.size()) {
      add(Severity::kError, i, -1, "structure",
          "input_resident arity " + std::to_string(l.input_resident.size()) +
              " != input count " + std::to_string(l.inputs.size()));
      return;
    }

    // Weight/bias blob slices.
    const auto slice_ok = [&](std::int64_t off, std::int64_t count,
                              std::int64_t blob, const char* what) {
      if (off < 0 || count < 0 || off + count > blob) {
        add(Severity::kError, i, -1, "blob-bounds",
            std::string(what) + " slice [" + std::to_string(off) + ", " +
                std::to_string(off + count) + ") overruns blob of " +
                std::to_string(blob));
        return false;
      }
      return true;
    };
    const bool w_ok =
        slice_ok(l.weight_offset, l.weight_count,
                 static_cast<std::int64_t>(m_.weights.size()), "weight");
    const bool b_ok =
        slice_ok(l.bias_offset, l.bias_count,
                 static_cast<std::int64_t>(m_.biases.size()), "bias");

    if (l.kind == XLayer::Kind::kConv || l.kind == XLayer::Kind::kTConv) {
      if (l.kernel < 1) {
        add(Severity::kError, i, -1, "structure", "bad kernel size");
        return;
      }
      const std::int64_t ci = shape_of(l.inputs[0])[2];
      // Corrupted fields can overflow k*k*ci*co; no real weight count can.
      std::int64_t want = 0;
      const bool fits = !__builtin_mul_overflow(l.kernel, l.kernel, &want) &&
                        !__builtin_mul_overflow(want, ci, &want) &&
                        !__builtin_mul_overflow(want, l.out_shape[2], &want);
      if (w_ok && (!fits || l.weight_count != want)) {
        add(Severity::kError, i, -1, "structure",
            "weight count " + std::to_string(l.weight_count) +
                " does not match k*k*ci*co = " +
                (fits ? std::to_string(want) : std::string("(overflow)")));
      }
      if (b_ok && l.bias_count != l.out_shape[2]) {
        add(Severity::kError, i, -1, "structure",
            "bias count " + std::to_string(l.bias_count) +
                " does not match out channels " +
                std::to_string(l.out_shape[2]));
      }
    } else if (l.kind == XLayer::Kind::kConst) {
      if (w_ok && l.weight_count != l.out_shape.numel()) {
        add(Severity::kError, i, -1, "structure",
            "const payload count " + std::to_string(l.weight_count) +
                " does not match output numel " +
                std::to_string(l.out_shape.numel()));
      }
    } else if (l.weight_count != 0 || l.bias_count != 0) {
      add(Severity::kError, i, -1, "structure",
          "pool/concat layer carries a weight/bias slice");
    }

    // Tiling attributes.
    if (l.tile_mode > 2 || l.tile_count < 1 ||
        (l.tile_mode == 0) != (l.tile_count == 1)) {
      add(Severity::kError, i, -1, "structure",
          "inconsistent tiling: mode " + std::to_string(l.tile_mode) +
              ", count " + std::to_string(l.tile_count));
    } else if (l.tile_mode != 0 && l.kind != XLayer::Kind::kConv &&
               l.kind != XLayer::Kind::kTConv) {
      add(Severity::kError, i, -1, "structure",
          "only conv/tconv layers can be tiled");
    }

    for (std::size_t j = 0; j < l.instrs.size(); ++j) {
      if (static_cast<std::uint8_t>(l.instrs[j].opcode) >
              static_cast<std::uint8_t>(Opcode::kEnd) ||
          l.instrs[j].bytes < 0 || l.instrs[j].macs < 0) {
        add(Severity::kError, i, static_cast<int>(j), "structure",
            "invalid opcode or negative byte/mac count");
      }
    }
  }

  // --- Stage 2 --------------------------------------------------------------

  void build_consumers() {
    consumers_.assign(m_.layers.size(), {});
    for (std::size_t i = 0; i < m_.layers.size(); ++i) {
      for (int in : m_.layers[i].inputs) {
        if (in >= 0) {
          consumers_[static_cast<std::size_t>(in)].push_back(
              static_cast<int>(i));
        }
      }
    }
  }

  void check_residency(int i) {
    const XLayer& l = layer(i);
    for (std::size_t k = 0; k < l.inputs.size(); ++k) {
      if (!l.input_resident[k]) continue;
      const int src = l.inputs[k];
      if (src < 0) {
        add(Severity::kError, i, -1, "residency",
            "network input marked resident (it always arrives via LOAD)");
        continue;
      }
      const XLayer& p = layer(src);
      if (src != i - 1) {
        // The on-chip slot holds exactly the previous layer's output (a
        // producer may also SAVE a DDR copy for later skip consumers, but
        // the slot itself is recycled every layer): anything older has
        // been overwritten.
        add(Severity::kError, i, -1, "residency",
            "input " + std::to_string(k) + " marked resident but producer " +
                std::to_string(src) + " is not the previous layer (stale "
                "residency slot)");
      } else if (act_bytes(p.out_shape, m_.arch) > m_.arch.onchip_bytes / 2) {
        add(Severity::kError, i, -1, "residency",
            "resident input of " +
                std::to_string(act_bytes(p.out_shape, m_.arch)) +
                " bytes exceeds the on-chip activation budget");
      }
      if (p.kind == XLayer::Kind::kConst) {
        add(Severity::kError, i, -1, "residency",
            "kConst data lives in the weights blob and is never resident");
      }
    }
    if (l.output_resident) {
      const auto& cons = consumers_[static_cast<std::size_t>(i)];
      if (l.kind == XLayer::Kind::kConst) {
        add(Severity::kError, i, -1, "residency",
            "kConst layer marked output-resident");
      } else if (i == m_.output_layer) {
        add(Severity::kError, i, -1, "residency",
            "network output marked resident (it must be saved to DDR)");
      } else if (cons.size() != 1 || cons[0] != i + 1) {
        add(Severity::kError, i, -1, "residency",
            "output marked resident but its " + std::to_string(cons.size()) +
                " consumer(s) are not exactly the next layer; later "
                "consumers would read a freed slot");
      }
      if (act_bytes(l.out_shape, m_.arch) > m_.arch.onchip_bytes / 2) {
        add(Severity::kError, i, -1, "residency",
            "resident output of " +
                std::to_string(act_bytes(l.out_shape, m_.arch)) +
                " bytes exceeds the on-chip activation budget");
      }
    }
  }

  void check_concat(int i) {
    const XLayer& l = layer(i);

    // Producer side: output redirected into a concat buffer.
    if (l.concat_dst >= 0) {
      if (l.concat_dst <= i || l.concat_dst >= n_layers()) {
        add(Severity::kError, i, -1, "concat-region",
            "concat_dst " + std::to_string(l.concat_dst) +
                " is not a later layer");
        return;
      }
      const XLayer& dst = layer(l.concat_dst);
      if (dst.kind != XLayer::Kind::kConcat || !dst.materialized) {
        add(Severity::kError, i, -1, "concat-region",
            "concat_dst " + std::to_string(l.concat_dst) +
                " is not a materialized concat");
      }
      if (l.kind == XLayer::Kind::kConcat || l.kind == XLayer::Kind::kConst) {
        add(Severity::kError, i, -1, "concat-region",
            "concat/const layers cannot redirect their output");
      }
      const auto& cons = consumers_[static_cast<std::size_t>(i)];
      if (cons.size() != 1 || cons[0] != l.concat_dst) {
        add(Severity::kError, i, -1, "dataflow",
            "output redirected into layer " + std::to_string(l.concat_dst) +
                "'s buffer but consumed by " + std::to_string(cons.size()) +
                " layer(s); other consumers would read bytes that were "
                "never written");
      }
      if (l.concat_offset < 0 ||
          l.concat_offset + l.out_shape[2] > dst.out_shape[2]) {
        add(Severity::kError, i, -1, "concat-region",
            "redirected store channels [" + std::to_string(l.concat_offset) +
                ", " + std::to_string(l.concat_offset + l.out_shape[2]) +
                ") overrun the destination buffer of " +
                std::to_string(dst.out_shape[2]) + " channels");
      }
    }

    if (!l.materialized) return;
    if (l.kind != XLayer::Kind::kConcat) {
      add(Severity::kError, i, -1, "concat-region",
          "non-concat layer marked materialized");
      return;
    }

    std::int64_t total = 0;
    for (int in : l.inputs) total += shape_of(in)[2];
    if (total != l.out_shape[2]) {
      add(Severity::kError, i, -1, "concat-region",
          "input channels sum to " + std::to_string(total) +
              " but the buffer has " + std::to_string(l.out_shape[2]));
      return;
    }

    // Channel-coverage map of the assembled buffer: every channel must be
    // written exactly once, by either a redirected producer store or a
    // region LOAD at the pass-defined cumulative offset.
    std::vector<int> cover(static_cast<std::size_t>(l.out_shape[2]), 0);
    std::vector<bool> load_used(l.instrs.size(), false);
    std::int64_t expected_off = 0;
    for (std::size_t k = 0; k < l.inputs.size(); ++k) {
      const int src = l.inputs[k];
      const std::int64_t ch = shape_of(src)[2];
      const bool redirected = src >= 0 && layer(src).concat_dst == i;
      if (redirected != (l.input_resident[k] != 0)) {
        add(Severity::kError, i, -1, "residency",
            "materialized concat input " + std::to_string(k) +
                (redirected ? " redirected but not marked resident"
                            : " marked resident but its producer does not "
                              "redirect into this buffer"));
      }
      std::int64_t off = -1;
      if (redirected) {
        off = layer(src).concat_offset;
        if (off != expected_off) {
          add(Severity::kError, i, -1, "concat-region",
              "producer " + std::to_string(src) +
                  " stores at channel offset " + std::to_string(off) +
                  " but input " + std::to_string(k) + " occupies offset " +
                  std::to_string(expected_off) + " (swapped or shifted "
                  "concat offsets)");
        }
      } else {
        // Find this input's region LOAD.
        for (std::size_t j = 0; j < l.instrs.size(); ++j) {
          const Instr& ins = l.instrs[j];
          if (!load_used[j] && ins.opcode == Opcode::kLoad &&
              ins.tensor_id == src && ins.dst_id == i) {
            off = ins.chan_off;
            load_used[j] = true;
            break;
          }
        }
        if (off < 0) {
          add(Severity::kError, i, -1, "concat-region",
              "input " + std::to_string(k) + " (layer " + std::to_string(src) +
                  ") has no writer: neither a redirected store nor a region "
                  "LOAD assembles its channels");
          expected_off += ch;
          continue;
        }
        if (off != expected_off) {
          add(Severity::kError, i, -1, "concat-region",
              "region LOAD of input " + std::to_string(k) +
                  " lands at channel offset " + std::to_string(off) +
                  ", expected " + std::to_string(expected_off));
        }
      }
      if (off < 0 || off + ch > l.out_shape[2]) {
        add(Severity::kError, i, -1, "concat-region",
            "writer for input " + std::to_string(k) + " covers channels [" +
                std::to_string(off) + ", " + std::to_string(off + ch) +
                ") outside the buffer");
      } else {
        for (std::int64_t c = off; c < off + ch; ++c) {
          ++cover[static_cast<std::size_t>(c)];
        }
      }
      expected_off += ch;
    }
    std::int64_t twice = 0, never = 0;
    for (int c : cover) {
      if (c > 1) ++twice;
      if (c == 0) ++never;
    }
    if (twice > 0) {
      add(Severity::kError, i, -1, "concat-region",
          std::to_string(twice) + " channel(s) of the concat buffer written "
          "by overlapping live ranges (aliasing double-write)");
    }
    if (never > 0) {
      add(Severity::kError, i, -1, "concat-region",
          std::to_string(never) + " channel(s) of the concat buffer are "
          "never written; the consumer reads dead bytes");
    }
  }

  /// Can layer `src`'s output legitimately be LOADed from DDR?
  bool in_ddr(int src) const {
    if (src == -1) return true;  // network input
    if (src < -1 || src >= n_layers()) return false;
    const XLayer& p = layer(src);
    if (p.kind == XLayer::Kind::kConst) return true;  // weights blob
    return !p.output_resident && p.concat_dst < 0;    // it was SAVEd
  }

  void check_schedule(int i) {
    const XLayer& l = layer(i);
    const bool last = i == n_layers() - 1;

    if (l.kind == XLayer::Kind::kConst) {
      // No runtime footprint — except the program terminator, which the
      // scheduler appends to whatever layer is last.
      for (std::size_t j = 0; j < l.instrs.size(); ++j) {
        if (l.instrs[j].opcode == Opcode::kEnd && last &&
            j == l.instrs.size() - 1) {
          ++end_count_;
        } else {
          add(Severity::kError, i, static_cast<int>(j), "schedule",
              "kConst layer has runtime instructions");
        }
      }
      return;
    }

    // Expected memory traffic, re-derived from the layer attributes.
    struct ExpLoad {
      int tensor = -1;
      std::int64_t chan = 0;
      std::int64_t bytes = 0;
      bool region = false;    // offset-addressed into this layer's buffer
      bool halo_min = false;  // row tiling: bytes is a lower bound (+halo)
      bool matched = false;
      std::size_t input_index = 0;
    };
    std::vector<ExpLoad> exp_loads;
    std::int64_t chan_off = 0;
    for (std::size_t k = 0; k < l.inputs.size(); ++k) {
      const int src = l.inputs[k];
      const Shape& in_shape = shape_of(src);
      if (l.materialized) {
        const bool redirected = src >= 0 && layer(src).concat_dst == i;
        if (!redirected) {
          exp_loads.push_back({src, chan_off, act_bytes(in_shape, m_.arch),
                               true, false, false, k});
        }
        chan_off += in_shape[in_shape.rank() - 1];
        continue;
      }
      if (l.input_resident[k]) continue;
      exp_loads.push_back({src, 0, act_bytes(in_shape, m_.arch), false,
                           k == 0 && l.tile_mode == 1, false, k});
    }
    const bool compute_expected = !l.materialized;
    const bool save_expected = !l.output_resident && l.concat_dst < 0;
    const std::int64_t exp_weight_bytes = weight_stream_bytes(l, m_.arch);
    std::int64_t exp_save_bytes = act_bytes(l.out_shape, m_.arch);
    if (l.out_shape[l.out_shape.rank() - 1] % m_.arch.act_bank_channels != 0) {
      exp_save_bytes *= 2;  // unaligned channels: read-modify-write banks
    }
    Opcode exp_compute = Opcode::kConv;
    switch (l.kind) {
      case XLayer::Kind::kConv: exp_compute = Opcode::kConv; break;
      case XLayer::Kind::kTConv: exp_compute = Opcode::kTConv; break;
      case XLayer::Kind::kPool: exp_compute = Opcode::kPool; break;
      case XLayer::Kind::kConcat: exp_compute = Opcode::kConcat; break;
      case XLayer::Kind::kConst: break;  // unreachable
    }
    std::int64_t exp_macs = 0;
    if (compute_expected &&
        (l.kind == XLayer::Kind::kConv || l.kind == XLayer::Kind::kTConv)) {
      const Shape& os = l.out_shape;
      const std::int64_t ci = shape_of(l.inputs[0])[2];
      exp_macs = os[0] * os[1] * l.kernel * l.kernel * ci * os[2];
      if (l.kind == XLayer::Kind::kTConv) exp_macs /= 4;
    }

    int state = 0;  // 0 = loads, 1 = compute seen, 2 = save seen
    bool compute_seen = false, save_seen = false, weight_load_seen = false;
    for (std::size_t j = 0; j < l.instrs.size(); ++j) {
      const Instr& ins = l.instrs[j];
      const int ij = static_cast<int>(j);
      if (ins.opcode == Opcode::kEnd) {
        if (!last || j != l.instrs.size() - 1) {
          add(Severity::kError, i, ij, "schedule",
              "kEnd terminator not at the end of the last layer");
        } else {
          ++end_count_;
        }
        continue;
      }
      if (ins.layer_id != i) {
        add(Severity::kError, i, ij, "schedule",
            "instruction owned by layer " + std::to_string(ins.layer_id) +
                " scheduled in layer " + std::to_string(i));
      }
      switch (ins.opcode) {
        case Opcode::kLoad: {
          if (state > 0) {
            add(Severity::kError, i, ij, "schedule",
                "LOAD scheduled after compute/SAVE; its consumer already "
                "ran");
          }
          if (ins.tensor_id == -2) {
            if (weight_load_seen) {
              add(Severity::kError, i, ij, "schedule",
                  "duplicate weight LOAD");
            } else if (l.weight_count == 0) {
              add(Severity::kError, i, ij, "schedule",
                  "weight LOAD on a layer without weights");
            } else if (ins.bytes != exp_weight_bytes) {
              add(Severity::kError, i, ij, "schedule",
                  "weight LOAD of " + std::to_string(ins.bytes) +
                      " bytes != padded stream size " +
                      std::to_string(exp_weight_bytes));
            }
            weight_load_seen = true;
            break;
          }
          ExpLoad* match = nullptr;
          for (auto& e : exp_loads) {
            if (!e.matched && e.tensor == ins.tensor_id) {
              match = &e;
              break;
            }
          }
          if (match == nullptr) {
            std::string why = "unexpected LOAD of tensor " +
                              std::to_string(ins.tensor_id);
            for (std::size_t k = 0; k < l.inputs.size(); ++k) {
              if (l.inputs[k] == ins.tensor_id && !l.materialized &&
                  l.input_resident[k]) {
                why = "LOAD of resident input " + std::to_string(k) +
                      " (the slot is already on-chip)";
              }
            }
            add(Severity::kError, i, ij, "schedule", why);
            if (!in_ddr(ins.tensor_id)) {
              add(Severity::kError, i, ij, "dataflow",
                  "LOAD source " + std::to_string(ins.tensor_id) +
                      " was never saved to DDR");
            }
            break;
          }
          match->matched = true;
          if (match->region) {
            if (ins.dst_id != i) {
              add(Severity::kError, i, ij, "concat-region",
                  "region LOAD targets buffer of layer " +
                      std::to_string(ins.dst_id) + ", expected " +
                      std::to_string(i));
            }
            // chan_off is validated against the cumulative layout by
            // check_concat's coverage map.
          } else if (ins.dst_id != -1 || ins.chan_off != 0) {
            add(Severity::kError, i, ij, "schedule",
                "plain LOAD carries offset-addressed fields (dst " +
                    std::to_string(ins.dst_id) + ", chan_off " +
                    std::to_string(ins.chan_off) + ")");
          }
          if (match->halo_min ? ins.bytes < match->bytes
                              : ins.bytes != match->bytes) {
            add(Severity::kError, i, ij, "schedule",
                "LOAD of " + std::to_string(ins.bytes) + " bytes " +
                    (match->halo_min ? "below the un-haloed tensor size "
                                     : "!= tensor size ") +
                    std::to_string(match->bytes));
          }
          if (!in_ddr(ins.tensor_id)) {
            add(Severity::kError, i, ij, "dataflow",
                "LOAD of layer " + std::to_string(ins.tensor_id) +
                    "'s output, which is resident/redirected and was never "
                    "saved to DDR (dead bytes)");
          }
          break;
        }
        case Opcode::kSave: {
          if (!save_expected) {
            add(Severity::kError, i, ij, "schedule",
                l.output_resident
                    ? "SAVE of a resident output"
                    : "SAVE of an output redirected into a concat buffer");
          }
          if (save_seen) {
            add(Severity::kError, i, ij, "schedule", "duplicate SAVE");
          }
          if (compute_expected && !compute_seen) {
            add(Severity::kError, i, ij, "schedule",
                "SAVE scheduled before the compute instruction that "
                "produces the tensor");
          }
          if (ins.tensor_id != i) {
            add(Severity::kError, i, ij, "schedule",
                "SAVE of tensor " + std::to_string(ins.tensor_id) +
                    " from layer " + std::to_string(i));
          }
          if (save_expected && ins.bytes != exp_save_bytes) {
            add(Severity::kError, i, ij, "schedule",
                "SAVE of " + std::to_string(ins.bytes) +
                    " bytes != expected " + std::to_string(exp_save_bytes) +
                    " (bank-alignment rule)");
          }
          save_seen = true;
          state = 2;
          break;
        }
        case Opcode::kConv:
        case Opcode::kTConv:
        case Opcode::kPool:
        case Opcode::kConcat: {
          if (!compute_expected) {
            add(Severity::kError, i, ij, "schedule",
                "compute instruction on a materialized concat (its buffer "
                "is assembled by offset-addressed transfers)");
          } else if (ins.opcode != exp_compute) {
            add(Severity::kError, i, ij, "schedule",
                std::string("compute opcode ") + opcode_name(ins.opcode) +
                    " does not match layer kind (expected " +
                    opcode_name(exp_compute) + ")");
          }
          if (compute_seen) {
            add(Severity::kError, i, ij, "schedule",
                "duplicate compute instruction");
          }
          if (state == 2) {
            add(Severity::kError, i, ij, "schedule",
                "compute scheduled after SAVE");
          }
          if (compute_expected && ins.opcode == exp_compute &&
              ins.macs != exp_macs) {
            add(Severity::kError, i, ij, "schedule",
                "instruction MACs " + std::to_string(ins.macs) +
                    " != layer work " + std::to_string(exp_macs));
          }
          compute_seen = true;
          if (state == 0) state = 1;
          break;
        }
        case Opcode::kEnd:
          break;  // handled above
      }
    }

    for (const auto& e : exp_loads) {
      if (!e.matched) {
        add(Severity::kError, i, -1, "schedule",
            "missing LOAD of input " + std::to_string(e.input_index) +
                " (tensor " + std::to_string(e.tensor) +
                "); the compute would read uninitialized on-chip bytes");
      }
    }
    if (compute_expected && !compute_seen) {
      add(Severity::kError, i, -1, "schedule", "missing compute instruction");
    }
    if (save_expected && !save_seen) {
      add(Severity::kError, i, -1, "schedule",
          "missing SAVE; downstream consumers LOAD this tensor from DDR");
    }
    if (l.macs != (compute_expected ? exp_macs : 0)) {
      add(Severity::kError, i, -1, "schedule",
          "layer MAC summary " + std::to_string(l.macs) + " != " +
              std::to_string(compute_expected ? exp_macs : 0));
    }
  }

  bool near(double a, double b) const {
    const double tol =
        std::max(opts_.cycle_rel_tol * std::max(std::abs(a), std::abs(b)),
                 0.51);
    return std::abs(a - b) <= tol;
  }

  void check_cycles(int i) {
    const XLayer& l = layer(i);
    const double bpc = m_.arch.ddr_bytes_per_cycle_total;
    double exp_compute = 0.0;
    std::int64_t exp_ddr = 0, exp_ov = 0;
    for (std::size_t j = 0; j < l.instrs.size(); ++j) {
      const Instr& ins = l.instrs[j];
      double exp = 0.0;
      const Shape& os = l.out_shape;
      switch (ins.opcode) {
        case Opcode::kLoad:
        case Opcode::kSave:
          exp = static_cast<double>(ins.bytes) / bpc;
          exp_ddr += ins.bytes;
          if (overlapped(l, ins)) exp_ov += ins.bytes;
          break;
        case Opcode::kConv:
          exp = conv_cycles(m_.arch, os[0], os[1], l.kernel,
                            shape_of(l.inputs[0])[2], os[2]);
          exp_compute = exp;
          break;
        case Opcode::kTConv:
          exp = tconv_cycles(m_.arch, os[0], os[1], l.kernel,
                             shape_of(l.inputs[0])[2], os[2]);
          exp_compute = exp;
          break;
        case Opcode::kPool:
          exp = pool_cycles(m_.arch, os[0], os[1], os[2]);
          exp_compute = exp;
          break;
        case Opcode::kConcat:
          exp = concat_cycles(m_.arch, os.numel());
          exp_compute = exp;
          break;
        case Opcode::kEnd:
          exp = 0.0;
          break;
      }
      if (!near(ins.cycles, exp)) {
        add(Severity::kError, i, static_cast<int>(j), "cycles",
            "instruction cycles " + std::to_string(ins.cycles) +
                " do not re-derive from the timing model (expected " +
                std::to_string(exp) + ")");
      }
    }
    if (l.tile_mode == 0) exp_ov = 0;

    if (!near(l.compute_cycles, exp_compute)) {
      add(Severity::kError, i, -1, "cycles",
          "layer compute_cycles " + std::to_string(l.compute_cycles) +
              " != timing model " + std::to_string(exp_compute));
    }
    if (l.ddr_bytes != exp_ddr) {
      add(Severity::kError, i, -1, "cycles",
          "layer ddr_bytes " + std::to_string(l.ddr_bytes) +
              " != sum of LOAD/SAVE bytes " + std::to_string(exp_ddr));
    }
    if (l.overlap_bytes != exp_ov) {
      add(Severity::kError, i, -1, "cycles",
          "layer overlap_bytes " + std::to_string(l.overlap_bytes) +
              " != pipelined share " + std::to_string(exp_ov) +
              " under tile mode " + std::to_string(l.tile_mode));
    }

    // The headline invariant: the latency query must equal the sum of the
    // scheduled instruction costs under the overlap model.
    const double issue = m_.arch.instr_overhead_cycles *
                         static_cast<double>(l.instrs.size());
    double exp_lat = 0.0;
    if (l.tile_count <= 1) {
      exp_lat = exp_compute + static_cast<double>(exp_ddr) / bpc + issue;
    } else {
      const double serial = static_cast<double>(exp_ddr - exp_ov) / bpc;
      const double ov = static_cast<double>(exp_ov) / bpc;
      exp_lat = serial + std::max(exp_compute, ov) +
                std::min(exp_compute, ov) / static_cast<double>(l.tile_count) +
                issue;
    }
    const double actual = m_.layer_latency_cycles(l, 1);
    if (!near(actual, exp_lat)) {
      add(Severity::kError, i, -1, "cycles",
          "layer latency " + std::to_string(actual) +
              " does not equal the sum of its scheduled instruction costs (" +
              std::to_string(exp_lat) + ")");
    }
  }

  const XModel& m_;
  VerifyOptions opts_;
  std::vector<Finding> findings_;
  std::vector<std::vector<int>> consumers_;
  int end_count_ = 0;
};

// --- Range analysis ---------------------------------------------------------

RangeResult Checker::run_range(const XModel& m) {
  RangeResult rr;
  const int n = static_cast<int>(m.layers.size());
  auto add = [&rr](Severity sev, int i, const char* check, std::string msg) {
    Finding f;
    f.severity = sev;
    f.layer = i;
    f.check = check;
    f.message = std::move(msg);
    rr.findings.push_back(std::move(f));
  };

  // Effective fix position, walking pool chains like the executors do.
  auto fp_of = [&m](int id) {
    while (id >= 0) {
      const XLayer& l = m.layers[static_cast<std::size_t>(id)];
      if (l.kind != XLayer::Kind::kPool) return l.fix_pos_out;
      id = l.inputs[0];
    }
    return m.input_fix_pos;
  };
  auto fix_ok = [](int fp) { return fp >= -kMaxFixPos && fp <= kMaxFixPos; };

  if (!fix_ok(m.input_fix_pos)) {
    add(Severity::kError, -1, "range",
        "input fix position " + std::to_string(m.input_fix_pos) +
            " outside the requant shift-field domain");
  }

  std::vector<Interval> act(m.layers.size(), Interval{-128, 127});
  auto in_interval = [&](int id) {
    return id < 0 ? Interval{-128, 127} : act[static_cast<std::size_t>(id)];
  };

  for (int i = 0; i < n; ++i) {
    const XLayer& l = m.layers[static_cast<std::size_t>(i)];
    Interval out{-128, 127};
    if (!fix_ok(l.fix_pos_out) || !fix_ok(l.fix_pos_w)) {
      add(Severity::kError, i, "range",
          "fix position (w " + std::to_string(l.fix_pos_w) + ", out " +
              std::to_string(l.fix_pos_out) +
              ") outside the requant shift-field domain");
      act[static_cast<std::size_t>(i)] = out;
      continue;
    }
    switch (l.kind) {
      case XLayer::Kind::kConst: {
        // The folded feature map is known at compile time: its interval is
        // the exact min/max of the payload.
        if (l.weight_count > 0 && l.weight_offset >= 0 &&
            l.weight_offset + l.weight_count <=
                static_cast<std::int64_t>(m.weights.size())) {
          std::int8_t lo = 127, hi = -128;
          const std::int8_t* p = m.weights.data() + l.weight_offset;
          for (std::int64_t t = 0; t < l.weight_count; ++t) {
            lo = std::min(lo, p[t]);
            hi = std::max(hi, p[t]);
          }
          out = {lo, hi};
        }
        break;
      }
      case XLayer::Kind::kPool:
        out = in_interval(l.inputs[0]);
        break;
      case XLayer::Kind::kConv:
      case XLayer::Kind::kTConv: {
        const std::int64_t ci =
            (l.inputs[0] < 0 ? m.input_shape
                             : m.layers[static_cast<std::size_t>(l.inputs[0])]
                                   .out_shape)[2];
        // range_analysis() is also callable standalone on unvalidated
        // models; skip layers whose blob slices do not line up (the full
        // verifier reports those as structure/blob-bounds findings).
        if (l.kernel < 1 || l.weight_offset < 0 || l.bias_offset < 0 ||
            l.weight_count != l.kernel * l.kernel * ci * l.out_shape[2] ||
            l.bias_count != l.out_shape[2] ||
            l.weight_offset + l.weight_count >
                static_cast<std::int64_t>(m.weights.size()) ||
            l.bias_offset + l.bias_count >
                static_cast<std::int64_t>(m.biases.size())) {
          break;
        }
        const Interval in = in_interval(l.inputs[0]);
        const Interval acc = quant::conv_acc_interval(
            m.weights.data() + l.weight_offset, l.kernel * l.kernel * ci,
            l.out_shape[2], m.biases.data() + l.bias_offset, in);
        const int shift = fp_of(l.inputs[0]) + l.fix_pos_w - l.fix_pos_out;

        RangeProof proof;
        proof.layer = i;
        proof.in = in;
        proof.acc = acc;
        proof.shift = shift;
        proof.acc_fits_i32 =
            acc.lo >= std::numeric_limits<std::int32_t>::min() &&
            acc.hi <= std::numeric_limits<std::int32_t>::max();
        proof.shift32_proven = quant::interval_shift32_safe(acc, shift);
        quant::QOp op;
        op.kernel = l.kernel;
        op.bias.assign(m.biases.begin() + l.bias_offset,
                       m.biases.begin() + l.bias_offset + l.bias_count);
        proof.runtime_acc32 = quant::kernels::acc32_safe(op, ci);
        rr.proofs.push_back(proof);

        if (shift < -kMaxFixPos || shift > kMaxFixPos) {
          add(Severity::kError, i, "range",
              "requant shift " + std::to_string(shift) +
                  " outside the hardware shift-field domain [-" +
                  std::to_string(kMaxFixPos) + ", " +
                  std::to_string(kMaxFixPos) + "]");
        }
        if (!proof.acc_fits_i32) {
          add(Severity::kError, i, "range",
              "accumulator interval [" + std::to_string(acc.lo) + ", " +
                  std::to_string(acc.hi) +
                  "] exceeds the 32-bit accumulator of the hybrid "
                  "computing array");
        } else if (proof.runtime_acc32 && !proof.shift32_proven &&
                   shift <= 30 && shift >= -20) {
          // The interval bound is tighter than acc_bound by construction,
          // so the coarse predicate admitting the int32 path while the
          // proof rejects it means a corrupted payload.
          add(Severity::kError, i, "range-consistency",
              "runtime acc32_safe admits the int32 path but the interval "
              "proof finds no headroom at shift " + std::to_string(shift));
        } else if (!proof.runtime_acc32 && proof.shift32_proven) {
          add(Severity::kNote, i, "range",
              "interval proof shows int32 headroom the coarse runtime "
              "predicate rejects; the scalar fallback is conservative "
              "here");
        }
        out = safe_requant(acc, shift, l.relu);
        break;
      }
      case XLayer::Kind::kConcat: {
        bool first = true;
        for (int in : l.inputs) {
          const int shift = fp_of(in) - l.fix_pos_out;
          const Interval v = safe_requant(in_interval(in), shift, false);
          if (first || v.lo < out.lo) out.lo = v.lo;
          if (first || v.hi > out.hi) out.hi = v.hi;
          first = false;
        }
        break;
      }
    }
    act[static_cast<std::size_t>(i)] = out;
  }
  return rr;
}

}  // namespace

std::vector<Finding> verify(const XModel& model, const VerifyOptions& opts) {
  return Checker(model, opts).run();
}

std::vector<RangeProof> range_analysis(const XModel& model) {
  return Checker::run_range(model).proofs;
}

bool has_errors(const std::vector<Finding>& findings) {
  return std::any_of(findings.begin(), findings.end(), [](const Finding& f) {
    return f.severity == Severity::kError;
  });
}

std::string format_findings(const XModel& model,
                            const std::vector<Finding>& findings) {
  std::ostringstream os;
  int errors = 0, warnings = 0, notes = 0;
  for (const auto& f : findings) {
    switch (f.severity) {
      case Severity::kError: ++errors; break;
      case Severity::kWarning: ++warnings; break;
      case Severity::kNote: ++notes; break;
    }
  }
  os << "verify: model '" << model.name << "': ";
  if (findings.empty()) {
    os << "clean\n";
    return os.str();
  }
  os << findings.size() << " finding(s) (" << errors << " error(s), "
     << warnings << " warning(s), " << notes << " note(s))\n";
  for (const auto& f : findings) {
    os << "  " << severity_name(f.severity) << "[" << f.check << "] ";
    if (f.layer < 0) {
      os << "model";
    } else {
      os << "layer " << f.layer;
      if (f.layer < static_cast<std::int32_t>(model.layers.size())) {
        os << " '" << model.layers[static_cast<std::size_t>(f.layer)].name
           << "'";
        if (f.instr >= 0 &&
            f.instr < static_cast<std::int32_t>(
                          model.layers[static_cast<std::size_t>(f.layer)]
                              .instrs.size())) {
          os << " instr " << f.instr << " ("
             << opcode_name(model.layers[static_cast<std::size_t>(f.layer)]
                                .instrs[static_cast<std::size_t>(f.instr)]
                                .opcode)
             << ")";
        }
      }
    }
    os << ": " << f.message << "\n";
  }
  return os.str();
}

void verify_or_throw(const XModel& model, const VerifyOptions& opts) {
  std::vector<Finding> findings = verify(model, opts);
  if (!has_errors(findings)) return;
  // Format before the move: constructor arguments are indeterminately
  // sequenced, so the move could otherwise empty the vector first.
  std::string report = "compile: verification failed:\n" +
                       format_findings(model, findings);
  throw CompileError(report, std::move(findings));
}

namespace {

/// Mandatory post-pass: emits the program from the scheduled IR and runs
/// the full verifier on it, so no miscompile can leave compile() silently.
class VerifyPass final : public Pass {
 public:
  const char* name() const override { return "verify"; }

  bool run(ir::Graph& g) override {
    verify_or_throw(ir::emit_xmodel(g));
    return false;
  }
};

}  // namespace

std::unique_ptr<Pass> make_verify_pass() {
  return std::make_unique<VerifyPass>();
}

}  // namespace seneca::dpu
