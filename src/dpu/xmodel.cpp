#include "dpu/xmodel.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/io.hpp"

namespace seneca::dpu {

double XModel::layer_latency_cycles(const XLayer& layer,
                                    int bw_sharers) const {
  const double bytes_per_cycle =
      arch.ddr_bytes_per_cycle_total / static_cast<double>(bw_sharers);
  const double issue =
      arch.instr_overhead_cycles * static_cast<double>(layer.instrs.size());
  if (layer.tile_count <= 1) {
    // Untiled: the layer shares one memory port with its own compute, so
    // LOAD/compute/SAVE serialize at layer granularity.
    const double mem = static_cast<double>(layer.ddr_bytes) / bytes_per_cycle;
    return layer.compute_cycles + mem + issue;
  }
  // Tiled: `overlap_bytes` of the traffic streams tile-by-tile against
  // compute; only the first tile of the shorter phase is exposed.
  const std::int64_t serial_bytes = layer.ddr_bytes - layer.overlap_bytes;
  const double serial = static_cast<double>(serial_bytes) / bytes_per_cycle;
  const double ov = static_cast<double>(layer.overlap_bytes) / bytes_per_cycle;
  const double hi = std::max(layer.compute_cycles, ov);
  const double lo = std::min(layer.compute_cycles, ov);
  return serial + hi + lo / static_cast<double>(layer.tile_count) + issue;
}

double XModel::latency_cycles(int bw_sharers) const {
  // Layers are data-dependent, so they serialize; the job constant covers
  // kernel start + completion-interrupt handling.
  double total = arch.job_overhead_cycles;
  for (const auto& layer : layers) {
    total += layer_latency_cycles(layer, bw_sharers);
  }
  return total;
}

double XModel::latency_seconds(int bw_sharers) const {
  return latency_cycles(bw_sharers) / (arch.clock_mhz * 1e6);
}

std::int64_t XModel::total_macs() const {
  std::int64_t macs = 0;
  for (const auto& l : layers) macs += l.macs;
  return macs;
}

std::int64_t XModel::total_ddr_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& l : layers) bytes += l.ddr_bytes;
  return bytes;
}

std::size_t XModel::total_instructions() const {
  std::size_t n = 0;
  for (const auto& l : layers) n += l.instrs.size();
  return n;
}

double XModel::compute_utilization() const {
  double compute = 0.0;
  for (const auto& l : layers) compute += l.compute_cycles;
  if (compute <= 0.0) return 0.0;
  const double peak_macs_per_cycle =
      static_cast<double>(arch.peak_ops_per_cycle()) / 2.0;
  return static_cast<double>(total_macs()) / (compute * peak_macs_per_cycle);
}

namespace {
void write_shape(util::BinaryWriter& w, const Shape& s) {
  w.u32(static_cast<std::uint32_t>(s.rank()));
  for (std::size_t i = 0; i < s.rank(); ++i) w.u64(static_cast<std::uint64_t>(s[i]));
}

Shape read_shape(util::BinaryReader& r) {
  // 4 GiB of int8, the ZCU104's whole DDR. Any larger element count is
  // corruption, and past 2^63 Shape::numel() would overflow.
  constexpr std::int64_t kMaxElements = std::int64_t{1} << 32;
  const std::uint32_t rank = r.u32();
  std::int64_t dims[5] = {0, 0, 0, 0, 0};
  if (rank > 5) throw std::runtime_error("xmodel: bad shape rank");
  std::int64_t elements = 1;
  for (std::uint32_t i = 0; i < rank; ++i) {
    dims[i] = static_cast<std::int64_t>(r.u64());
    // Shape's own constructor rejects these too, but with the wrong
    // exception type for the wire contract (invalid_argument, reserved for
    // caller bugs; corrupted bytes are runtime_errors).
    if (dims[i] < 0) throw std::runtime_error("xmodel: negative shape dim");
    if (dims[i] > 0 && elements > kMaxElements / dims[i]) {
      throw std::runtime_error("xmodel: shape too large");
    }
    elements *= dims[i];
  }
  switch (rank) {
    case 0: return Shape{};
    case 1: return Shape{dims[0]};
    case 2: return Shape{dims[0], dims[1]};
    case 3: return Shape{dims[0], dims[1], dims[2]};
    case 4: return Shape{dims[0], dims[1], dims[2], dims[3]};
    default: return Shape{dims[0], dims[1], dims[2], dims[3], dims[4]};
  }
}
}  // namespace

std::vector<std::uint8_t> XModel::serialize() const {
  util::BinaryWriter w;
  // "SENECAX2": v2 adds offset-addressed Instr fields and the pass-pipeline
  // layer attributes (concat elimination, tiling, kConst layers).
  w.str("SENECAX2");
  w.str(name);
  w.str(arch.name);
  w.u32(static_cast<std::uint32_t>(arch.cores));
  w.u64(static_cast<std::uint64_t>(arch.pixel_parallel));
  w.u64(static_cast<std::uint64_t>(arch.input_channel_parallel));
  w.u64(static_cast<std::uint64_t>(arch.output_channel_parallel));
  w.f32(static_cast<float>(arch.clock_mhz));
  w.u64(static_cast<std::uint64_t>(arch.onchip_bytes));
  w.f32(static_cast<float>(arch.ddr_bytes_per_cycle_total));
  w.f32(static_cast<float>(arch.instr_overhead_cycles));
  w.f32(static_cast<float>(arch.job_overhead_cycles));

  write_shape(w, input_shape);
  w.i32(input_fix_pos);
  w.i32(output_layer);
  w.i32(output_fix_pos);

  w.u32(static_cast<std::uint32_t>(layers.size()));
  for (const auto& l : layers) {
    w.u8(static_cast<std::uint8_t>(l.kind));
    w.str(l.name);
    w.u32(static_cast<std::uint32_t>(l.inputs.size()));
    for (auto id : l.inputs) w.i32(id);
    write_shape(w, l.out_shape);
    w.u64(static_cast<std::uint64_t>(l.kernel));
    w.u8(l.relu ? 1 : 0);
    w.i32(l.fix_pos_w);
    w.i32(l.fix_pos_out);
    w.u64(static_cast<std::uint64_t>(l.weight_offset));
    w.u64(static_cast<std::uint64_t>(l.weight_count));
    w.u64(static_cast<std::uint64_t>(l.bias_offset));
    w.u64(static_cast<std::uint64_t>(l.bias_count));
    w.u32(static_cast<std::uint32_t>(l.input_resident.size()));
    for (auto r : l.input_resident) w.u8(r);
    w.u8(l.output_resident ? 1 : 0);
    w.i32(l.concat_dst);
    w.u64(static_cast<std::uint64_t>(l.concat_offset));
    w.u8(l.materialized ? 1 : 0);
    w.u8(l.tile_mode);
    w.i32(l.tile_count);
    w.u64(static_cast<std::uint64_t>(l.overlap_bytes));
    w.u32(static_cast<std::uint32_t>(l.instrs.size()));
    for (const auto& ins : l.instrs) {
      w.u8(static_cast<std::uint8_t>(ins.opcode));
      w.i32(ins.layer_id);
      w.i32(ins.tensor_id);
      w.i32(ins.dst_id);
      w.u64(static_cast<std::uint64_t>(ins.chan_off));
      w.u64(static_cast<std::uint64_t>(ins.bytes));
      w.u64(static_cast<std::uint64_t>(ins.macs));
      w.f32(static_cast<float>(ins.cycles));
    }
    w.f32(static_cast<float>(l.compute_cycles));
    w.u64(static_cast<std::uint64_t>(l.ddr_bytes));
    w.u64(static_cast<std::uint64_t>(l.macs));
  }
  w.u64(weights.size());
  w.bytes(weights.data(), weights.size());
  w.u64(biases.size());
  w.bytes(biases.data(), biases.size() * sizeof(std::int32_t));
  return w.data();
}

XModel XModel::deserialize(std::vector<std::uint8_t> bytes) {
  util::BinaryReader r(std::move(bytes));
  // Every count field is checked against the remaining stream at each
  // element's minimum wire size *before* the resize, so a corrupted count
  // throws instead of allocating gigabytes; every enum byte is validated
  // here rather than at first (possibly much later) use.
  const auto check_count = [&r](std::uint64_t n, std::size_t elem_bytes,
                                const char* what) {
    if (n > r.remaining() / elem_bytes) {
      throw std::runtime_error("xmodel: " + std::string(what) + " count " +
                               std::to_string(n) +
                               " exceeds the remaining stream");
    }
  };
  if (r.remaining() < 12 || r.str() != "SENECAX2") {
    throw std::runtime_error("xmodel: bad magic");
  }
  XModel m;
  m.name = r.str();
  m.arch.name = r.str();
  m.arch.cores = r.i32();
  m.arch.pixel_parallel = static_cast<std::int64_t>(r.u64());
  m.arch.input_channel_parallel = static_cast<std::int64_t>(r.u64());
  m.arch.output_channel_parallel = static_cast<std::int64_t>(r.u64());
  m.arch.clock_mhz = r.f32();
  m.arch.onchip_bytes = static_cast<std::int64_t>(r.u64());
  m.arch.ddr_bytes_per_cycle_total = r.f32();
  m.arch.instr_overhead_cycles = r.f32();
  m.arch.job_overhead_cycles = r.f32();

  m.input_shape = read_shape(r);
  m.input_fix_pos = r.i32();
  m.output_layer = r.i32();
  m.output_fix_pos = r.i32();

  const std::uint32_t n_layers = r.u32();
  check_count(n_layers, 64, "layer");  // 64 = conservative fixed-field floor
  m.layers.resize(n_layers);
  for (auto& l : m.layers) {
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(XLayer::Kind::kConst)) {
      throw std::runtime_error("xmodel: invalid layer kind " +
                               std::to_string(kind));
    }
    l.kind = static_cast<XLayer::Kind>(kind);
    l.name = r.str();
    const std::uint32_t n_in = r.u32();
    check_count(n_in, 4, "layer input");
    l.inputs.resize(n_in);
    for (auto& id : l.inputs) id = r.i32();
    l.out_shape = read_shape(r);
    l.kernel = static_cast<std::int64_t>(r.u64());
    l.relu = r.u8() != 0;
    l.fix_pos_w = r.i32();
    l.fix_pos_out = r.i32();
    l.weight_offset = static_cast<std::int64_t>(r.u64());
    l.weight_count = static_cast<std::int64_t>(r.u64());
    l.bias_offset = static_cast<std::int64_t>(r.u64());
    l.bias_count = static_cast<std::int64_t>(r.u64());
    const std::uint32_t n_res = r.u32();
    check_count(n_res, 1, "residency flag");
    l.input_resident.resize(n_res);
    for (auto& v : l.input_resident) v = r.u8();
    l.output_resident = r.u8() != 0;
    l.concat_dst = r.i32();
    l.concat_offset = static_cast<std::int64_t>(r.u64());
    l.materialized = r.u8() != 0;
    l.tile_mode = r.u8();
    l.tile_count = r.i32();
    l.overlap_bytes = static_cast<std::int64_t>(r.u64());
    const std::uint32_t n_instr = r.u32();
    check_count(n_instr, 41, "instruction");  // 41 = Instr wire size
    l.instrs.resize(n_instr);
    for (auto& ins : l.instrs) {
      const std::uint8_t opcode = r.u8();
      if (opcode > static_cast<std::uint8_t>(Opcode::kEnd)) {
        throw std::runtime_error("xmodel: invalid opcode " +
                                 std::to_string(opcode));
      }
      ins.opcode = static_cast<Opcode>(opcode);
      ins.layer_id = r.i32();
      ins.tensor_id = r.i32();
      ins.dst_id = r.i32();
      ins.chan_off = static_cast<std::int64_t>(r.u64());
      ins.bytes = static_cast<std::int64_t>(r.u64());
      ins.macs = static_cast<std::int64_t>(r.u64());
      ins.cycles = r.f32();
    }
    l.compute_cycles = r.f32();
    l.ddr_bytes = static_cast<std::int64_t>(r.u64());
    l.macs = static_cast<std::int64_t>(r.u64());
  }
  const std::uint64_t wn = r.u64();
  check_count(wn, 1, "weight");
  m.weights.resize(wn);
  r.bytes(m.weights.data(), wn);
  const std::uint64_t bn = r.u64();
  // The division-form bound also forecloses the bn * 4 overflow.
  check_count(bn, sizeof(std::int32_t), "bias");
  m.biases.resize(bn);
  r.bytes(m.biases.data(), bn * sizeof(std::int32_t));
  return m;
}

void XModel::save(const std::filesystem::path& path) const {
  const std::vector<std::uint8_t> bytes = serialize();
  util::write_file(path, bytes.data(), bytes.size());
}

XModel XModel::load(const std::filesystem::path& path) {
  return deserialize(util::read_file(path));
}

}  // namespace seneca::dpu
