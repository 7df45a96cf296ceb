#include "serve/net/frame.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace seneca::serve::net {

namespace {

// Little-endian scalar packing. memcpy keeps it alias-safe; byte order is
// made explicit by composing from shifts rather than trusting host order.
void put_le16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
void put_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}
void put_le64(std::uint8_t* p, std::uint64_t v) {
  put_le32(p, static_cast<std::uint32_t>(v));
  put_le32(p + 4, static_cast<std::uint32_t>(v >> 32));
}
std::uint16_t get_le16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t get_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
std::uint64_t get_le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_le32(p)) |
         (static_cast<std::uint64_t>(get_le32(p + 4)) << 32);
}

struct Crc32Table {
  std::array<std::uint32_t, 256> t{};
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
  }
};

// Tensor bounds: a corrupt shape must be rejected before any allocation.
constexpr std::uint8_t kMaxTensorRank = 4;
constexpr std::int64_t kMaxTensorDim = 1 << 24;
constexpr std::int64_t kMaxTensorNumel = kMaxPayload;

}  // namespace

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kRequest: return "request";
    case FrameType::kResponse: return "response";
    case FrameType::kHeartbeat: return "heartbeat";
    case FrameType::kTelemetry: return "telemetry";
    case FrameType::kControl: return "control";
    case FrameType::kGoodbye: return "goodbye";
  }
  return "?";
}

bool known_frame_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(FrameType::kHello) &&
         raw <= static_cast<std::uint8_t>(FrameType::kGoodbye);
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  static const Crc32Table table;
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table.t[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void encode_header(const FrameHeader& h, std::uint8_t* out) {
  put_le32(out, kMagic);
  out[4] = h.version;
  out[5] = static_cast<std::uint8_t>(h.type);
  put_le16(out + 6, 0);
  put_le32(out + 8, h.payload_len);
  put_le32(out + 12, h.payload_crc);
}

FrameHeader decode_header(const std::uint8_t* buf) {
  const std::uint32_t magic = get_le32(buf);
  if (magic != kMagic) {
    throw FrameError("frame: bad magic 0x" + std::to_string(magic));
  }
  FrameHeader h;
  h.version = buf[4];
  if (h.version != kWireVersion) {
    throw FrameError("frame: unsupported version " +
                     std::to_string(int{h.version}));
  }
  const std::uint8_t raw_type = buf[5];
  if (!known_frame_type(raw_type)) {
    throw FrameError("frame: unknown type " + std::to_string(int{raw_type}));
  }
  h.type = static_cast<FrameType>(raw_type);
  if (get_le16(buf + 6) != 0) {
    throw FrameError("frame: nonzero reserved field");
  }
  h.payload_len = get_le32(buf + 8);
  if (h.payload_len > kMaxPayload) {
    throw FrameError("frame: declared payload " +
                     std::to_string(h.payload_len) + " exceeds cap " +
                     std::to_string(kMaxPayload));
  }
  h.payload_crc = get_le32(buf + 12);
  return h;
}

std::vector<std::uint8_t> encode_frame(
    FrameType type, const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxPayload) {
    throw FrameError("frame: payload too large to encode");
  }
  FrameHeader h;
  h.type = type;
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  h.payload_crc = crc32(payload.data(), payload.size());
  std::vector<std::uint8_t> out(kHeaderSize + payload.size());
  encode_header(h, out.data());
  if (!payload.empty()) {  // empty payloads (e.g. kGoodbye) have data()==null
    std::memcpy(out.data() + kHeaderSize, payload.data(), payload.size());
  }
  return out;
}

Frame decode_frame(const std::uint8_t* buf, std::size_t n) {
  if (n < kHeaderSize) {
    throw FrameError("frame: truncated header (" + std::to_string(n) +
                     " of " + std::to_string(kHeaderSize) + " bytes)");
  }
  const FrameHeader h = decode_header(buf);
  if (n != kHeaderSize + h.payload_len) {
    throw FrameError("frame: payload length mismatch (declared " +
                     std::to_string(h.payload_len) + ", have " +
                     std::to_string(n - kHeaderSize) + ")");
  }
  const std::uint8_t* payload = buf + kHeaderSize;
  if (crc32(payload, h.payload_len) != h.payload_crc) {
    throw FrameError("frame: payload CRC mismatch");
  }
  Frame f;
  f.type = h.type;
  f.payload.assign(payload, payload + h.payload_len);
  return f;
}

// ---------------------------------------------------------------- writer

void WireWriter::u16(std::uint16_t v) {
  std::uint8_t b[2];
  put_le16(b, v);
  buf_.insert(buf_.end(), b, b + 2);
}
void WireWriter::u32(std::uint32_t v) {
  std::uint8_t b[4];
  put_le32(b, v);
  buf_.insert(buf_.end(), b, b + 4);
}
void WireWriter::u64(std::uint64_t v) {
  std::uint8_t b[8];
  put_le64(b, v);
  buf_.insert(buf_.end(), b, b + 8);
}
void WireWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::str(const std::string& s) {
  if (s.size() > kMaxString) {
    throw FrameError("frame: string too long to encode");
  }
  u32(static_cast<std::uint32_t>(s.size()));
  bytes(s.data(), s.size());
}

void WireWriter::bytes(const void* data, std::size_t n) {
  if (n == 0) return;  // empty sources may hand us a null pointer
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void WireWriter::tensor_i8(const tensor::TensorI8& t) {
  const tensor::Shape& shape = t.shape();
  if (shape.rank() > kMaxTensorRank) {
    throw FrameError("frame: tensor rank too high to encode");
  }
  u8(static_cast<std::uint8_t>(shape.rank()));
  for (std::size_t i = 0; i < shape.rank(); ++i) i64(shape[i]);
  bytes(t.data(), static_cast<std::size_t>(t.numel()));
}

// ---------------------------------------------------------------- reader

const std::uint8_t* WireReader::need(std::size_t n) {
  if (n_ - off_ < n) {
    throw FrameError("frame: truncated payload (need " + std::to_string(n) +
                     " bytes, have " + std::to_string(n_ - off_) + ")");
  }
  const std::uint8_t* p = p_ + off_;
  off_ += n;
  return p;
}

std::uint8_t WireReader::u8() { return *need(1); }
std::uint16_t WireReader::u16() { return get_le16(need(2)); }
std::uint32_t WireReader::u32() { return get_le32(need(4)); }
std::uint64_t WireReader::u64() { return get_le64(need(8)); }
double WireReader::f64() { return std::bit_cast<double>(u64()); }

std::string WireReader::str() {
  const std::uint32_t len = u32();
  if (len > WireWriter::kMaxString) {
    throw FrameError("frame: declared string length " + std::to_string(len) +
                     " exceeds cap");
  }
  const std::uint8_t* p = need(len);
  return std::string(reinterpret_cast<const char*>(p), len);
}

tensor::TensorI8 WireReader::tensor_i8() {
  const std::uint8_t rank = u8();
  if (rank > kMaxTensorRank) {
    throw FrameError("frame: tensor rank " + std::to_string(int{rank}) +
                     " exceeds cap");
  }
  std::array<std::int64_t, tensor::Shape::kMaxRank> dims{};
  std::int64_t numel = rank > 0 ? 1 : 0;
  for (std::uint8_t i = 0; i < rank; ++i) {
    const std::int64_t d = i64();
    if (d < 0 || d > kMaxTensorDim) {
      throw FrameError("frame: tensor dim out of range");
    }
    dims[i] = d;
    numel *= d;
    if (numel > kMaxTensorNumel) {
      throw FrameError("frame: tensor numel exceeds cap");
    }
  }
  const tensor::Shape shape(dims.data(), rank);
  // Bounds-check against the remaining bytes BEFORE allocating.
  if (remaining() < static_cast<std::size_t>(numel)) {
    throw FrameError("frame: truncated tensor body");
  }
  tensor::TensorI8 t(shape);
  if (numel > 0) {  // a zero-dim shape is legal; memcpy args must be non-null
    const std::uint8_t* p = need(static_cast<std::size_t>(numel));
    std::memcpy(t.data(), p, static_cast<std::size_t>(numel));
  }
  return t;
}

void WireReader::expect_end() const {
  if (off_ != n_) {
    throw FrameError("frame: " + std::to_string(n_ - off_) +
                     " trailing bytes after payload");
  }
}

// --------------------------------------------------------------- payloads

std::vector<std::uint8_t> WireHello::encode() const {
  if (rungs.size() > kMaxRungs) {
    throw FrameError("hello: too many rungs to encode");
  }
  WireWriter w;
  w.str(name);
  w.i32(rung_offset);
  w.u64(queue_capacity);
  w.u16(static_cast<std::uint16_t>(rungs.size()));
  for (const Rung& r : rungs) {
    w.str(r.model);
    w.f64(r.seconds_per_frame);
    w.f64(r.watts);
    w.f64(r.joules_per_frame);
    w.u32(r.digest);
  }
  return w.take();
}

WireHello WireHello::decode(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WireHello h;
  h.name = r.str();
  h.rung_offset = r.i32();
  h.queue_capacity = r.u64();
  const std::uint16_t n = r.u16();
  // Telemetry levels index this table, so a worker must announce a rung.
  if (n == 0 || n > kMaxRungs) {
    throw FrameError("hello: rung count outside 1..cap");
  }
  h.rungs.resize(n);
  for (Rung& rung : h.rungs) {
    rung.model = r.str();
    rung.seconds_per_frame = r.f64();
    rung.watts = r.f64();
    rung.joules_per_frame = r.f64();
    rung.digest = r.u32();
  }
  r.expect_end();
  return h;
}

std::vector<std::uint8_t> WireRequest::encode() const {
  WireWriter w;
  w.u64(corr_id);
  w.u8(static_cast<std::uint8_t>(priority));
  w.u32(tenant);
  w.f64(deadline_rel_ms);
  w.tensor_i8(input);
  return w.take();
}

WireRequest WireRequest::decode(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WireRequest req;
  req.corr_id = r.u64();
  const std::uint8_t prio = r.u8();
  if (prio > static_cast<std::uint8_t>(Priority::kBatch)) {
    throw FrameError("request: bad priority " + std::to_string(int{prio}));
  }
  req.priority = static_cast<Priority>(prio);
  req.tenant = r.u32();
  req.deadline_rel_ms = r.f64();
  if (!(req.deadline_rel_ms >= 0.0) || req.deadline_rel_ms > 1e12) {
    throw FrameError("request: deadline out of range");  // also rejects NaN
  }
  req.input = r.tensor_i8();
  r.expect_end();
  return req;
}

std::vector<std::uint8_t> WireResponse::encode() const {
  WireWriter w;
  w.u64(corr_id);
  w.u8(static_cast<std::uint8_t>(status));
  w.u8(degraded ? 1 : 0);
  w.u32(batch_size);
  w.u64(served_seq);
  w.f64(queue_ms);
  w.f64(service_ms);
  w.f64(total_ms);
  w.str(model_used);
  w.u8(has_output ? 1 : 0);
  if (has_output) w.tensor_i8(output);
  return w.take();
}

WireResponse WireResponse::decode(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WireResponse resp;
  resp.corr_id = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(Status::kMigrated)) {
    throw FrameError("response: bad status " + std::to_string(int{status}));
  }
  resp.status = static_cast<Status>(status);
  const std::uint8_t degraded = r.u8();
  if (degraded > 1) throw FrameError("response: bad degraded flag");
  resp.degraded = degraded != 0;
  resp.batch_size = r.u32();
  resp.served_seq = r.u64();
  resp.queue_ms = r.f64();
  resp.service_ms = r.f64();
  resp.total_ms = r.f64();
  resp.model_used = r.str();
  const std::uint8_t has_output = r.u8();
  if (has_output > 1) throw FrameError("response: bad output flag");
  resp.has_output = has_output != 0;
  if (resp.has_output) resp.output = r.tensor_i8();
  r.expect_end();
  return resp;
}

std::vector<std::uint8_t> WireHeartbeat::encode() const {
  WireWriter w;
  w.u64(seq);
  return w.take();
}

WireHeartbeat WireHeartbeat::decode(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WireHeartbeat hb;
  hb.seq = r.u64();
  r.expect_end();
  return hb;
}

std::vector<std::uint8_t> WireTelemetry::encode() const {
  if (rungs.size() > WireHello::kMaxRungs) {
    throw FrameError("telemetry: too many rungs to encode");
  }
  WireWriter w;
  w.u64(seq);
  w.u64(submitted);
  w.u64(served);
  w.u64(rejected);
  w.u64(expired);
  w.u64(errors);
  w.u64(degraded);
  w.u64(migrated);
  w.u32(queue_depth);
  w.i32(level);
  w.u8(fault ? 1 : 0);
  w.f64(ewma_latency_ms);
  w.u64(frames_served);
  w.f64(energy_joules);
  w.f64(busy_seconds);
  w.u16(static_cast<std::uint16_t>(rungs.size()));
  for (const Rung& r : rungs) {
    w.f64(r.seconds_per_frame);
    w.f64(r.joules_per_frame);
    w.f64(r.occupancy);
  }
  return w.take();
}

WireTelemetry WireTelemetry::decode(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WireTelemetry t;
  t.seq = r.u64();
  t.submitted = r.u64();
  t.served = r.u64();
  t.rejected = r.u64();
  t.expired = r.u64();
  t.errors = r.u64();
  t.degraded = r.u64();
  t.migrated = r.u64();
  t.queue_depth = r.u32();
  t.level = r.i32();
  const std::uint8_t fault = r.u8();
  if (fault > 1) throw FrameError("telemetry: bad fault flag");
  t.fault = fault != 0;
  t.ewma_latency_ms = r.f64();
  t.frames_served = r.u64();
  t.energy_joules = r.f64();
  t.busy_seconds = r.f64();
  const std::uint16_t n = r.u16();
  if (n > WireHello::kMaxRungs) {
    throw FrameError("telemetry: rung count exceeds cap");
  }
  t.rungs.resize(n);
  for (Rung& rung : t.rungs) {
    rung.seconds_per_frame = r.f64();
    rung.joules_per_frame = r.f64();
    rung.occupancy = r.f64();
  }
  r.expect_end();
  return t;
}

std::vector<std::uint8_t> WireControl::encode() const {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(op));
  return w.take();
}

WireControl WireControl::decode(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  const std::uint8_t raw = r.u8();
  if (raw < static_cast<std::uint8_t>(Op::kEvictQueued) ||
      raw > static_cast<std::uint8_t>(Op::kShutdown)) {
    throw FrameError("control: unknown op " + std::to_string(int{raw}));
  }
  WireControl c;
  c.op = static_cast<Op>(raw);
  r.expect_end();
  return c;
}

}  // namespace seneca::serve::net
