#pragma once
// SENECA-Wire frame layer: the length-prefixed binary protocol spoken
// between the cluster router (via net::RemoteBoard) and worker processes
// (seneca_boardd). Design constraints, in order:
//   - a malformed or truncated byte stream must produce a clean FrameError,
//     never a crash, hang, or over-allocation (the decoder is fuzzed by a
//     seeded byte-mutation sweep in tests/serve_net_frame_test.cpp and runs
//     under the ASan/UBSan CI matrix);
//   - explicit little-endian encoding of every field, so the wire format is
//     host-independent (an aarch64 boardd can serve an x86 router);
//   - every frame carries a CRC32 over its payload, so a flipped bit fails
//     loudly at decode instead of corrupting a tensor silently.
//
// Frame layout (header is kHeaderSize = 16 bytes, all little-endian):
//
//   offset  size  field
//        0     4  magic        0x52574E53 ("SNWR")
//        4     1  version      kWireVersion (2)
//        5     1  type         FrameType
//        6     2  reserved     must be zero
//        8     4  payload_len  <= kMaxPayload
//       12     4  payload_crc  CRC32 (IEEE) of the payload bytes
//       16   ...  payload      payload_len bytes
//
// Payload schemas live in the Wire* structs below; each encodes through a
// bounds-checked WireWriter and decodes through a WireReader that throws
// FrameError on any overrun, range violation, or trailing garbage.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/request.hpp"
#include "tensor/tensor.hpp"

namespace seneca::serve::net {

/// Every protocol-level failure (bad magic, truncated payload, CRC
/// mismatch, out-of-range field) decodes to exactly this exception.
class FrameError : public std::runtime_error {
 public:
  explicit FrameError(const std::string& what) : std::runtime_error(what) {}
};

constexpr std::uint32_t kMagic = 0x52574E53u;  // "SNWR" in LE byte order
constexpr std::uint8_t kWireVersion = 2;
constexpr std::size_t kHeaderSize = 16;
/// Hard ceiling on a declared payload length: decoders reject anything
/// larger before allocating, so a corrupt length field cannot OOM the
/// process. 64 MiB comfortably holds a 4096x4096 int8 frame.
constexpr std::uint32_t kMaxPayload = 1u << 26;

enum class FrameType : std::uint8_t {
  kHello = 1,      // boardd -> router, once per connection: board identity
  kRequest = 2,    // router -> boardd: one inference request
  kResponse = 3,   // boardd -> router: terminal status for one request
  kHeartbeat = 4,  // router -> boardd: liveness probe
  kTelemetry = 5,  // boardd -> router: heartbeat ack + live board stats
  kControl = 6,    // router -> boardd: evict / fault / shutdown verbs
  kGoodbye = 7,    // either side: orderly close
};
const char* to_string(FrameType t);
bool known_frame_type(std::uint8_t raw);

struct FrameHeader {
  std::uint8_t version = kWireVersion;
  FrameType type = FrameType::kHeartbeat;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

/// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320), the zlib polynomial.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

/// Serializes a header into exactly kHeaderSize bytes at `out`.
void encode_header(const FrameHeader& h, std::uint8_t* out);
/// Parses and validates kHeaderSize bytes: magic, version, known type,
/// zero reserved field, payload_len <= kMaxPayload. Throws FrameError.
FrameHeader decode_header(const std::uint8_t* buf);

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::vector<std::uint8_t> payload;
};

/// Header + payload as one contiguous buffer, CRC filled in.
std::vector<std::uint8_t> encode_frame(FrameType type,
                                       const std::vector<std::uint8_t>& payload);
/// Decodes one complete frame from `buf` (which must hold the whole frame,
/// nothing more). Validates header, length, and CRC. Throws FrameError.
Frame decode_frame(const std::uint8_t* buf, std::size_t n);

// ---------------------------------------------------------------- writer

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(const std::string& s);  // u32 length + bytes; length <= kMaxString
  void bytes(const void* data, std::size_t n);
  void tensor_i8(const tensor::TensorI8& t);  // rank + dims + raw int8 data

  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

  static constexpr std::uint32_t kMaxString = 4096;

 private:
  std::vector<std::uint8_t> buf_;
};

// ---------------------------------------------------------------- reader

class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t n) : p_(data), n_(n) {}
  explicit WireReader(const std::vector<std::uint8_t>& v)
      : WireReader(v.data(), v.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();
  tensor::TensorI8 tensor_i8();

  std::size_t remaining() const { return n_ - off_; }
  /// Schemas are exact in v1: trailing bytes mean a mis-framed payload.
  void expect_end() const;

 private:
  const std::uint8_t* need(std::size_t n);  // throws FrameError on overrun

  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t off_ = 0;
};

// --------------------------------------------------------------- payloads

/// Sent by boardd immediately after accepting a connection: everything the
/// router needs to construct the board's routing view.
struct WireHello {
  std::string name;
  std::int32_t rung_offset = 0;
  std::uint64_t queue_capacity = 0;
  struct Rung {
    std::string model;
    double seconds_per_frame = 0.0;
    double watts = 0.0;
    double joules_per_frame = 0.0;
  };
  std::vector<Rung> rungs;  // construction-time DES-priced cost table

  std::vector<std::uint8_t> encode() const;
  static WireHello decode(const std::vector<std::uint8_t>& payload);
  static constexpr std::size_t kMaxRungs = 256;
};

struct WireRequest {
  std::uint64_t corr_id = 0;  // router-side correlation id
  Priority priority = Priority::kBatch;
  TenantId tenant = kDefaultTenant;
  /// Milliseconds of deadline budget remaining at send time; 0 = none.
  double deadline_rel_ms = 0.0;
  tensor::TensorI8 input;

  std::vector<std::uint8_t> encode() const;
  static WireRequest decode(const std::vector<std::uint8_t>& payload);
};

struct WireResponse {
  std::uint64_t corr_id = 0;
  Status status = Status::kRejected;
  bool degraded = false;
  std::uint32_t batch_size = 1;
  std::uint64_t served_seq = 0;
  double queue_ms = 0.0;
  double service_ms = 0.0;
  double total_ms = 0.0;
  std::string model_used;
  bool has_output = false;
  tensor::TensorI8 output;  // present iff has_output

  std::vector<std::uint8_t> encode() const;
  static WireResponse decode(const std::vector<std::uint8_t>& payload);
};

struct WireHeartbeat {
  std::uint64_t seq = 0;

  std::vector<std::uint8_t> encode() const;
  static WireHeartbeat decode(const std::vector<std::uint8_t>& payload);
};

/// Heartbeat ack plus the live-signals stream the router's re-pricing and
/// health layers consume. Counter semantics match MetricsSnapshot.
struct WireTelemetry {
  std::uint64_t seq = 0;  // echoes the heartbeat that solicited it
  std::uint64_t submitted = 0;
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  std::uint64_t errors = 0;
  std::uint64_t degraded = 0;
  std::uint64_t migrated = 0;
  std::uint32_t queue_depth = 0;
  std::int32_t level = 0;
  bool fault = false;
  double ewma_latency_ms = 0.0;
  std::uint64_t frames_served = 0;
  double energy_joules = 0.0;
  double busy_seconds = 0.0;
  struct Rung {
    double seconds_per_frame = 0.0;  // effective (observed-repriced) cost
    double joules_per_frame = 0.0;
    double occupancy = 0.0;  // EWMA batch size at this rung
  };
  std::vector<Rung> rungs;

  std::vector<std::uint8_t> encode() const;
  static WireTelemetry decode(const std::vector<std::uint8_t>& payload);
};

struct WireControl {
  enum class Op : std::uint8_t {
    kEvictQueued = 1,  // migrate still-queued requests back to the router
    kFaultOn = 2,      // operator fault injection (tests/demos)
    kFaultOff = 3,
    kShutdown = 4,  // orderly process exit
  };
  Op op = Op::kEvictQueued;

  std::vector<std::uint8_t> encode() const;
  static WireControl decode(const std::vector<std::uint8_t>& payload);
};

}  // namespace seneca::serve::net
