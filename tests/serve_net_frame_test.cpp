// SENECA-Wire frame layer: round-trips for every payload schema, then the
// hostile half — truncated headers, oversized lengths, bad magic/version,
// flipped payload bits, trailing garbage, and a seeded byte-mutation sweep.
// The decoder contract: any malformed input throws FrameError; it never
// crashes, hangs, or allocates unbounded memory (ASan/UBSan CI bites here).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "serve/net/frame.hpp"
#include "util/rng.hpp"

namespace {

using namespace seneca;
using namespace seneca::serve::net;

tensor::TensorI8 make_tensor(std::int64_t h, std::int64_t w, std::int64_t c) {
  tensor::TensorI8 t(tensor::Shape{h, w, c});
  std::int8_t v = -5;
  for (auto& x : t) x = v++;
  return t;
}

// ---------------------------------------------------------------- headers

TEST(WireHeader, RoundTrip) {
  FrameHeader h;
  h.type = FrameType::kTelemetry;
  h.payload_len = 12345;
  h.payload_crc = 0xDEADBEEF;
  std::uint8_t buf[kHeaderSize];
  encode_header(h, buf);
  const FrameHeader d = decode_header(buf);
  EXPECT_EQ(d.version, kWireVersion);
  EXPECT_EQ(d.type, FrameType::kTelemetry);
  EXPECT_EQ(d.payload_len, 12345u);
  EXPECT_EQ(d.payload_crc, 0xDEADBEEFu);
}

TEST(WireHeader, RejectsBadMagic) {
  FrameHeader h;
  std::uint8_t buf[kHeaderSize];
  encode_header(h, buf);
  buf[0] ^= 0xFF;
  EXPECT_THROW(decode_header(buf), FrameError);
}

TEST(WireHeader, RejectsBadVersion) {
  FrameHeader h;
  std::uint8_t buf[kHeaderSize];
  encode_header(h, buf);
  // A newer peer, and an older one (version 1 telemetry carried a byte
  // version 2 dropped, so its frames would misparse).
  for (const int version : {kWireVersion + 1, kWireVersion - 1}) {
    buf[4] = static_cast<std::uint8_t>(version);
    EXPECT_THROW(decode_header(buf), FrameError) << "version " << version;
  }
}

TEST(WireHeader, RejectsUnknownFrameType) {
  FrameHeader h;
  std::uint8_t buf[kHeaderSize];
  encode_header(h, buf);
  buf[5] = 0;  // below kHello
  EXPECT_THROW(decode_header(buf), FrameError);
  buf[5] = 200;  // above kGoodbye
  EXPECT_THROW(decode_header(buf), FrameError);
}

TEST(WireHeader, RejectsNonzeroReserved) {
  FrameHeader h;
  std::uint8_t buf[kHeaderSize];
  encode_header(h, buf);
  buf[6] = 1;
  EXPECT_THROW(decode_header(buf), FrameError);
}

TEST(WireHeader, RejectsOversizedPayloadLength) {
  // A corrupt length field must be rejected BEFORE any allocation happens:
  // the declared length below would be a 4 GiB buffer.
  FrameHeader h;
  std::uint8_t buf[kHeaderSize];
  encode_header(h, buf);
  buf[8] = buf[9] = buf[10] = buf[11] = 0xFF;
  EXPECT_THROW(decode_header(buf), FrameError);
}

// ----------------------------------------------------------------- frames

TEST(WireFrame, RoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 251};
  const std::vector<std::uint8_t> buf =
      encode_frame(FrameType::kControl, payload);
  ASSERT_EQ(buf.size(), kHeaderSize + payload.size());
  const Frame f = decode_frame(buf.data(), buf.size());
  EXPECT_EQ(f.type, FrameType::kControl);
  EXPECT_EQ(f.payload, payload);
}

TEST(WireFrame, RejectsTruncation) {
  const std::vector<std::uint8_t> buf =
      encode_frame(FrameType::kHeartbeat, WireHeartbeat{42}.encode());
  // Every strict prefix must fail cleanly — header cut short, payload cut
  // short, all of it.
  for (std::size_t n = 0; n < buf.size(); ++n) {
    EXPECT_THROW(decode_frame(buf.data(), n), FrameError) << "prefix " << n;
  }
}

TEST(WireFrame, RejectsTrailingBytes) {
  std::vector<std::uint8_t> buf =
      encode_frame(FrameType::kHeartbeat, WireHeartbeat{7}.encode());
  buf.push_back(0xAB);
  EXPECT_THROW(decode_frame(buf.data(), buf.size()), FrameError);
}

TEST(WireFrame, RejectsPayloadBitFlip) {
  const std::vector<std::uint8_t> payload(64, 0x5A);
  std::vector<std::uint8_t> buf = encode_frame(FrameType::kRequest, payload);
  buf[kHeaderSize + 10] ^= 0x01;  // single flipped bit in the payload
  EXPECT_THROW(decode_frame(buf.data(), buf.size()), FrameError);
}

TEST(WireFrame, Crc32KnownVector) {
  // The classic zlib check value: crc32("123456789") == 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

// --------------------------------------------------------------- payloads

TEST(WirePayload, HelloRoundTrip) {
  WireHello h;
  h.name = "zcu104-a";
  h.rung_offset = 2;
  h.queue_capacity = 48;
  h.rungs.push_back({"8M", 0.033, 9.5, 0.31});
  h.rungs.push_back({"2M", 0.009, 8.0, 0.07});
  const WireHello d = WireHello::decode(h.encode());
  EXPECT_EQ(d.name, "zcu104-a");
  EXPECT_EQ(d.rung_offset, 2);
  EXPECT_EQ(d.queue_capacity, 48u);
  ASSERT_EQ(d.rungs.size(), 2u);
  EXPECT_EQ(d.rungs[1].model, "2M");
  EXPECT_DOUBLE_EQ(d.rungs[0].seconds_per_frame, 0.033);
  EXPECT_DOUBLE_EQ(d.rungs[1].watts, 8.0);
}

TEST(WirePayload, RequestRoundTripPreservesTensor) {
  WireRequest r;
  r.corr_id = 77;
  r.priority = serve::Priority::kInteractive;
  r.tenant = 3;
  r.deadline_rel_ms = 150.5;
  r.input = make_tensor(4, 4, 2);
  const WireRequest d = WireRequest::decode(r.encode());
  EXPECT_EQ(d.corr_id, 77u);
  EXPECT_EQ(d.priority, serve::Priority::kInteractive);
  EXPECT_EQ(d.tenant, 3u);
  EXPECT_DOUBLE_EQ(d.deadline_rel_ms, 150.5);
  ASSERT_EQ(d.input.shape(), r.input.shape());
  EXPECT_EQ(0, std::memcmp(d.input.data(), r.input.data(),
                           static_cast<std::size_t>(r.input.numel())));
}

TEST(WirePayload, ResponseRoundTrip) {
  WireResponse r;
  r.corr_id = 9001;
  r.status = serve::Status::kOk;
  r.degraded = true;
  r.batch_size = 4;
  r.served_seq = 12;
  r.queue_ms = 1.5;
  r.service_ms = 8.25;
  r.total_ms = 9.75;
  r.model_used = "4M";
  r.has_output = true;
  r.output = make_tensor(2, 2, 1);
  const WireResponse d = WireResponse::decode(r.encode());
  EXPECT_EQ(d.corr_id, 9001u);
  EXPECT_EQ(d.status, serve::Status::kOk);
  EXPECT_TRUE(d.degraded);
  EXPECT_EQ(d.batch_size, 4u);
  EXPECT_EQ(d.model_used, "4M");
  ASSERT_TRUE(d.has_output);
  EXPECT_EQ(d.output.shape(), r.output.shape());
}

TEST(WirePayload, ResponseWithoutOutputHasNoTensorBytes) {
  WireResponse r;
  r.status = serve::Status::kMigrated;
  const std::vector<std::uint8_t> enc = r.encode();
  const WireResponse d = WireResponse::decode(enc);
  EXPECT_EQ(d.status, serve::Status::kMigrated);
  EXPECT_FALSE(d.has_output);
  EXPECT_EQ(d.output.numel(), 0);
}

TEST(WirePayload, TelemetryRoundTrip) {
  WireTelemetry t;
  t.seq = 5;
  t.submitted = 100;
  t.served = 90;
  t.migrated = 3;
  t.queue_depth = 7;
  t.level = 1;
  t.fault = true;
  t.ewma_latency_ms = 12.5;
  t.frames_served = 88;
  t.energy_joules = 3.25;
  t.busy_seconds = 0.5;
  t.rungs.push_back({0.02, 0.2, 1.5});
  const WireTelemetry d = WireTelemetry::decode(t.encode());
  EXPECT_EQ(d.seq, 5u);
  EXPECT_EQ(d.submitted, 100u);
  EXPECT_EQ(d.migrated, 3u);
  EXPECT_EQ(d.level, 1);
  EXPECT_TRUE(d.fault);
  ASSERT_EQ(d.rungs.size(), 1u);
  EXPECT_DOUBLE_EQ(d.rungs[0].occupancy, 1.5);
}

TEST(WirePayload, ControlRoundTrip) {
  for (auto op : {WireControl::Op::kEvictQueued, WireControl::Op::kFaultOn,
                  WireControl::Op::kFaultOff, WireControl::Op::kShutdown}) {
    const WireControl d = WireControl::decode(WireControl{op}.encode());
    EXPECT_EQ(d.op, op);
  }
}

TEST(WirePayload, ControlRejectsUnknownOp) {
  WireWriter w;
  w.u8(99);
  EXPECT_THROW(WireControl::decode(w.take()), FrameError);
}

TEST(WirePayload, RejectsTruncatedPayloads) {
  WireRequest r;
  r.input = make_tensor(3, 3, 1);
  const std::vector<std::uint8_t> full = r.encode();
  for (std::size_t n = 0; n < full.size(); ++n) {
    const std::vector<std::uint8_t> cut(full.begin(),
                                        full.begin() + static_cast<long>(n));
    EXPECT_THROW(WireRequest::decode(cut), FrameError) << "prefix " << n;
  }
}

TEST(WirePayload, RejectsTrailingGarbage) {
  std::vector<std::uint8_t> enc = WireHeartbeat{1}.encode();
  enc.push_back(0);
  EXPECT_THROW(WireHeartbeat::decode(enc), FrameError);
}

TEST(WirePayload, StringLengthCapEnforced) {
  // A declared string length far past the buffer must throw before any
  // attempt to read (or allocate) that much.
  WireWriter w;
  w.u32(0xFFFFFFFFu);
  EXPECT_THROW(WireHello::decode(w.take()), FrameError);
}

TEST(WirePayload, TensorDimAndNumelCapsEnforced) {
  {
    WireWriter w;  // rank 12 > cap
    w.u64(1);      // corr_id
    w.u8(0);       // priority
    w.u32(0);      // tenant
    w.f64(0.0);    // deadline
    w.u8(12);
    EXPECT_THROW(WireRequest::decode(w.take()), FrameError);
  }
  {
    WireWriter w;  // dims whose product overflows the numel cap
    w.u64(1);
    w.u8(0);
    w.u32(0);
    w.f64(0.0);
    w.u8(3);
    w.i64(1 << 20);
    w.i64(1 << 20);
    w.i64(1 << 20);
    EXPECT_THROW(WireRequest::decode(w.take()), FrameError);
  }
}

// --------------------------------------------------------- mutation sweep

// Seeded corruption sweep: take valid frames of every type, smash them with
// random byte mutations / truncations / extensions, and require that decode
// either succeeds (mutation may hit a don't-care or cancel out in CRC-free
// fields — impossible here since CRC covers the payload, but harmless) or
// throws FrameError. Anything else — crash, hang, other exception — fails.
TEST(WireFuzz, SeededMutationSweepNeverCrashes) {
  std::vector<std::vector<std::uint8_t>> corpus;
  {
    WireHello h;
    h.name = "b";
    h.rungs.push_back({"4M", 0.01, 9.0, 0.09});
    corpus.push_back(encode_frame(FrameType::kHello, h.encode()));
    WireRequest r;
    r.input = make_tensor(4, 4, 1);
    corpus.push_back(encode_frame(FrameType::kRequest, r.encode()));
    WireResponse resp;
    resp.has_output = true;
    resp.output = make_tensor(2, 2, 1);
    corpus.push_back(encode_frame(FrameType::kResponse, resp.encode()));
    corpus.push_back(
        encode_frame(FrameType::kHeartbeat, WireHeartbeat{3}.encode()));
    WireTelemetry t;
    t.rungs.push_back({0.01, 0.1, 1.0});
    corpus.push_back(encode_frame(FrameType::kTelemetry, t.encode()));
    corpus.push_back(encode_frame(
        FrameType::kControl, WireControl{WireControl::Op::kFaultOn}.encode()));
    corpus.push_back(encode_frame(FrameType::kGoodbye, {}));
  }

  util::Rng rng(0xF4A2);
  int decoded_ok = 0;
  int rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::uint8_t> buf =
        corpus[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<int>(corpus.size()) - 1))];
    const int n_mut = static_cast<int>(rng.uniform_int(1, 8));
    for (int m = 0; m < n_mut; ++m) {
      switch (rng.uniform_int(0, 3)) {
        case 0:  // flip a byte
          if (!buf.empty()) {
            buf[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<int>(buf.size()) - 1))] ^=
                static_cast<std::uint8_t>(rng.uniform_int(1, 255));
          }
          break;
        case 1:  // truncate
          if (!buf.empty()) {
            buf.resize(static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<int>(buf.size()) - 1)));
          }
          break;
        case 2:  // append garbage
          buf.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
          break;
        default:  // overwrite a run with one value
          if (!buf.empty()) {
            const auto at = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<int>(buf.size()) - 1));
            const auto len = std::min<std::size_t>(
                static_cast<std::size_t>(rng.uniform_int(1, 16)),
                buf.size() - at);
            std::memset(buf.data() + at,
                        static_cast<int>(rng.uniform_int(0, 255)), len);
          }
          break;
      }
    }
    try {
      const Frame f = decode_frame(buf.data(), buf.size());
      // Frame-level CRC passed; payload decode must ALSO hold the contract.
      switch (f.type) {
        case FrameType::kHello: WireHello::decode(f.payload); break;
        case FrameType::kRequest: WireRequest::decode(f.payload); break;
        case FrameType::kResponse: WireResponse::decode(f.payload); break;
        case FrameType::kHeartbeat: WireHeartbeat::decode(f.payload); break;
        case FrameType::kTelemetry: WireTelemetry::decode(f.payload); break;
        case FrameType::kControl: WireControl::decode(f.payload); break;
        case FrameType::kGoodbye: break;
      }
      ++decoded_ok;
    } catch (const FrameError&) {
      ++rejected;
    }
  }
  // The sweep must have exercised the reject paths heavily; a sweep where
  // almost everything decoded means the mutations weren't biting.
  EXPECT_GT(rejected, 3000) << "ok=" << decoded_ok;
}

}  // namespace
