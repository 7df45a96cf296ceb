// XModel v2 deserializer hostility suite: the .xmodel file is the artifact
// that crosses machines (compile-once/deploy-many, SENECA-Wire shipping),
// so corrupted or adversarial bytes must produce a descriptive
// std::runtime_error — never a crash, hang, or unbounded allocation. The
// main sweep is a 4000-iteration seeded byte-mutation fuzz mirroring the
// wire-frame suite; targeted tests pin the count-field allocation guards,
// the shape-size guard and the verifier's overflow-safe weight count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/workflow.hpp"
#include "dpu/compiler.hpp"
#include "dpu/verify.hpp"
#include "dpu/xmodel.hpp"
#include "util/rng.hpp"

namespace seneca::dpu {
namespace {

XModel compiled(int opt_level) {
  CompileOptions opts;
  opts.model_name = "1M";
  opts.opt_level = opt_level;
  return compile(core::build_timing_qgraph("1M", 64), opts);
}

/// Overwrites the little-endian u64 at `pos` in-place.
void patch_u64(std::vector<std::uint8_t>& buf, std::size_t pos,
               std::uint64_t v) {
  ASSERT_LE(pos + 8, buf.size());
  for (int i = 0; i < 8; ++i) {
    buf[pos + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

TEST(XModelWire, SerializeDeserializeRoundTripsByteExactly) {
  const XModel m = compiled(1);
  const std::vector<std::uint8_t> bytes = m.serialize();
  const XModel back = XModel::deserialize(bytes);
  EXPECT_EQ(back.serialize(), bytes);
  EXPECT_EQ(back.name, m.name);
  EXPECT_EQ(back.layers.size(), m.layers.size());
  EXPECT_TRUE(verify(back).empty());
}

TEST(XModelWire, BadMagicIsDescriptive) {
  try {
    XModel::deserialize({'j', 'u', 'n', 'k'});
    FAIL() << "decoded junk";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("xmodel"), std::string::npos);
  }
}

TEST(XModelWire, HugeBiasCountRejectedBeforeAllocation) {
  // The file ends with [u64 wn][wn bytes][u64 bn][bn*4 bytes]; patch each
  // trailing count to ~2^63 and require an immediate descriptive reject —
  // a missing guard here would try to allocate exabytes (and bn*4 would
  // overflow to a small size, passing the read while resize() dies).
  const XModel m = compiled(0);
  const std::size_t bn = m.biases.size();
  {
    std::vector<std::uint8_t> buf = m.serialize();
    patch_u64(buf, buf.size() - 4 * bn - 8, 0x7FFFFFFFFFFFFFFFull);
    try {
      XModel::deserialize(buf);
      FAIL() << "decoded a huge bias count";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bias count"), std::string::npos);
    }
  }
  {
    std::vector<std::uint8_t> buf = m.serialize();
    const std::size_t wn_pos = buf.size() - 4 * bn - 8 - m.weights.size() - 8;
    patch_u64(buf, wn_pos, 0xFFFFFFFFFFFFFFFFull);
    try {
      XModel::deserialize(buf);
      FAIL() << "decoded a huge weight count";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("weight count"), std::string::npos);
    }
  }
}

TEST(XModelWire, HugeShapeRejectedBeforeUse) {
  // Dims whose product passes 2^63 would overflow Shape::numel() in every
  // consumer (the verifier's footprint checks first).
  XModel m = compiled(1);
  m.input_shape = Shape{1 << 22, 1 << 22, 1 << 22};
  try {
    XModel::deserialize(m.serialize());
    FAIL() << "decoded a 2^66-element input shape";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shape too large"),
              std::string::npos);
  }
}

TEST(XModelWire, HugeKernelIsAFindingNotAnOverflow) {
  // A corrupted kernel field overflows k*k*ci*co; the verifier must report
  // the mismatch without doing the overflowing arithmetic.
  XModel m = compiled(1);
  auto conv = std::find_if(
      m.layers.begin(), m.layers.end(),
      [](const XLayer& l) { return l.kind == XLayer::Kind::kConv; });
  ASSERT_NE(conv, m.layers.end());
  conv->kernel = std::int64_t{1} << 40;
  const std::vector<Finding> findings = verify(m);
  EXPECT_TRUE(std::any_of(
      findings.begin(), findings.end(), [](const Finding& f) {
        return f.check == "structure" &&
               f.message.find("(overflow)") != std::string::npos;
      }));
}

TEST(XModelWire, TruncatedPrefixesAlwaysThrow) {
  const std::vector<std::uint8_t> bytes = compiled(1).serialize();
  util::Rng rng(0x5ECA);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n < 256 && n < bytes.size(); ++n) lengths.push_back(n);
  for (int i = 0; i < 256; ++i) {
    lengths.push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1)));
  }
  for (std::size_t n : lengths) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW(XModel::deserialize(prefix), std::runtime_error)
        << "prefix of " << n << " bytes decoded";
  }
}

TEST(XModelWire, SeededMutationSweepNeverCrashes) {
  std::vector<std::vector<std::uint8_t>> corpus = {compiled(0).serialize(),
                                                   compiled(1).serialize()};
  util::Rng rng(0xA11CE);
  int decoded_ok = 0;
  int rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::uint8_t> buf =
        corpus[static_cast<std::size_t>(rng.uniform_index(corpus.size()))];
    const int n_mut = static_cast<int>(rng.uniform_int(1, 8));
    for (int m = 0; m < n_mut; ++m) {
      switch (rng.uniform_int(0, 3)) {
        case 0:  // flip a byte
          buf[static_cast<std::size_t>(rng.uniform_index(buf.size()))] ^=
              static_cast<std::uint8_t>(rng.uniform_int(1, 255));
          break;
        case 1:  // truncate
          buf.resize(static_cast<std::size_t>(rng.uniform_index(buf.size())));
          if (buf.empty()) buf.push_back(0);
          break;
        case 2:  // append garbage
          buf.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
          break;
        default: {  // overwrite a run with one value
          const auto at =
              static_cast<std::size_t>(rng.uniform_index(buf.size()));
          const auto len = std::min<std::size_t>(
              static_cast<std::size_t>(rng.uniform_int(1, 16)),
              buf.size() - at);
          std::memset(buf.data() + at,
                      static_cast<int>(rng.uniform_int(0, 255)), len);
          break;
        }
      }
    }
    try {
      const XModel m = XModel::deserialize(buf);
      // The mutation may have hit a don't-care byte (weight payloads, layer
      // names); a decoded model must then survive the full static verifier
      // without crashing — findings are fine, indexing faults are not.
      (void)verify(m);
      ++decoded_ok;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  // The sweep must exercise the reject paths heavily; if almost every
  // mutant decoded, the mutations weren't biting.
  EXPECT_GT(rejected, 2000) << "ok=" << decoded_ok;
}

}  // namespace
}  // namespace seneca::dpu
