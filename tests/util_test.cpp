// Unit tests for the util library: RNG, thread pool, CLI, binary I/O.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <thread>

#include "util/cli.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace seneca::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.5, 2.5);
    ASSERT_GE(u, -3.5);
    ASSERT_LT(u, 2.5);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GaussMomentsMatchStandardNormal) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gauss();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussScaleAndShift) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.gauss(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(19);
  std::vector<int> hits(7, 0);
  for (int i = 0; i < 7000; ++i) ++hits[rng.uniform_index(7)];
  for (int h : hits) EXPECT_GT(h, 700);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(23);
  bool lo = false, hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    lo |= (v == -2);
    hi |= (v == 2);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, BernoulliRate) {
  Rng rng(29);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) heads += rng.bernoulli(0.3);
  EXPECT_NEAR(heads / 100000.0, 0.3, 0.01);
}

TEST(Rng, SplitStreamsAreIndependentOfParentContinuation) {
  Rng parent(31);
  Rng child = parent.split(1);
  Rng parent2(31);
  Rng child2 = parent2.split(1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(child.next_u64(), child2.next_u64());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Rng, ShuffleActuallyMoves) {
  Rng rng(41);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  int moved = 0;
  for (int i = 0; i < 100; ++i) moved += (v[static_cast<std::size_t>(i)] != i);
  EXPECT_GT(moved, 80);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(0, 257, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, OffsetRangeCoversEachIndexOnce) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(10, 110, [&](std::size_t i) {
    sum.fetch_add(static_cast<std::int64_t>(i));
  });
  EXPECT_EQ(sum.load(), (10 + 109) * 100 / 2);
}

TEST(ThreadPool, SingleThreadedFallbackWorks) {
  ThreadPool pool(1);  // degenerates to inline execution
  const auto caller = std::this_thread::get_id();
  std::int64_t sum = 0;
  bool on_caller = true;
  pool.parallel_for(0, 100, [&](std::size_t i) {
    sum += static_cast<std::int64_t>(i);
    on_caller = on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_EQ(sum, 4950);
  EXPECT_TRUE(on_caller);
}

TEST(ThreadPool, SingleIndexRunsOnce) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(0, 1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
}

TEST(Cli, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "--alpha", "0.5", "--flag", "--name=net", "pos1"};
  Cli cli(6, argv);
  EXPECT_TRUE(cli.has("alpha"));
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.0), 0.5);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get("name", ""), "net");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_FALSE(cli.has("x"));
  EXPECT_EQ(cli.get_int("x", 42), 42);
  EXPECT_EQ(cli.get("y", "def"), "def");
  EXPECT_FALSE(cli.get_bool("z", false));
}

TEST(Cli, IntParsing) {
  const char* argv[] = {"prog", "--n", "123", "--m=-7"};
  Cli cli(4, argv);
  EXPECT_EQ(cli.get_int("n", 0), 123);
  EXPECT_EQ(cli.get_int("m", 0), -7);
}

TEST(BinaryIo, RoundTripScalars) {
  BinaryWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-12345);
  w.f32(3.25f);
  w.str("hello seneca");
  BinaryReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32(), -12345);
  EXPECT_FLOAT_EQ(r.f32(), 3.25f);
  EXPECT_EQ(r.str(), "hello seneca");
  EXPECT_TRUE(r.eof());
}

TEST(BinaryIo, TruncatedStreamThrows) {
  BinaryWriter w;
  w.u32(1);
  BinaryReader r(w.data());
  r.u32();
  EXPECT_THROW(r.u32(), std::runtime_error);
}

TEST(BinaryIo, BytesRoundTrip) {
  BinaryWriter w;
  const std::uint8_t payload[] = {1, 2, 3, 4, 5};
  w.bytes(payload, sizeof payload);
  BinaryReader r(w.data());
  std::uint8_t out[5];
  r.bytes(out, 5);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], payload[i]);
}

TEST(FileIo, WriteReadRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "seneca_io_test.bin";
  const std::string text = "file round trip";
  write_text_file(path, text);
  const auto data = read_file(path);
  EXPECT_EQ(std::string(data.begin(), data.end()), text);
  std::filesystem::remove(path);
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/seneca/file"), std::runtime_error);
}

TEST(FileIo, CreatesParentDirectories) {
  const auto dir = std::filesystem::temp_directory_path() / "seneca_io_nested";
  const auto path = dir / "a" / "b.txt";
  write_text_file(path, "x");
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace seneca::util
