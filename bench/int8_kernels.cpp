// INT8 kernel bench: the SIMD/arena hot path vs the scalar reference.
//
// Two sections. The micro section times each kernel (conv / tconv / pool /
// concat) on a representative mid-network shape per backend, plus the conv
// of 16M's widest layer (bott_b, 2x2x512->512), two narrow convs whose
// channels all lie past the last 16-wide block, in the x86 tail (4M's
// dec0_a, 32x32x16->8, and the class head, 32x32x8->6), and the two shapes
// where the x86 quad format leaves most of its lanes empty (16M's stem,
// 64x64x1->16, and 2M's enc0_b, 32x32x6->6), and reports the per-kernel
// speedup. Conv and tconv are timed as served: their weights
// are packed once outside the timed loop, as DpuCoreSim packs them at
// load. The end-to-end section runs the functional DPU core
// simulator over every model-zoo ladder rung and reports frames/second per
// backend — scalar (the int64 reference, no arena: the pre-kernel-layer
// executor) and SIMD with a TensorArena, which is what
// VartRunner workers run in production. Every backend's output is compared
// bit-for-bit against the scalar quant::QGraph reference on a deterministic
// pseudo-random input. The header and every JSON row name the SIMD path
// that ran: avx-vnni (the x86 quad format), avx2 (the pair format) or neon.
//
//   ./int8_kernels [--input 128] [--min-time 0.4] [--max-frames 60]
//                  [--min-speedup 4] [--json int8_kernels.json] [--strict]
//
// --strict exits nonzero unless the best available backend reaches
// --min-speedup x scalar FPS on the 16M and 2M rungs AND every backend is
// bit-exact on every rung.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/workflow.hpp"
#include "dpu/compiler.hpp"
#include "dpu/core_sim.hpp"
#include "eval/table.hpp"
#include "quant/kernels.hpp"
#include "tensor/arena.hpp"
#include "util/cli.hpp"

namespace {

using namespace seneca;
using quant::kernels::Backend;

tensor::TensorI8 seeded_input(const tensor::Shape& shape, std::uint64_t seed) {
  tensor::TensorI8 t(shape);
  std::uint64_t s = seed;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    t[i] = static_cast<std::int8_t>(static_cast<std::int64_t>(s >> 56) - 128);
  }
  return t;
}

/// Backends to bench: scalar reference first, then SIMD where built.
std::vector<Backend> bench_backends() {
  std::vector<Backend> v{Backend::kScalar};
  if (quant::kernels::simd_available()) v.push_back(Backend::kSimd);
  return v;
}

struct Timing {
  double fps = 0.0;
  int frames = 0;
};

template <typename Fn>
Timing time_loop(Fn&& fn, double min_seconds, int max_frames) {
  using clock = std::chrono::steady_clock;
  Timing t;
  const auto t0 = clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++t.frames;
    elapsed = std::chrono::duration<double>(clock::now() - t0).count();
  } while (elapsed < min_seconds && t.frames < max_frames);
  t.fps = static_cast<double>(t.frames) / elapsed;
  return t;
}

// ------------------------------------------------------- micro section --

struct MicroResult {
  std::string kernel;
  std::vector<double> us;  // microseconds/call, indexed like bench_backends()
};

std::vector<MicroResult> run_micro(double min_seconds) {
  using quant::QOp;
  using tensor::Shape;
  using tensor::TensorI8;

  const std::int64_t hw = 56, ci = 32, co = 64;
  QOp conv;
  conv.kind = quant::QOpKind::kConv2D;
  conv.kernel = 3;
  conv.relu = true;
  conv.out_shape = Shape{hw, hw, co};
  conv.fix_pos_w = 6;
  conv.fix_pos_out = 4;
  conv.weights = seeded_input(Shape{3, 3, ci, co}, 11);
  conv.bias.assign(static_cast<std::size_t>(co), 321);

  QOp tconv;
  tconv.kind = quant::QOpKind::kTConv2D;
  tconv.kernel = 3;
  tconv.out_shape = Shape{hw, hw, ci};
  tconv.fix_pos_w = 6;
  tconv.fix_pos_out = 4;
  tconv.weights = seeded_input(Shape{3, 3, co, ci}, 13);
  tconv.bias.assign(static_cast<std::size_t>(ci), -123);

  QOp bott = conv;  // 16M's bott_b at 64x64 input: a 2x2 map, 512 wide
  bott.out_shape = Shape{2, 2, 512};
  bott.weights = seeded_input(Shape{3, 3, 512, 512}, 23);
  bott.bias.assign(512, 321);

  // The narrow layers, whose output channels all lie in the AVX2 tail: 4M's
  // dec0_a at 32x32 input and the 6-class head.
  QOp dec0a = conv;
  dec0a.out_shape = Shape{32, 32, 8};
  dec0a.weights = seeded_input(Shape{3, 3, 16, 8}, 31);
  dec0a.bias.assign(8, 321);
  QOp head = conv;
  head.relu = false;
  head.out_shape = Shape{32, 32, 6};
  head.weights = seeded_input(Shape{3, 3, 8, 6}, 37);
  head.bias.assign(6, 321);

  // The shapes whose input lanes are mostly padding in the x86 quad format:
  // 16M's stem at 64x64 input (ci = 1) and 2M's enc0_b at 32x32 (ci = 6).
  QOp stem = conv;
  stem.out_shape = Shape{64, 64, 16};
  stem.weights = seeded_input(Shape{3, 3, 1, 16}, 47);
  stem.bias.assign(16, 321);
  QOp enc0b = conv;
  enc0b.out_shape = Shape{32, 32, 6};
  enc0b.weights = seeded_input(Shape{3, 3, 6, 6}, 53);
  enc0b.bias.assign(6, 321);

  const quant::kernels::PackedWeights conv_pack =
      quant::kernels::pack_weights(conv);
  const quant::kernels::PackedWeights tconv_pack =
      quant::kernels::pack_weights(tconv);
  const quant::kernels::PackedWeights bott_pack =
      quant::kernels::pack_weights(bott);
  const quant::kernels::PackedWeights dec0a_pack =
      quant::kernels::pack_weights(dec0a);
  const quant::kernels::PackedWeights head_pack =
      quant::kernels::pack_weights(head);
  const quant::kernels::PackedWeights stem_pack =
      quant::kernels::pack_weights(stem);
  const quant::kernels::PackedWeights enc0b_pack =
      quant::kernels::pack_weights(enc0b);

  const TensorI8 x = seeded_input(Shape{hw, hw, ci}, 17);
  const TensorI8 xt = seeded_input(Shape{hw / 2, hw / 2, co}, 19);
  const TensorI8 xb = seeded_input(Shape{2, 2, 512}, 29);
  const TensorI8 xd = seeded_input(Shape{32, 32, 16}, 41);
  const TensorI8 xh = seeded_input(Shape{32, 32, 8}, 43);
  const TensorI8 xs = seeded_input(Shape{64, 64, 1}, 59);
  const TensorI8 xe = seeded_input(Shape{32, 32, 6}, 61);
  const int fp_in = 4;
  tensor::TensorArena arena;
  TensorI8 out_conv(conv.out_shape);
  TensorI8 out_tconv(tconv.out_shape);
  TensorI8 out_pool(Shape{hw / 2, hw / 2, ci});
  TensorI8 out_cat(Shape{hw, hw, 2 * ci});
  TensorI8 out_bott(bott.out_shape);
  TensorI8 out_dec0a(dec0a.out_shape);
  TensorI8 out_head(head.out_shape);
  TensorI8 out_stem(stem.out_shape);
  TensorI8 out_enc0b(enc0b.out_shape);

  std::vector<MicroResult> results(9);
  results[0].kernel = "conv2d 56x56x32->64 k3";
  results[1].kernel = "tconv2d 28x28x64->56x56x32";
  results[2].kernel = "maxpool 56x56x32";
  results[3].kernel = "concat 2x 56x56x32";
  results[4].kernel = "conv2d 2x2x512->512 k3 (16M bott_b)";
  results[5].kernel = "conv2d 32x32x16->8 k3 (4M dec0_a)";
  results[6].kernel = "conv2d 32x32x8->6 k3 (class head)";
  results[7].kernel = "conv2d 64x64x1->16 k3 (16M stem)";
  results[8].kernel = "conv2d 32x32x6->6 k3 (2M enc0_b)";
  for (Backend b : bench_backends()) {
    quant::kernels::set_backend(b);
    const Timing tc = time_loop(
        [&] { quant::kernels::conv2d(x, conv, out_conv, fp_in, &conv_pack); },
        min_seconds, 1 << 20);
    const Timing tt = time_loop(
        [&] {
          quant::kernels::tconv2d(xt, tconv, out_tconv, fp_in, &arena,
                                  &tconv_pack);
        },
        min_seconds, 1 << 20);
    const Timing tp = time_loop(
        [&] { quant::kernels::maxpool2d(x, out_pool); }, min_seconds, 1 << 20);
    const Timing tk = time_loop(
        [&] { quant::kernels::concat(x, 5, x, 3, out_cat, 4); }, min_seconds,
        1 << 20);
    const Timing tb = time_loop(
        [&] { quant::kernels::conv2d(xb, bott, out_bott, fp_in, &bott_pack); },
        min_seconds, 1 << 20);
    const Timing td = time_loop(
        [&] {
          quant::kernels::conv2d(xd, dec0a, out_dec0a, fp_in, &dec0a_pack);
        },
        min_seconds, 1 << 20);
    const Timing th = time_loop(
        [&] { quant::kernels::conv2d(xh, head, out_head, fp_in, &head_pack); },
        min_seconds, 1 << 20);
    const Timing ts = time_loop(
        [&] { quant::kernels::conv2d(xs, stem, out_stem, fp_in, &stem_pack); },
        min_seconds, 1 << 20);
    const Timing te = time_loop(
        [&] {
          quant::kernels::conv2d(xe, enc0b, out_enc0b, fp_in, &enc0b_pack);
        },
        min_seconds, 1 << 20);
    results[0].us.push_back(1e6 / tc.fps);
    results[1].us.push_back(1e6 / tt.fps);
    results[2].us.push_back(1e6 / tp.fps);
    results[3].us.push_back(1e6 / tk.fps);
    results[4].us.push_back(1e6 / tb.fps);
    results[5].us.push_back(1e6 / td.fps);
    results[6].us.push_back(1e6 / th.fps);
    results[7].us.push_back(1e6 / ts.fps);
    results[8].us.push_back(1e6 / te.fps);
  }
  quant::kernels::set_backend(Backend::kAuto);
  return results;
}

// -------------------------------------------------- end-to-end section --

struct RungResult {
  std::string model;
  std::vector<double> fps;    // indexed like bench_backends()
  std::vector<bool> bitexact;
  double best_speedup = 0.0;
};

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const std::int64_t input = cli.get_int("input", 128);
  const double min_time = cli.get_double("min-time", 0.4);
  const int max_frames = static_cast<int>(cli.get_int("max-frames", 60));
  const double min_speedup = cli.get_double("min-speedup", 4.0);
  const bool strict = cli.get_bool("strict", false);
  const std::string json_path = cli.get("json", "");

  const std::vector<Backend> backends = bench_backends();
  std::vector<std::string> backend_names;
  for (Backend b : backends) {
    backend_names.push_back(quant::kernels::backend_name(
        b == Backend::kSimd ? quant::kernels::active_backend() : b));
  }

  std::printf("SIMD path: %s\n",
              quant::kernels::backend_name(quant::kernels::active_backend()));

  // Per-kernel micro bench.
  const auto micro = run_micro(min_time * 0.25);
  {
    std::vector<std::string> header{"Kernel"};
    for (const auto& n : backend_names) header.push_back("us/" + n);
    header.push_back("best speedup");
    eval::Table table(header);
    for (const auto& m : micro) {
      std::vector<std::string> row{m.kernel};
      for (double us : m.us) row.push_back(eval::Table::num(us, 1));
      row.push_back(eval::Table::num(m.us.front() / m.us.back(), 2));
      table.add_row(row);
    }
    std::printf("%s\n", table.render().c_str());
  }

  // End-to-end: functional DPU simulator FPS per ladder rung.
  const std::vector<std::string> rungs = {"16M", "8M", "4M", "2M", "1M"};
  std::vector<RungResult> results;
  for (const auto& name : rungs) {
    RungResult r;
    r.model = name;
    const quant::QGraph qg = core::build_timing_qgraph(name, input);
    const dpu::XModel xm = dpu::compile(qg);
    const dpu::DpuCoreSim sim(&xm);
    const auto in = seeded_input(qg.input_shape, 0x5ECA + results.size());

    quant::kernels::set_backend(Backend::kScalar);
    const auto ref = qg.forward(in);

    for (Backend b : backends) {
      quant::kernels::set_backend(b);
      // Scalar is benched without an arena: that is the pre-kernel-layer
      // executor this bench measures the win against.
      tensor::TensorArena arena;
      tensor::TensorArena* ap = b == Backend::kScalar ? nullptr : &arena;
      const auto out = sim.run(in, 1, ap).output;  // also warms the arena
      r.bitexact.push_back(tensor::max_abs_diff(ref, out) == 0.0);
      const Timing t = time_loop([&] { (void)sim.run(in, 1, ap); }, min_time,
                                 max_frames);
      r.fps.push_back(t.fps);
    }
    quant::kernels::set_backend(Backend::kAuto);
    r.best_speedup = r.fps.back() / r.fps.front();
    results.push_back(r);
  }

  {
    std::vector<std::string> header{"Model"};
    for (const auto& n : backend_names) header.push_back("FPS " + n);
    header.push_back("best speedup");
    header.push_back("Bit-exact");
    eval::Table table(header);
    for (const auto& r : results) {
      std::vector<std::string> row{r.model};
      for (double f : r.fps) row.push_back(eval::Table::num(f, 1));
      row.push_back(eval::Table::num(r.best_speedup, 2));
      bool all = true;
      for (bool bx : r.bitexact) all = all && bx;
      row.push_back(all ? "yes" : "NO");
      table.add_row(row);
    }
    std::printf("%s\n", table.render().c_str());
  }
  std::printf(
      "(end-to-end functional DPU simulator at %lldx%lld; scalar = int64 "
      "reference without arena, others recycle a TensorArena as VartRunner "
      "workers do)\n",
      static_cast<long long>(input), static_cast<long long>(input));

  bool pass = true;
  for (const auto& r : results) {
    for (std::size_t i = 0; i < r.bitexact.size(); ++i) {
      if (!r.bitexact[i]) {
        std::printf("FAIL: %s %s output not bit-exact vs scalar reference\n",
                    r.model.c_str(), backend_names[i].c_str());
        pass = false;
      }
    }
    if ((r.model == "16M" || r.model == "2M") && r.best_speedup < min_speedup) {
      std::printf("FAIL: %s speedup %.2fx < %.2fx\n", r.model.c_str(),
                  r.best_speedup, min_speedup);
      pass = false;
    }
  }
  std::printf("int8_kernels check: %s\n", pass ? "PASS" : "FAIL");

  bench::JsonWriter json;
  for (const auto& r : results) {
    json.obj()
        .field("model", r.model)
        .field("simd_path", backend_names.back());
    for (std::size_t j = 0; j < r.fps.size(); ++j) {
      json.field("fps_" + std::string(backend_names[j]), r.fps[j]);
    }
    bool all = true;
    for (bool bx : r.bitexact) all = all && bx;
    json.field("best_speedup", r.best_speedup).field("bitexact", all);
  }
  bench::write_json_file(json_path, json.str());
  return strict && !pass ? 1 : 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "int8_kernels: %s\n", e.what());
  return 1;
}
