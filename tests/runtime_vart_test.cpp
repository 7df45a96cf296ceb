// VART runtime tests: batch ordering, bit-exactness against direct core
// execution for every worker count, and one-batch failures (a failing frame
// on a worker, the fault hook) reported in the caller's thread.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dpu/compiler.hpp"
#include "nn/unet.hpp"
#include "quant/quantizer.hpp"
#include "runtime/vart.hpp"
#include "util/rng.hpp"

namespace seneca::runtime {
namespace {

using tensor::Shape;
using tensor::TensorF;
using tensor::TensorI8;

dpu::XModel build_model(std::uint64_t seed = 3) {
  nn::UNet2DConfig cfg;
  cfg.input_size = 16;
  cfg.depth = 2;
  cfg.base_filters = 4;
  cfg.seed = seed;
  auto graph = nn::build_unet2d(cfg);
  util::Rng rng(seed + 1);
  TensorF x(Shape{16, 16, 1});
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  graph->forward(x, true);
  quant::FGraph fg = quant::fold(*graph);
  std::vector<TensorF> calib{x};
  return dpu::compile(quant::quantize(fg, calib));
}

TensorI8 random_input(std::uint64_t seed) {
  util::Rng rng(seed);
  TensorI8 x(Shape{16, 16, 1});
  for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return x;
}

TEST(VartRunner, SingleJobMatchesDirectExecution) {
  const dpu::XModel xm = build_model();
  dpu::DpuCoreSim direct(&xm);
  VartRunner runner(xm, 1);
  const TensorI8 input = random_input(11);
  const auto outputs = runner.run_batch({input});
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(tensor::max_abs_diff(outputs[0], direct.run(input).output), 0.0);
}

TEST(VartRunner, BatchPreservesInputOrder) {
  const dpu::XModel xm = build_model();
  dpu::DpuCoreSim direct(&xm);
  VartRunner runner(xm, 4);
  std::vector<TensorI8> inputs;
  for (int i = 0; i < 12; ++i) inputs.push_back(random_input(100 + static_cast<std::uint64_t>(i)));
  const auto outputs = runner.run_batch(inputs);
  ASSERT_EQ(outputs.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(tensor::max_abs_diff(outputs[i], direct.run(inputs[i]).output), 0.0)
        << "job " << i;
  }
}

TEST(VartRunner, MultiThreadMatchesSingleThread) {
  const dpu::XModel xm = build_model(9);
  VartRunner one(xm, 1);
  VartRunner four(xm, 4);
  std::vector<TensorI8> inputs;
  for (int i = 0; i < 10; ++i) inputs.push_back(random_input(500 + static_cast<std::uint64_t>(i)));
  const auto a = one.run_batch(inputs);
  const auto b = four.run_batch(inputs);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(tensor::max_abs_diff(a[i], b[i]), 0.0);
  }
}

TEST(VartRunner, WorkerCountClampedToAtLeastOne) {
  const dpu::XModel xm = build_model();
  VartRunner runner(xm, 0);
  EXPECT_EQ(runner.num_workers(), 1);
}

TEST(VartRunner, DrainsOnDestruction) {
  const dpu::XModel xm = build_model();
  {
    VartRunner runner(xm, 2);
    EXPECT_EQ(runner.run_batch({random_input(1), random_input(2)}).size(), 2u);
  }  // destructor must join its workers cleanly
  SUCCEED();
}

TEST(VartRunner, FrameFailureOnAWorkerFailsTheBatchInTheCallersThread) {
  const dpu::XModel xm = build_model();
  VartRunner runner(xm, 2);
  TensorI8 wrong(Shape{15, 15, 1});
  std::vector<TensorI8> inputs{random_input(1), std::move(wrong),
                               random_input(2)};
  EXPECT_THROW(runner.run_batch(inputs), std::invalid_argument);
  // The workers survived: the next batch runs normally.
  EXPECT_EQ(runner.run_batch({random_input(3), random_input(4)}).size(), 2u);
}

TEST(VartRunner, RunFaultHookFailsTheBatchInTheCallersThread) {
  const dpu::XModel xm = build_model();
  VartRunner runner(xm, 1);
  int calls = 0;
  runner.set_run_fault_hook([&calls](std::size_t batch) {
    ++calls;
    if (calls == 1) throw std::runtime_error("injected fault, batch=" +
                                             std::to_string(batch));
  });
  std::vector<tensor::TensorI8> inputs{random_input(1), random_input(2)};
  EXPECT_THROW(runner.run_batch(inputs), std::runtime_error);
  // The fault hit before any frame ran: the runner is still fully usable.
  const auto outputs = runner.run_batch(inputs);
  EXPECT_EQ(outputs.size(), 2u);
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace seneca::runtime
