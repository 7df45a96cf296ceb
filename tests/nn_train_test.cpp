// Trainer and optimizer tests: loss decreases, overfitting a tiny synthetic
// task works, optimizer update rules behave.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "nn/unet.hpp"
#include "util/rng.hpp"

namespace seneca::nn {
namespace {

using tensor::Shape;
using tensor::TensorF;

/// A trivially learnable segmentation task: class = 0 where input < 0,
/// class 1 where 0 <= input < 0.5, class 2 above.
std::vector<Sample> threshold_task(int n, std::int64_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Sample> data;
  for (int i = 0; i < n; ++i) {
    Sample s;
    s.image = TensorF(Shape{size, size, 1});
    s.labels = LabelMap(Shape{size, size});
    for (std::int64_t p = 0; p < size * size; ++p) {
      const float v = static_cast<float>(rng.uniform(-1.0, 1.0));
      s.image[p] = v;
      s.labels[p] = v < 0.f ? 0 : (v < 0.5f ? 1 : 2);
    }
    data.push_back(std::move(s));
  }
  return data;
}

TEST(Sgd, StepMovesAgainstGradient) {
  Param p("w", Shape{2});
  p.value[0] = 1.f;
  p.value[1] = -1.f;
  p.grad()[0] = 0.5f;
  p.grad()[1] = -0.25f;
  Sgd opt(0.1f);
  opt.step({&p});
  EXPECT_FLOAT_EQ(p.value[0], 1.f - 0.05f);
  EXPECT_FLOAT_EQ(p.value[1], -1.f + 0.025f);
}

TEST(Sgd, MomentumAccumulates) {
  Param p("w", Shape{1});
  p.grad()[0] = 1.f;
  Sgd opt(0.1f, 0.9f);
  opt.step({&p});
  const float after_one = p.value[0];
  opt.step({&p});  // velocity = 1.9 now
  EXPECT_NEAR(p.value[0], after_one - 0.19f, 1e-6);
}

TEST(Adam, FirstStepIsLearningRateSized) {
  Param p("w", Shape{1});
  p.grad()[0] = 0.01f;
  Adam opt(0.001f);
  opt.step({&p});
  // bias-corrected first Adam step == -lr * sign(g) (approximately)
  EXPECT_NEAR(p.value[0], -0.001f, 1e-4);
}

TEST(Adam, ConvergesOnQuadratic) {
  // minimize (w-3)^2 -> grad = 2(w-3)
  Param p("w", Shape{1});
  p.value[0] = 0.f;
  Adam opt(0.05f);
  for (int i = 0; i < 500; ++i) {
    p.grad()[0] = 2.f * (p.value[0] - 3.f);
    opt.step({&p});
  }
  EXPECT_NEAR(p.value[0], 3.f, 0.05f);
}

TEST(Trainer, LossDecreasesOnThresholdTask) {
  UNet2DConfig cfg;
  cfg.input_size = 16;
  cfg.depth = 2;
  cfg.base_filters = 4;
  cfg.num_classes = 3;
  cfg.dropout = 0.05f;
  auto g = build_unet2d(cfg);
  auto data = threshold_task(8, 16, 3);
  CrossEntropyLoss loss;
  TrainOptions opts;
  opts.epochs = 20;
  opts.learning_rate = 3e-3f;
  const TrainReport report = train(*g, loss, data, opts);
  ASSERT_EQ(report.epoch_losses.size(), 20u);
  EXPECT_LT(report.epoch_losses.back(), 0.5 * report.epoch_losses.front());
  EXPECT_EQ(report.steps, 160);
}

TEST(Trainer, OverfitsToHighAccuracy) {
  UNet2DConfig cfg;
  cfg.input_size = 16;
  cfg.depth = 2;
  cfg.base_filters = 6;
  cfg.num_classes = 3;
  cfg.dropout = 0.f;
  auto g = build_unet2d(cfg);
  auto data = threshold_task(6, 16, 5);
  CrossEntropyLoss loss;
  TrainOptions opts;
  opts.epochs = 60;
  opts.learning_rate = 3e-3f;
  opts.lr_decay = 0.97f;
  train(*g, loss, data, opts);
  // pixel accuracy on the training data should be near-perfect
  std::int64_t correct = 0, total = 0;
  for (const auto& s : data) {
    const LabelMap pred = predict_labels(g->forward(s.image, false));
    for (std::int64_t i = 0; i < pred.numel(); ++i) {
      correct += (pred[i] == s.labels[i]);
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.93);
}

TEST(Trainer, EmptyDatasetIsNoop) {
  UNet2DConfig cfg;
  cfg.input_size = 16;
  cfg.depth = 2;
  cfg.base_filters = 4;
  auto g = build_unet2d(cfg);
  CrossEntropyLoss loss;
  const TrainReport report = train(*g, loss, {}, TrainOptions{});
  EXPECT_TRUE(report.epoch_losses.empty());
  EXPECT_EQ(report.steps, 0);
}

TEST(Trainer, EpochCallbackFires) {
  UNet2DConfig cfg;
  cfg.input_size = 16;
  cfg.depth = 2;
  cfg.base_filters = 4;
  cfg.num_classes = 3;
  auto g = build_unet2d(cfg);
  auto data = threshold_task(2, 16, 7);
  CrossEntropyLoss loss;
  TrainOptions opts;
  opts.epochs = 3;
  int calls = 0;
  opts.on_epoch = [&](int epoch, double) { calls += (epoch >= 0); };
  train(*g, loss, data, opts);
  EXPECT_EQ(calls, 3);
}

TEST(Trainer, EvaluateLossMatchesTrainingSignal) {
  UNet2DConfig cfg;
  cfg.input_size = 16;
  cfg.depth = 2;
  cfg.base_filters = 4;
  cfg.num_classes = 3;
  cfg.dropout = 0.f;
  auto g = build_unet2d(cfg);
  auto data = threshold_task(4, 16, 9);
  CrossEntropyLoss loss;
  const double before = evaluate_loss(*g, loss, data);
  TrainOptions opts;
  opts.epochs = 10;
  opts.learning_rate = 2e-3f;
  train(*g, loss, data, opts);
  const double after = evaluate_loss(*g, loss, data);
  EXPECT_LT(after, before);
}

TEST(PredictLabels, TakesArgmax) {
  TensorF probs(Shape{1, 2, 3}, 0.f);
  probs[0 * 3 + 1] = 0.9f;
  probs[1 * 3 + 2] = 0.8f;
  const LabelMap labels = predict_labels(probs);
  EXPECT_EQ(labels.shape(), (Shape{1, 2}));
  EXPECT_EQ(labels[0], 1);
  EXPECT_EQ(labels[1], 2);
}

TEST(PredictLabels, Works3D) {
  TensorF probs(Shape{2, 2, 2, 2}, 0.f);
  for (std::int64_t i = 0; i < 8; ++i) probs[i * 2 + (i % 2)] = 1.f;
  const LabelMap labels = predict_labels(probs);
  EXPECT_EQ(labels.shape(), (Shape{2, 2, 2}));
  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[1], 1);
}

}  // namespace
}  // namespace seneca::nn
