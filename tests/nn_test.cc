#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "par/par.h"
#include "simd/simd.h"
#include "tensor/ops.h"

namespace sgnn::nn {
namespace {

using graph::NodeId;
using tensor::Matrix;

TEST(LinearTest, ForwardMatchesHandComputation) {
  common::Rng rng(1);
  Linear layer(2, 2, &rng);
  // Overwrite with known weights via Params().
  auto params = layer.Params();
  *params[0].value = Matrix::FromRows({{1, 2}, {3, 4}});  // W
  *params[1].value = Matrix::FromRows({{0.5, -0.5}});     // b
  Matrix x = Matrix::FromRows({{1, 1}});
  Matrix out;
  layer.Forward(x, &out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 4.5f);   // 1+3+0.5
  EXPECT_FLOAT_EQ(out.at(0, 1), 5.5f);   // 2+4-0.5
}

TEST(LinearTest, BackwardGradientsMatchFiniteDifference) {
  common::Rng rng(2);
  Linear layer(3, 2, &rng);
  Matrix x = Matrix::Gaussian(4, 3, 0, 1, &rng);
  // Loss = sum(out): dout = ones.
  Matrix out;
  layer.Forward(x, &out);
  double base = 0.0;
  for (int64_t i = 0; i < out.size(); ++i) base += out.data()[i];

  layer.ZeroGrad();
  Matrix dout(4, 2, 1.0f);
  Matrix dx;
  layer.Backward(x, dout, &dx);

  auto params = layer.Params();
  const double eps = 1e-3;
  // Check a few weight entries by finite differences.
  for (auto [r, c] : std::vector<std::pair<int, int>>{{0, 0}, {2, 1}}) {
    Matrix& w = *params[0].value;
    const float saved = w.at(r, c);
    w.at(r, c) = saved + static_cast<float>(eps);
    Matrix out2;
    layer.Forward(x, &out2);
    double bumped = 0.0;
    for (int64_t i = 0; i < out2.size(); ++i) bumped += out2.data()[i];
    w.at(r, c) = saved;
    const double fd = (bumped - base) / eps;
    EXPECT_NEAR(params[0].grad->at(r, c), fd, 1e-2);
  }
  // dx = dout W^T: each dx entry is a row-sum of W.
  for (int64_t i = 0; i < 3; ++i) {
    const double expected = params[0].value->at(i, 0) +
                            params[0].value->at(i, 1);
    EXPECT_NEAR(dx.at(0, i), expected, 1e-5);
  }
}

TEST(LinearTest, GradientsAccumulateAcrossBackwardCalls) {
  common::Rng rng(3);
  Linear layer(2, 2, &rng);
  Matrix x = Matrix::FromRows({{1, 0}});
  Matrix dout(1, 2, 1.0f);
  layer.ZeroGrad();
  layer.Backward(x, dout, nullptr);
  auto params = layer.Params();
  const float once = params[0].grad->at(0, 0);
  layer.Backward(x, dout, nullptr);
  EXPECT_FLOAT_EQ(params[0].grad->at(0, 0), 2.0f * once);
}

TEST(DropoutTest, TrainingModePreservesExpectation) {
  common::Rng rng(5);
  const int n = 20000;
  Matrix x(1, n, 1.0f);
  Matrix mask;
  DropoutForward(0.3, &rng, &x, &mask);
  double mean = 0.0;
  for (int64_t i = 0; i < n; ++i) mean += x.data()[i];
  mean /= n;
  EXPECT_NEAR(mean, 1.0, 0.05);
}

TEST(DropoutTest, BackwardAppliesSameMask) {
  common::Rng rng(6);
  Matrix x(1, 100, 1.0f);
  Matrix mask;
  DropoutForward(0.5, &rng, &x, &mask);
  Matrix grad(1, 100, 1.0f);
  DropoutBackward(mask, &grad);
  EXPECT_TRUE(grad.Equals(x));  // Same scaling pattern.
}

TEST(LossTest, UniformLogitsGiveLogC) {
  Matrix logits(4, 3, 0.0f);
  std::vector<int> labels = {0, 1, 2, 0};
  std::vector<NodeId> rows = {0, 1, 2, 3};
  const double loss = SoftmaxCrossEntropy(logits, labels, rows, nullptr);
  EXPECT_NEAR(loss, std::log(3.0), 1e-6);
}

TEST(LossTest, GradientSumsToZeroPerRow) {
  common::Rng rng(7);
  Matrix logits = Matrix::Gaussian(5, 4, 0, 1, &rng);
  std::vector<int> labels = {0, 1, 2, 3, 0};
  std::vector<NodeId> rows = {0, 2, 4};
  Matrix dlogits;
  SoftmaxCrossEntropy(logits, labels, rows, &dlogits);
  for (NodeId r : rows) {
    double sum = 0.0;
    for (int64_t c = 0; c < 4; ++c) sum += dlogits.at(r, c);
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
  // Unlisted rows have zero gradient.
  for (int64_t c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(dlogits.at(1, c), 0.0f);
    EXPECT_FLOAT_EQ(dlogits.at(3, c), 0.0f);
  }
}

TEST(LossTest, GradientMatchesFiniteDifference) {
  common::Rng rng(8);
  Matrix logits = Matrix::Gaussian(3, 3, 0, 1, &rng);
  std::vector<int> labels = {2, 0, 1};
  std::vector<NodeId> rows = {0, 1, 2};
  Matrix dlogits;
  const double base = SoftmaxCrossEntropy(logits, labels, rows, &dlogits);
  const double eps = 1e-3;
  for (auto [r, c] : std::vector<std::pair<int, int>>{{0, 0}, {1, 2}, {2, 1}}) {
    Matrix bumped = logits;
    bumped.at(r, c) += static_cast<float>(eps);
    const double loss2 = SoftmaxCrossEntropy(bumped, labels, rows, nullptr);
    EXPECT_NEAR(dlogits.at(r, c), (loss2 - base) / eps, 1e-2);
  }
}

TEST(LossTest, WeightedCeReducesToUniformWithEqualWeights) {
  common::Rng rng(20);
  Matrix logits = Matrix::Gaussian(4, 3, 0, 1, &rng);
  std::vector<int> labels = {0, 1, 2, 0};
  std::vector<NodeId> rows = {0, 1, 3};
  std::vector<float> weights = {2.0f, 2.0f, 2.0f};  // Equal: scale cancels.
  Matrix da, db;
  const double uniform = SoftmaxCrossEntropy(logits, labels, rows, &da);
  const double weighted =
      SoftmaxCrossEntropy(logits, labels, rows, &db, weights);
  EXPECT_NEAR(uniform, weighted, 1e-9);
  EXPECT_LT(MaxAbsDiff(da, db), 1e-6);
}

TEST(LossTest, WeightedCeZeroWeightRowContributesNothing) {
  common::Rng rng(21);
  Matrix logits = Matrix::Gaussian(3, 2, 0, 1, &rng);
  std::vector<int> labels = {0, 1, 0};
  std::vector<NodeId> all_rows = {0, 1, 2};
  std::vector<float> weights = {1.0f, 0.0f, 1.0f};
  Matrix d_weighted;
  const double weighted = SoftmaxCrossEntropy(logits, labels, all_rows,
                                              &d_weighted, weights);
  std::vector<NodeId> subset = {0, 2};
  Matrix d_subset;
  const double subset_loss =
      SoftmaxCrossEntropy(logits, labels, subset, &d_subset);
  EXPECT_NEAR(weighted, subset_loss, 1e-9);
  for (int64_t c = 0; c < 2; ++c) {
    EXPECT_FLOAT_EQ(d_weighted.at(1, c), 0.0f);
  }
}

TEST(LossTest, WeightedCeGradientMatchesFiniteDifference) {
  common::Rng rng(22);
  Matrix logits = Matrix::Gaussian(3, 3, 0, 1, &rng);
  std::vector<int> labels = {2, 0, 1};
  std::vector<NodeId> rows = {0, 1, 2};
  std::vector<float> weights = {0.5f, 2.0f, 1.0f};
  Matrix dlogits;
  const double base =
      SoftmaxCrossEntropy(logits, labels, rows, &dlogits, weights);
  const double eps = 1e-3;
  for (auto [r, c] : std::vector<std::pair<int, int>>{{0, 2}, {1, 0}, {2, 2}}) {
    Matrix bumped = logits;
    bumped.at(r, c) += static_cast<float>(eps);
    const double loss2 =
        SoftmaxCrossEntropy(bumped, labels, rows, nullptr, weights);
    EXPECT_NEAR(dlogits.at(r, c), (loss2 - base) / eps, 1e-2);
  }
}

TEST(LossTest, AccuracyAndF1OnPerfectPredictions) {
  Matrix logits = Matrix::FromRows({{5, 0}, {0, 5}, {5, 0}});
  std::vector<int> labels = {0, 1, 0};
  std::vector<NodeId> rows = {0, 1, 2};
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, rows), 1.0);
  EXPECT_DOUBLE_EQ(MacroF1(logits, labels, rows, 2), 1.0);
}

TEST(LossTest, MacroF1PenalizesMissingClass) {
  // Predict class 0 always; class 1 gets F1 = 0.
  Matrix logits = Matrix::FromRows({{5, 0}, {5, 0}, {5, 0}, {5, 0}});
  std::vector<int> labels = {0, 0, 1, 1};
  std::vector<NodeId> rows = {0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, rows), 0.5);
  // Class 0: P=0.5, R=1 -> F1=2/3; class 1: 0. Macro = 1/3.
  EXPECT_NEAR(MacroF1(logits, labels, rows, 2), 1.0 / 3.0, 1e-9);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Matrix p = Matrix::FromRows({{3, -5}});
  Matrix g(1, 2);
  Adam opt({{&p, &g}}, 0.1);
  for (int i = 0; i < 500; ++i) {
    g.at(0, 0) = 2 * p.at(0, 0);
    g.at(0, 1) = 2 * p.at(0, 1);
    opt.Step();
  }
  EXPECT_NEAR(p.at(0, 0), 0.0, 1e-3);
  EXPECT_NEAR(p.at(0, 1), 0.0, 1e-3);
}

TEST(AdamTest, FirstStepIsLrSizedRegardlessOfGradientScale) {
  // Bias correction makes the first update ~lr * sign(g).
  for (float scale : {1e-3f, 1.0f, 1e3f}) {
    Matrix p = Matrix::FromRows({{0.0}});
    Matrix g = Matrix::FromRows({{scale}});
    Adam opt({{&p, &g}}, 0.01);
    opt.Step();
    EXPECT_NEAR(p.at(0, 0), -0.01, 1e-4) << "scale " << scale;
  }
}

// Inference applies no dropout: the logits of an Mlp built with dropout
// equal those of the same weights built without it.
TEST(MlpTest, InferenceLogitsIgnoreDropout) {
  common::Rng data_rng(4);
  const Matrix x = Matrix::Gaussian(32, 6, 0, 1, &data_rng);
  common::Rng init_a(40), init_b(40);
  Mlp with_dropout({6, 16, 16, 3}, 0.5, &init_a);
  Mlp without_dropout({6, 16, 16, 3}, 0.0, &init_b);
  Matrix a, b;
  with_dropout.Forward(x, /*training=*/false, nullptr, &a);
  without_dropout.Forward(x, /*training=*/false, nullptr, &b);
  EXPECT_TRUE(a.Equals(b));
}

// The validation pass forwards only the rows it reads. GEMM rows are
// independent, so inference over gathered rows gives, byte for byte, those
// rows of whole-matrix inference, on either backend at any thread count.
TEST(MlpTest, GatheredRowInferenceMatchesWholeMatrix) {
  common::Rng rng(12);
  Mlp mlp({24, 40, 40, 5}, 0.5, &rng);
  const Matrix x = Matrix::Gaussian(1500, 24, 0, 1, &rng);
  std::vector<int64_t> rows;
  for (int64_t r = x.rows() - 1; r >= 0; r -= 7) rows.push_back(r);
  rows.push_back(3);
  const Matrix gathered = x.GatherRows(rows);
  const bool simd_was = simd::Enabled();
  const int threads_was = par::NumThreads();
  for (const bool simd_on : {false, true}) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(std::string("simd=") + (simd_on ? "on" : "off") +
                   " threads=" + std::to_string(threads));
      simd::SetEnabled(simd_on);
      par::SetThreads(threads);
      Matrix whole, part;
      mlp.Forward(x, /*training=*/false, nullptr, &whole);
      mlp.Forward(gathered, /*training=*/false, nullptr, &part);
      const Matrix want = whole.GatherRows(rows);
      ASSERT_EQ(part.rows(), want.rows());
      ASSERT_EQ(part.cols(), want.cols());
      EXPECT_EQ(std::memcmp(part.data(), want.data(),
                            static_cast<size_t>(want.size()) * sizeof(float)),
                0);
    }
  }
  simd::SetEnabled(simd_was);
  par::SetThreads(threads_was);
}

TEST(MlpTest, ForwardShapeAndDeterminism) {
  common::Rng rng(9);
  Mlp mlp({4, 8, 3}, 0.0, &rng);
  Matrix x = Matrix::Gaussian(5, 4, 0, 1, &rng);
  Matrix a, b;
  mlp.Forward(x, false, nullptr, &a);
  mlp.Forward(x, false, nullptr, &b);
  EXPECT_EQ(a.rows(), 5);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_TRUE(a.Equals(b));
}

TEST(MlpTest, BackwardGradientMatchesFiniteDifference) {
  common::Rng rng(10);
  Mlp mlp({3, 5, 2}, 0.0, &rng);
  Matrix x = Matrix::Gaussian(4, 3, 0, 1, &rng);
  std::vector<int> labels = {0, 1, 0, 1};
  std::vector<NodeId> rows = {0, 1, 2, 3};

  Matrix logits;
  mlp.Forward(x, true, &rng, &logits);
  Matrix dlogits;
  const double base = SoftmaxCrossEntropy(logits, labels, rows, &dlogits);
  mlp.ZeroGrad();
  mlp.Backward(dlogits, nullptr);

  auto params = mlp.Params();
  const double eps = 1e-3;
  // Probe entries in the first weight matrix and last bias.
  struct Probe {
    size_t param;
    int64_t r, c;
  };
  for (const Probe& probe :
       {Probe{0, 0, 0}, Probe{0, 2, 3}, Probe{3, 0, 1}}) {
    Matrix& value = *params[probe.param].value;
    const float saved = value.at(probe.r, probe.c);
    value.at(probe.r, probe.c) = saved + static_cast<float>(eps);
    Matrix logits2;
    mlp.Forward(x, false, nullptr, &logits2);
    const double loss2 = SoftmaxCrossEntropy(logits2, labels, rows, nullptr);
    value.at(probe.r, probe.c) = saved;
    const double fd = (loss2 - base) / eps;
    EXPECT_NEAR(params[probe.param].grad->at(probe.r, probe.c), fd, 5e-2);
  }
}

TEST(MlpTest, LearnsXor) {
  common::Rng rng(11);
  Mlp mlp({2, 16, 2}, 0.0, &rng);
  Matrix x = Matrix::FromRows({{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  std::vector<int> labels = {0, 1, 1, 0};
  std::vector<NodeId> rows = {0, 1, 2, 3};
  Adam opt(mlp.Params(), 0.01);
  for (int epoch = 0; epoch < 500; ++epoch) {
    Matrix logits, dlogits;
    mlp.Forward(x, true, &rng, &logits);
    SoftmaxCrossEntropy(logits, labels, rows, &dlogits);
    mlp.ZeroGrad();
    mlp.Backward(dlogits, nullptr);
    opt.Step();
  }
  Matrix logits;
  mlp.Forward(x, false, nullptr, &logits);
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, rows), 1.0);
}

// One scripted epoch: the loss `train_epoch` returns and how many of the
// four val and four test rows the logits of `eval_logits` get right.
struct ScriptedEpoch {
  double loss;
  int val_right;
  int test_right;
};

TEST(RunEpochsTest, StopsOnPatienceAndReportsTheBestValidationEpoch) {
  const std::vector<ScriptedEpoch> script = {
      {1.0, 2, 1},     // val 0.50: improves.
      {0.5, 3, 2},     // val 0.75: improves; its test 0.50 is reported.
      {0.25, 2, 4},    // val 0.50: 1 epoch without improvement, test 1.0.
      {0.125, 3, 4},   // val 0.75 only ties: 2 without, so the run stops.
      {0.0625, 4, 4},  // val 1.00: never reached.
  };
  const std::vector<int> labels(8, 1);  // Rows 0-3 are val, 4-7 test.
  const std::vector<NodeId> val = {0, 1, 2, 3};
  const std::vector<NodeId> test = {4, 5, 6, 7};
  size_t trained = 0;
  size_t evaluated = 0;
  auto train_epoch = [&] { return script[trained++].loss; };
  auto eval_logits = [&] {
    const ScriptedEpoch& epoch = script[evaluated++];
    Matrix logits(8, 2);
    for (int r = 0; r < 4; ++r) {
      logits.at(r, r < epoch.val_right ? 1 : 0) = 1.0f;
      logits.at(4 + r, r < epoch.test_right ? 1 : 0) = 1.0f;
    }
    return logits;
  };

  TrainConfig config;
  config.epochs = static_cast<int>(script.size());
  config.patience = 2;
  TrainReport report =
      RunEpochs(config, labels, val, test, train_epoch, eval_logits);
  EXPECT_EQ(trained, 4u);
  EXPECT_EQ(evaluated, 4u);
  EXPECT_EQ(report.epochs_run, 4);
  EXPECT_DOUBLE_EQ(report.best_val_accuracy, 0.75);
  // The best-validation epoch's test accuracy, not epoch 3's better one.
  EXPECT_DOUBLE_EQ(report.test_accuracy, 0.5);
  EXPECT_DOUBLE_EQ(report.final_train_loss, 0.125);  // The last epoch's.
  EXPECT_DOUBLE_EQ(report.train_seconds, 0.0);       // The caller's job.

  // Without a stop it runs exactly `epochs` epochs.
  config.epochs = 3;
  config.patience = 10;
  trained = evaluated = 0;
  report = RunEpochs(config, labels, val, test, train_epoch, eval_logits);
  EXPECT_EQ(trained, 3u);
  EXPECT_EQ(report.epochs_run, 3);
  EXPECT_DOUBLE_EQ(report.best_val_accuracy, 0.75);
  EXPECT_DOUBLE_EQ(report.test_accuracy, 0.5);
  EXPECT_DOUBLE_EQ(report.final_train_loss, 0.25);
}

TEST(TrainerTest, FitsLinearlySeparableEmbeddings) {
  common::Rng rng(12);
  const int n = 300;
  Matrix emb(n, 2);
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    labels[static_cast<size_t>(i)] = i % 2;
    emb.at(i, 0) = static_cast<float>((i % 2 ? 1.0 : -1.0) +
                                      rng.Gaussian(0, 0.3));
    emb.at(i, 1) = static_cast<float>(rng.Gaussian(0, 0.3));
  }
  std::vector<NodeId> train, val, test;
  for (int i = 0; i < n; ++i) {
    if (i % 5 < 3) {
      train.push_back(static_cast<NodeId>(i));
    } else if (i % 5 == 3) {
      val.push_back(static_cast<NodeId>(i));
    } else {
      test.push_back(static_cast<NodeId>(i));
    }
  }
  Mlp mlp({2, 16, 2}, 0.1, &rng);
  TrainConfig config;
  config.epochs = 100;
  config.lr = 0.01;
  TrainReport report = TrainMlpOnEmbeddings(&mlp, emb, labels, train, val,
                                            test, config);
  EXPECT_GT(report.best_val_accuracy, 0.9);
  EXPECT_GT(report.test_accuracy, 0.9);
  EXPECT_GT(report.epochs_run, 0);
}

TEST(TrainerTest, EarlyStoppingTriggersOnPlateau) {
  common::Rng rng(13);
  // Pure-noise task: validation accuracy cannot improve for long.
  Matrix emb = Matrix::Gaussian(100, 4, 0, 1, &rng);
  std::vector<int> labels(100);
  for (int i = 0; i < 100; ++i) {
    labels[static_cast<size_t>(i)] = static_cast<int>(rng.UniformInt(2));
  }
  std::vector<NodeId> train, val, test;
  for (int i = 0; i < 100; ++i) {
    (i < 60 ? train : i < 80 ? val : test).push_back(static_cast<NodeId>(i));
  }
  Mlp mlp({4, 8, 2}, 0.0, &rng);
  TrainConfig config;
  config.epochs = 1000;
  config.patience = 10;
  TrainReport report = TrainMlpOnEmbeddings(&mlp, emb, labels, train, val,
                                            test, config);
  EXPECT_LT(report.epochs_run, 1000);
}

TEST(TrainerTest, MiniBatchAndFullBatchBothLearn) {
  common::Rng rng(14);
  const int n = 200;
  Matrix emb(n, 2);
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    labels[static_cast<size_t>(i)] = i % 2;
    emb.at(i, 0) = static_cast<float>(labels[static_cast<size_t>(i)] * 2 - 1);
    emb.at(i, 1) = static_cast<float>(rng.Gaussian(0, 0.2));
  }
  std::vector<NodeId> train, val, test;
  for (int i = 0; i < n; ++i) {
    (i % 3 == 0 ? val : i % 3 == 1 ? test : train)
        .push_back(static_cast<NodeId>(i));
  }
  for (int batch_size : {0, 16}) {
    common::Rng mlp_rng(15);
    Mlp mlp({2, 8, 2}, 0.0, &mlp_rng);
    TrainConfig config;
    config.epochs = 60;
    config.batch_size = batch_size;
    TrainReport report = TrainMlpOnEmbeddings(&mlp, emb, labels, train, val,
                                              test, config);
    EXPECT_GT(report.test_accuracy, 0.95) << "batch " << batch_size;
  }
}

}  // namespace
}  // namespace sgnn::nn
