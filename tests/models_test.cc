#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/counters.h"
#include "core/dataset.h"
#include "models/cluster_gcn.h"
#include "models/decoupled.h"
#include "models/gcn.h"
#include "models/sage.h"
#include "models/saint.h"
#include "nn/optimizer.h"
#include "sampling/neighbor_sampler.h"

namespace sgnn::models {
namespace {

using core::Dataset;

/// Small separable homophilous SBM: every sensible model should clear 85%
/// test accuracy here with a modest budget.
Dataset EasyDataset(uint64_t seed = 1) {
  core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = 400, .num_classes = 3, .avg_degree = 12,
                .homophily = 0.85};
  config.feature_dim = 8;
  config.feature_noise = 0.6;
  return core::MakeSbmDataset(config, seed);
}

/// Mixing-regime variant (homophily = 1/num_classes): neighbourhoods are
/// class-uninformative, so low-pass smoothing collapses features toward
/// the global mean and destroys the signal, while multi-channel spectral
/// embeddings keep the identity/high-pass signal. (A 2-class h=0 graph
/// would NOT show this: label-flipped smoothing stays linearly separable.)
Dataset HeterophilousDataset(uint64_t seed = 2) {
  core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = 400, .num_classes = 3, .avg_degree = 12,
                .homophily = 1.0 / 3.0};
  config.feature_dim = 8;
  config.feature_noise = 0.8;
  return core::MakeSbmDataset(config, seed);
}

nn::TrainConfig FastConfig() {
  nn::TrainConfig config;
  config.epochs = 60;
  config.hidden_dim = 32;
  config.patience = 20;
  config.lr = 0.02;
  return config;
}

TEST(MakeSplitsTest, PartitionsAllNodesDisjointly) {
  NodeSplits splits = MakeSplits(100, 0.6, 0.2, 7);
  EXPECT_EQ(splits.train.size(), 60u);
  EXPECT_EQ(splits.val.size(), 20u);
  EXPECT_EQ(splits.test.size(), 20u);
  std::vector<bool> seen(100, false);
  for (const auto* part : {&splits.train, &splits.val, &splits.test}) {
    for (graph::NodeId u : *part) {
      EXPECT_FALSE(seen[u]);
      seen[u] = true;
    }
  }
}

TEST(GcnTest, LearnsHomophilousSbm) {
  Dataset d = EasyDataset();
  ModelResult result =
      TrainGcn(d.graph, d.features, d.labels, d.splits, FastConfig());
  EXPECT_EQ(result.name, "gcn");
  EXPECT_GT(result.report.test_accuracy, 0.85);
  EXPECT_GT(result.ops.edges_touched, 0u);
}

TEST(GcnTest, DeterministicGivenSeed) {
  Dataset d = EasyDataset();
  nn::TrainConfig config = FastConfig();
  config.epochs = 10;
  ModelResult a = TrainGcn(d.graph, d.features, d.labels, d.splits, config);
  ModelResult b = TrainGcn(d.graph, d.features, d.labels, d.splits, config);
  EXPECT_DOUBLE_EQ(a.report.final_train_loss, b.report.final_train_loss);
  EXPECT_DOUBLE_EQ(a.report.test_accuracy, b.report.test_accuracy);
}

TEST(GcnTest, BeatsFeatureOnlyBaselineOnNoisyFeatures) {
  // When features are noisy but the graph is homophilous, propagation
  // should help: compare GCN against SGC-with-0-hops (pure MLP).
  core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = 400, .num_classes = 3, .avg_degree = 14,
                .homophily = 0.9};
  config.feature_dim = 8;
  config.feature_noise = 1.5;
  Dataset d = core::MakeSbmDataset(config, 5);
  ModelResult gcn =
      TrainGcn(d.graph, d.features, d.labels, d.splits, FastConfig());
  ModelResult mlp = TrainSgc(d.graph, d.features, d.labels, d.splits,
                             FastConfig(), SgcConfig{.hops = 0});
  EXPECT_GT(gcn.report.test_accuracy, mlp.report.test_accuracy + 0.05);
}

TEST(SgcTest, LearnsHomophilousSbm) {
  Dataset d = EasyDataset();
  ModelResult result = TrainSgc(d.graph, d.features, d.labels, d.splits,
                                FastConfig(), SgcConfig{.hops = 2});
  EXPECT_GT(result.report.test_accuracy, 0.85);
}

TEST(SgcTest, PropagationHelpsOnNoisyHomophilousGraphs) {
  core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = 400, .num_classes = 3, .avg_degree = 14,
                .homophily = 0.9};
  config.feature_noise = 1.5;
  Dataset d = core::MakeSbmDataset(config, 7);
  ModelResult hop0 = TrainSgc(d.graph, d.features, d.labels, d.splits,
                              FastConfig(), SgcConfig{.hops = 0});
  ModelResult hop3 = TrainSgc(d.graph, d.features, d.labels, d.splits,
                              FastConfig(), SgcConfig{.hops = 3});
  EXPECT_GT(hop3.report.test_accuracy, hop0.report.test_accuracy + 0.05);
}

TEST(AppnpTest, LearnsHomophilousSbm) {
  Dataset d = EasyDataset();
  ModelResult result = TrainAppnp(d.graph, d.features, d.labels, d.splits,
                                  FastConfig());
  EXPECT_GT(result.report.test_accuracy, 0.85);
}

TEST(SpectralDecoupledTest, SurvivesHeterophilyWhereLowPassFails) {
  // The LD2/E6 claim: under heterophily, the high-pass channel rescues
  // accuracy that pure low-pass smoothing (SGC) destroys.
  Dataset d = HeterophilousDataset();
  ModelResult sgc = TrainSgc(d.graph, d.features, d.labels, d.splits,
                             FastConfig(), SgcConfig{.hops = 4});
  ModelResult spectral = TrainSpectralDecoupled(
      d.graph, d.features, d.labels, d.splits, FastConfig());
  EXPECT_GT(spectral.report.test_accuracy,
            sgc.report.test_accuracy + 0.05);
}

TEST(SpectralDecoupledTest, LearnsHomophilousSbmToo) {
  Dataset d = EasyDataset();
  ModelResult result = TrainSpectralDecoupled(d.graph, d.features, d.labels,
                                              d.splits, FastConfig());
  EXPECT_GT(result.report.test_accuracy, 0.85);
}

TEST(LabelPropTest, PerfectOnCleanHomophilousGraph) {
  Dataset d = EasyDataset();
  ModelResult result = TrainLabelProp(d.graph, d.features, d.labels,
                                      d.splits, FastConfig());
  EXPECT_EQ(result.name, "label_prop");
  EXPECT_GT(result.report.test_accuracy, 0.85);
}

TEST(LabelPropTest, BeatsTrainedModelsWhenLabelsAreScarce) {
  // §3.4.2 data-efficiency claim: with 2% labels and pure-noise features,
  // propagating the labels outperforms training an MLP head on features.
  core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = 1000, .num_classes = 2, .avg_degree = 14,
                .homophily = 0.95};
  config.feature_noise = 3.0;  // Features nearly useless.
  config.train_frac = 0.02;
  config.val_frac = 0.1;
  Dataset d = core::MakeSbmDataset(config, 31);
  ModelResult lp = TrainLabelProp(d.graph, d.features, d.labels, d.splits,
                                  FastConfig());
  ModelResult mlp = TrainSgc(d.graph, d.features, d.labels, d.splits,
                             FastConfig(), SgcConfig{.hops = 0});
  EXPECT_GT(lp.report.test_accuracy, mlp.report.test_accuracy + 0.1);
}

TEST(LabelPropTest, UselessOnUninformativeGraph) {
  // Honest negative control: at neutral mixing the graph carries no label
  // signal and label propagation collapses toward chance.
  core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = 600, .num_classes = 3, .avg_degree = 12,
                .homophily = 1.0 / 3.0};
  Dataset d = core::MakeSbmDataset(config, 33);
  ModelResult lp = TrainLabelProp(d.graph, d.features, d.labels, d.splits,
                                  FastConfig());
  EXPECT_LT(lp.report.test_accuracy, 0.6);
}

TEST(PprgoTest, LearnsHomophilousSbm) {
  Dataset d = EasyDataset();
  ModelResult result = TrainPprgo(d.graph, d.features, d.labels, d.splits,
                                  FastConfig());
  EXPECT_EQ(result.name, "pprgo");
  EXPECT_GT(result.report.test_accuracy, 0.85);
}

TEST(PprgoTest, SmallerTopKStillWorksOnEasyData) {
  Dataset d = EasyDataset(21);
  ModelResult result =
      TrainPprgo(d.graph, d.features, d.labels, d.splits, FastConfig(),
                 PprgoConfig{.alpha = 0.2, .top_k = 8, .r_max = 1e-3});
  EXPECT_GT(result.report.test_accuracy, 0.8);
}

TEST(SignTest, LearnsHomophilousSbm) {
  Dataset d = EasyDataset();
  ModelResult result = TrainSign(d.graph, d.features, d.labels, d.splits,
                                 FastConfig());
  EXPECT_GT(result.report.test_accuracy, 0.85);
}

TEST(SignTest, MultiHopConcatBeatsSingleHopUnderNoise) {
  core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = 400, .num_classes = 3, .avg_degree = 14,
                .homophily = 0.9};
  config.feature_noise = 1.5;
  Dataset d = core::MakeSbmDataset(config, 23);
  ModelResult hop1 = TrainSign(d.graph, d.features, d.labels, d.splits,
                               FastConfig(), SignConfig{.hops = 1});
  ModelResult hop4 = TrainSign(d.graph, d.features, d.labels, d.splits,
                               FastConfig(), SignConfig{.hops = 4});
  EXPECT_GT(hop4.report.test_accuracy, hop1.report.test_accuracy - 0.02);
}

TEST(ImplicitTest, LearnsHomophilousSbm) {
  Dataset d = EasyDataset();
  ModelResult result = TrainImplicit(d.graph, d.features, d.labels, d.splits,
                                     FastConfig());
  EXPECT_GT(result.report.test_accuracy, 0.85);
}

TEST(SageTest, LearnsHomophilousSbmWithSampling) {
  Dataset d = EasyDataset();
  nn::TrainConfig config = FastConfig();
  config.epochs = 30;
  config.batch_size = 64;
  ModelResult result = TrainSage(d.graph, d.features, d.labels, d.splits,
                                 config, SageConfig{.fanouts = {5, 5}});
  EXPECT_GT(result.report.test_accuracy, 0.8);
}

// A sampled step bills the forward aggregation over every block and the
// backward transpose over every block but block 0: the input features are
// not trained, so no gradient flows back through block 0.
TEST(SageTest, TrainStepBillsNoInputGradient) {
  const Dataset d = EasyDataset();
  common::Rng rng(3);
  SageModel model({d.features.cols(), 16, 16, d.num_classes}, 0.5, &rng);
  std::vector<graph::NodeId> seeds;
  std::vector<int> labels;
  for (graph::NodeId u = 0; u < d.num_nodes(); u += 9) {
    seeds.push_back(u);
    labels.push_back(d.labels[u]);
  }
  const std::vector<int> fanouts = {4, 4, 4};
  const sampling::MiniBatch batch =
      sampling::SampleNodeWise(d.graph, seeds, fanouts, &rng);
  uint64_t expected = 0;
  for (size_t l = 0; l < batch.layers.size(); ++l) {
    const uint64_t edges = static_cast<uint64_t>(batch.layers[l].num_edges());
    expected += l == 0 ? edges : 2 * edges;
  }
  model.ZeroGrad();
  const common::ScopedCounterDelta counters;
  model.TrainStep(batch, d.features, labels, &rng);
  EXPECT_EQ(counters.Delta().edges_touched, expected);
}

bool BytesEqual(const tensor::Matrix& a, const tensor::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// One model keeps its step workspace across batches whose blocks go large,
// small, large, small and large again, with an Adam step after each. Each
// step's loss and gradients must match, byte for byte, those of a fresh
// model given the same weights, so no stale row or shape survives a reuse.
TEST(SageTest, ReusedWorkspaceMatchesFreshModel) {
  const Dataset d = EasyDataset();
  const std::vector<int64_t> dims = {d.features.cols(), 16, 16,
                                     d.num_classes};
  common::Rng init(3);
  SageModel model(dims, 0.5, &init);
  nn::Adam opt(model.Params(), 0.01);
  const std::vector<int> fanouts = {4, 4, 4};
  for (const graph::NodeId stride : {2u, 29u, 3u, 41u, 2u}) {
    SCOPED_TRACE("stride " + std::to_string(stride));
    std::vector<graph::NodeId> seeds;
    std::vector<int> labels;
    for (graph::NodeId u = stride % 5; u < d.num_nodes(); u += stride) {
      seeds.push_back(u);
      labels.push_back(d.labels[u]);
    }
    common::Rng sample_rng(stride);
    const sampling::MiniBatch batch =
        sampling::SampleNodeWise(d.graph, seeds, fanouts, &sample_rng);
    common::Rng fresh_init(3);
    SageModel fresh(dims, 0.5, &fresh_init);
    const std::vector<nn::ParamRef> params = model.Params();
    const std::vector<nn::ParamRef> fresh_params = fresh.Params();
    ASSERT_EQ(params.size(), fresh_params.size());
    for (size_t i = 0; i < params.size(); ++i) {
      *fresh_params[i].value = *params[i].value;
    }
    common::Rng step_rng(100 + stride), fresh_step_rng(100 + stride);
    model.ZeroGrad();
    fresh.ZeroGrad();
    const double loss = model.TrainStep(batch, d.features, labels, &step_rng);
    const double want =
        fresh.TrainStep(batch, d.features, labels, &fresh_step_rng);
    EXPECT_EQ(std::memcmp(&loss, &want, sizeof(double)), 0);
    for (size_t i = 0; i < params.size(); ++i) {
      EXPECT_TRUE(BytesEqual(*params[i].grad, *fresh_params[i].grad)) << i;
    }
    opt.Step();
  }
}

// Layer 0 reads the feature matrix by node id, so a matrix with too few
// rows (a caller still passing a gathered copy, say) stops the step before
// any out-of-bounds read.
TEST(SageDeathTest, TrainStepRejectsAnInputIdPastTheFeatureRows) {
  const Dataset d = EasyDataset();
  common::Rng rng(3);
  SageModel model({d.features.cols(), 8, d.num_classes}, 0.0, &rng);
  const std::vector<graph::NodeId> seeds = {0, 1, 2};
  const std::vector<int> labels = {d.labels[0], d.labels[1], d.labels[2]};
  const std::vector<int> fanouts = {3, 3};
  const sampling::MiniBatch batch =
      sampling::SampleNodeWise(d.graph, seeds, fanouts, &rng);
  const std::vector<graph::NodeId>& inputs = batch.input_nodes();
  const graph::NodeId max_id = *std::max_element(inputs.begin(), inputs.end());
  const tensor::Matrix too_few(static_cast<int64_t>(max_id),
                               d.features.cols());
  EXPECT_DEATH(model.TrainStep(batch, too_few, labels, &rng), "num_rows");
}

TEST(SageTest, LaborVariantMatchesNodeWiseQuality) {
  Dataset d = EasyDataset(9);
  nn::TrainConfig config = FastConfig();
  config.epochs = 30;
  config.batch_size = 64;
  ModelResult labor =
      TrainSage(d.graph, d.features, d.labels, d.splits, config,
                SageConfig{.fanouts = {5, 5}, .use_labor = true});
  EXPECT_EQ(labor.name, "sage_labor");
  EXPECT_GT(labor.report.test_accuracy, 0.8);
}

TEST(SaintTest, WalkSamplerLearnsHomophilousSbm) {
  Dataset d = EasyDataset();
  nn::TrainConfig config = FastConfig();
  config.epochs = 30;
  ModelResult result = TrainSaint(d.graph, d.features, d.labels, d.splits,
                                  config);
  EXPECT_EQ(result.name, "saint_walk");
  EXPECT_GT(result.report.test_accuracy, 0.8);
}

TEST(SaintTest, NodeSamplerLearnsToo) {
  Dataset d = EasyDataset(25);
  nn::TrainConfig config = FastConfig();
  config.epochs = 30;
  SaintConfig saint;
  saint.sampler = SaintConfig::Sampler::kNode;
  saint.node_budget = 128;
  ModelResult result = TrainSaint(d.graph, d.features, d.labels, d.splits,
                                  config, saint);
  EXPECT_EQ(result.name, "saint_node");
  EXPECT_GT(result.report.test_accuracy, 0.8);
}

TEST(SaintTest, NormalizationDisabledStillRuns) {
  Dataset d = EasyDataset(27);
  nn::TrainConfig config = FastConfig();
  config.epochs = 15;
  SaintConfig saint;
  saint.norm_trials = 0;
  ModelResult result = TrainSaint(d.graph, d.features, d.labels, d.splits,
                                  config, saint);
  EXPECT_GT(result.report.test_accuracy, 0.7);
}

TEST(ClusterGcnTest, LearnsHomophilousSbm) {
  Dataset d = EasyDataset();
  nn::TrainConfig config = FastConfig();
  config.epochs = 40;
  ModelResult result = TrainClusterGcn(
      d.graph, d.features, d.labels, d.splits, config,
      ClusterGcnConfig{.num_parts = 8, .parts_per_batch = 2});
  EXPECT_GT(result.report.test_accuracy, 0.8);
}

TEST(ClusterGcnTest, PeakResidentMemoryBelowFullBatchGcn) {
  // E13: partition batches bound activation memory by the batch subgraph.
  core::SbmDatasetConfig dconfig;
  dconfig.sbm = {.num_nodes = 1000, .num_classes = 4, .avg_degree = 12,
                 .homophily = 0.85};
  Dataset d = core::MakeSbmDataset(dconfig, 11);
  nn::TrainConfig config = FastConfig();
  config.epochs = 5;
  common::GlobalCounters().Reset();
  ModelResult cluster = TrainClusterGcn(
      d.graph, d.features, d.labels, d.splits, config,
      ClusterGcnConfig{.num_parts = 16, .parts_per_batch = 2});
  // The per-batch resident set must be well under a full-graph activation
  // footprint (n * hidden floats).
  EXPECT_LT(cluster.ops.peak_resident_floats,
            static_cast<uint64_t>(d.num_nodes()) *
                static_cast<uint64_t>(config.hidden_dim));
  EXPECT_GT(cluster.report.test_accuracy, 0.75);
}

TEST(ModelZooTest, AllModelsBeatMajorityClassOnEasyData) {
  Dataset d = EasyDataset(13);
  nn::TrainConfig config = FastConfig();
  config.epochs = 25;
  config.batch_size = 64;
  const double majority = 1.0 / d.num_classes + 0.15;
  std::vector<ModelResult> results;
  results.push_back(TrainGcn(d.graph, d.features, d.labels, d.splits, config));
  results.push_back(TrainSgc(d.graph, d.features, d.labels, d.splits, config));
  results.push_back(
      TrainAppnp(d.graph, d.features, d.labels, d.splits, config));
  results.push_back(TrainSpectralDecoupled(d.graph, d.features, d.labels,
                                           d.splits, config));
  results.push_back(
      TrainImplicit(d.graph, d.features, d.labels, d.splits, config));
  results.push_back(TrainSage(d.graph, d.features, d.labels, d.splits, config,
                              SageConfig{.fanouts = {5, 5}}));
  results.push_back(TrainClusterGcn(d.graph, d.features, d.labels, d.splits,
                                    config,
                                    ClusterGcnConfig{.num_parts = 8}));
  for (const ModelResult& r : results) {
    EXPECT_GT(r.report.test_accuracy, majority) << r.name;
    EXPECT_GT(r.report.epochs_run, 0) << r.name;
  }
}

}  // namespace
}  // namespace sgnn::models
