#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>

#include "common/crc32.h"
#include "common/fault.h"
#include "core/checkpoint.h"
#include "core/coarse_flow.h"
#include "core/dataset.h"
#include "core/dataset_io.h"
#include "core/pipeline.h"
#include "core/registry.h"
#include "core/stages.h"
#include "graph/metrics.h"
#include "models/decoupled.h"
#include "models/gcn.h"
#include "tensor/ops.h"

namespace sgnn::core {
namespace {

Dataset SmallDataset(uint64_t seed = 1) {
  SbmDatasetConfig config;
  config.sbm = {.num_nodes = 300, .num_classes = 3, .avg_degree = 10,
                .homophily = 0.85};
  config.feature_dim = 8;
  config.feature_noise = 0.5;
  return MakeSbmDataset(config, seed);
}

nn::TrainConfig FastConfig() {
  nn::TrainConfig config;
  config.epochs = 40;
  config.hidden_dim = 32;
  config.patience = 15;
  config.lr = 0.02;
  return config;
}

TEST(DatasetTest, SbmDatasetIsConsistent) {
  Dataset d = SmallDataset();
  EXPECT_EQ(d.num_nodes(), 300u);
  EXPECT_EQ(d.labels.size(), 300u);
  EXPECT_EQ(d.features.rows(), 300);
  EXPECT_EQ(d.num_classes, 3);
  for (int label : d.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 3);
  }
  EXPECT_EQ(d.splits.train.size() + d.splits.val.size() +
                d.splits.test.size(),
            300u);
}

TEST(DatasetTest, FeaturesCorrelateWithLabels) {
  Dataset d = SmallDataset();
  // Prototype features: the label coordinate should be largest on average.
  double own = 0.0, other = 0.0;
  for (graph::NodeId u = 0; u < d.num_nodes(); ++u) {
    auto row = d.features.Row(static_cast<int64_t>(u));
    own += row[d.labels[u]];
    other += row[(d.labels[u] + 1) % 3];
  }
  EXPECT_GT(own / d.num_nodes(), other / d.num_nodes() + 0.5);
}

TEST(DatasetTest, DeterministicGivenSeed) {
  Dataset a = SmallDataset(42);
  Dataset b = SmallDataset(42);
  EXPECT_TRUE(a.features.Equals(b.features));
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_EQ(a.splits.train, b.splits.train);
}

TEST(DatasetTest, KarateDatasetLoads) {
  Dataset d = MakeKarateDataset(0.2, 3);
  EXPECT_EQ(d.num_nodes(), 34u);
  EXPECT_EQ(d.num_classes, 2);
  EXPECT_FALSE(d.splits.train.empty());
}

TEST(PipelineTest, ModelOnlyPipelineMatchesDirectCall) {
  Dataset d = SmallDataset();
  Pipeline pipeline;
  pipeline.SetModel("gcn", [](const graph::CsrGraph& g,
                              const tensor::Matrix& x,
                              std::span<const int> labels,
                              const models::NodeSplits& splits,
                              const nn::TrainConfig& config) {
    return models::TrainGcn(g, x, labels, splits, config);
  });
  PipelineReport report = pipeline.Run(d, FastConfig());
  models::ModelResult direct =
      models::TrainGcn(d.graph, d.features, d.labels, d.splits, FastConfig());
  EXPECT_DOUBLE_EQ(report.model.report.test_accuracy,
                   direct.report.test_accuracy);
  EXPECT_EQ(report.edges_before, report.edges_after);
}

TEST(PipelineTest, SparsifyStageReducesEdges) {
  Dataset d = SmallDataset();
  Pipeline pipeline;
  pipeline.AddEdit(MakeUniformSparsifyStage(0.5, 7))
      .SetModel("sgc", [](const graph::CsrGraph& g, const tensor::Matrix& x,
                          std::span<const int> labels,
                          const models::NodeSplits& splits,
                          const nn::TrainConfig& config) {
        return models::TrainSgc(g, x, labels, splits, config);
      });
  PipelineReport report = pipeline.Run(d, FastConfig());
  EXPECT_LT(report.edges_after, report.edges_before);
  EXPECT_GT(report.model.report.test_accuracy, 0.7);
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages[0].name, "sparsify:uniform");
}

TEST(PipelineTest, AnalyticsStageWidensFeatures) {
  Dataset d = SmallDataset();
  Pipeline pipeline;
  spectral::CombinedEmbeddingConfig embed;
  pipeline.AddAnalytics(MakeCombinedEmbeddingStage(embed))
      .SetModel("sgc", [](const graph::CsrGraph& g, const tensor::Matrix& x,
                          std::span<const int> labels,
                          const models::NodeSplits& splits,
                          const nn::TrainConfig& config) {
        return models::TrainSgc(g, x, labels, splits, config,
                                models::SgcConfig{.hops = 0});
      });
  PipelineReport report = pipeline.Run(d, FastConfig());
  EXPECT_EQ(report.feature_cols_after, 3 * report.feature_cols_before);
  EXPECT_GT(report.model.report.test_accuracy, 0.8);
}

TEST(PipelineTest, StagesComposeInOrder) {
  Dataset d = SmallDataset();
  Pipeline pipeline;
  pipeline.AddEdit(MakeUniformSparsifyStage(0.7, 3))
      .AddAnalytics(MakePprSmoothingStage(0.15, 4))
      .SetModel("sgc", [](const graph::CsrGraph& g, const tensor::Matrix& x,
                          std::span<const int> labels,
                          const models::NodeSplits& splits,
                          const nn::TrainConfig& config) {
        return models::TrainSgc(g, x, labels, splits, config,
                                models::SgcConfig{.hops = 0});
      });
  PipelineReport report = pipeline.Run(d, FastConfig());
  ASSERT_EQ(report.stages.size(), 3u);
  EXPECT_EQ(report.stages[0].name, "sparsify:uniform");
  EXPECT_EQ(report.stages[1].name, "analytics:ppr-smooth");
  EXPECT_GT(report.model.report.test_accuracy, 0.75);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(PipelineTest, SpectralSparsifyStagePreservesAccuracyAtHalfBudget) {
  Dataset d = SmallDataset();
  Pipeline pipeline;
  pipeline
      .AddEdit(MakeSpectralSparsifyStage(d.graph.num_edges() / 4, 11))
      .SetModel("sgc", [](const graph::CsrGraph& g, const tensor::Matrix& x,
                          std::span<const int> labels,
                          const models::NodeSplits& splits,
                          const nn::TrainConfig& config) {
        return models::TrainSgc(g, x, labels, splits, config);
      });
  PipelineReport report = pipeline.Run(d, FastConfig());
  EXPECT_LT(report.edges_after, report.edges_before);
  EXPECT_GT(report.model.report.test_accuracy, 0.8);
}

TEST(PipelineTest, ImplicitEmbeddingStageWorks) {
  Dataset d = SmallDataset();
  Pipeline pipeline;
  pipeline.AddAnalytics(MakeImplicitEmbeddingStage(0.8, 1e-5, 200))
      .SetModel("sgc", [](const graph::CsrGraph& g, const tensor::Matrix& x,
                          std::span<const int> labels,
                          const models::NodeSplits& splits,
                          const nn::TrainConfig& config) {
        return models::TrainSgc(g, x, labels, splits, config,
                                models::SgcConfig{.hops = 0});
      });
  PipelineReport report = pipeline.Run(d, FastConfig());
  EXPECT_GT(report.model.report.test_accuracy, 0.8);
}

TEST(PipelineTest, RewiringStageImprovesHeterophilousHomophily) {
  SbmDatasetConfig config;
  config.sbm = {.num_nodes = 300, .num_classes = 3, .avg_degree = 10,
                .homophily = 0.1};
  config.feature_noise = 0.2;  // Informative features for rewiring.
  Dataset d = MakeSbmDataset(config, 11);
  similarity::RewiringConfig rewire;
  rewire.add_per_node = 3;
  rewire.add_threshold = 0.8;
  rewire.remove_threshold = 0.5;
  auto stage = MakeRewiringStage(rewire);
  graph::CsrGraph edited = stage->Edit(d.graph, d.features);
  EXPECT_GT(graph::EdgeHomophily(edited, d.labels),
            graph::EdgeHomophily(d.graph, d.labels) + 0.2);
}

TEST(CoarseFlowTest, CoarseTrainingRetainsMostAccuracy) {
  SbmDatasetConfig config;
  config.sbm = {.num_nodes = 800, .num_classes = 3, .avg_degree = 12,
                .homophily = 0.9};
  config.feature_noise = 0.4;
  Dataset d = MakeSbmDataset(config, 19);
  nn::TrainConfig train = FastConfig();
  models::ModelResult direct =
      models::TrainGcn(d.graph, d.features, d.labels, d.splits, train);
  CoarseTrainResult coarse = TrainOnCoarseGraph(d, 0.3, train);
  EXPECT_LT(coarse.coarse_nodes, 300u);
  // Training on <=30% of the nodes keeps accuracy within 10 points.
  EXPECT_GT(coarse.model.report.test_accuracy,
            direct.report.test_accuracy - 0.10);
}

TEST(CoarseFlowTest, AggressiveRatioDegradesGracefully) {
  SbmDatasetConfig config;
  config.sbm = {.num_nodes = 600, .num_classes = 2, .avg_degree = 10,
                .homophily = 0.9};
  Dataset d = MakeSbmDataset(config, 23);
  nn::TrainConfig train = FastConfig();
  CoarseTrainResult mild = TrainOnCoarseGraph(d, 0.5, train);
  CoarseTrainResult aggressive = TrainOnCoarseGraph(d, 0.05, train);
  EXPECT_LT(aggressive.coarse_nodes, mild.coarse_nodes);
  // Even at 5% nodes the lifted predictor beats chance decisively.
  EXPECT_GT(aggressive.model.report.test_accuracy, 0.7);
}

TEST(DatasetIoTest, SaveLoadRoundTrip) {
  Dataset d = SmallDataset(29);
  const std::string dir = ::testing::TempDir() + "/sgnn_dataset";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveDataset(d, dir).ok());
  auto loaded = LoadDataset(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Dataset& d2 = loaded.value();
  EXPECT_EQ(d2.num_nodes(), d.num_nodes());
  EXPECT_EQ(d2.graph.num_edges(), d.graph.num_edges());
  EXPECT_EQ(d2.labels, d.labels);
  EXPECT_EQ(d2.num_classes, d.num_classes);
  EXPECT_EQ(d2.splits.train, d.splits.train);
  EXPECT_EQ(d2.splits.test, d.splits.test);
  EXPECT_LT(tensor::MaxAbsDiff(d2.features, d.features), 1e-4);
  std::filesystem::remove_all(dir);
}

TEST(DatasetIoTest, LoadMissingDirectoryFails) {
  auto result = LoadDataset("/nonexistent/sgnn");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kIOError);
}

TEST(DatasetIoTest, RejectsInconsistentLabelCount) {
  Dataset d = SmallDataset(31);
  const std::string dir = ::testing::TempDir() + "/sgnn_dataset_bad";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveDataset(d, dir).ok());
  // Corrupt: rewrite labels with wrong count.
  std::ofstream(dir + "/labels.txt") << "2 3\n0\n1\n";
  auto result = LoadDataset(dir);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
  std::filesystem::remove_all(dir);
}

// Header counts a file cannot hold are rejected before they size an
// allocation: a 1 GiB feature matrix, one whose size throws or overflows,
// 10^12 labels or split ids, and a 1 GiB split section. A split id past
// the node-id range is rejected instead of truncated into range.
TEST(DatasetIoTest, ForgedCountsAreRejectedBeforeAllocating) {
  Dataset d = SmallDataset(33);
  const std::string dir = ::testing::TempDir() + "/sgnn_dataset_forged";
  std::filesystem::create_directories(dir);
  const struct {
    const char* file;
    const char* text;
    const char* diagnostic;
  } cases[] = {
      {"features.txt", "67108864 4\n1 2 3 4\n", "more than"},
      {"features.txt", "2147483648 2147483648\n", "more than"},
      {"features.txt", "4611686018427387904 4\n", "more than"},
      {"labels.txt", "1000000000000 3\n0\n", "more than"},
      {"splits.txt", "train 1000000000000 0\n", "more than"},
      {"splits.txt", "train 268435456 0\n", "more than"},
      {"splits.txt", "train 1 4294967296\nval 0\ntest 0\n", "out of range"},
  };
  for (const auto& c : cases) {
    ASSERT_TRUE(SaveDataset(d, dir).ok());
    std::ofstream(dir + "/" + c.file) << c.text;
    auto result = LoadDataset(dir);
    ASSERT_FALSE(result.ok()) << c.file << ": " << c.text;
    EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find(c.diagnostic), std::string::npos)
        << c.file << ": " << result.status().ToString();
  }
  std::filesystem::remove_all(dir);
}

// A two-stage pipeline (edit + analytics) with a deterministic decoupled
// head — enough structure to crash at any boundary and resume.
Pipeline MakeCheckpointedPipeline() {
  Pipeline pipeline;
  pipeline.AddEdit(MakeUniformSparsifyStage(0.7, 3))
      .AddAnalytics(MakePprSmoothingStage(0.15, 4))
      .SetModel("sgc", [](const graph::CsrGraph& g, const tensor::Matrix& x,
                          std::span<const int> labels,
                          const models::NodeSplits& splits,
                          const nn::TrainConfig& config) {
        return models::TrainSgc(g, x, labels, splits, config,
                                models::SgcConfig{.hops = 0});
      });
  return pipeline;
}

void ExpectIdenticalHeads(const models::ModelResult& a,
                          const models::ModelResult& b) {
  ASSERT_NE(a.fitted_head, nullptr);
  ASSERT_NE(b.fitted_head, nullptr);
  const auto& la = a.fitted_head->layers();
  const auto& lb = b.fitted_head->layers();
  ASSERT_EQ(la.size(), lb.size());
  for (size_t i = 0; i < la.size(); ++i) {
    EXPECT_TRUE(la[i].weight().Equals(lb[i].weight())) << "layer " << i;
    EXPECT_TRUE(la[i].bias().Equals(lb[i].bias())) << "layer " << i;
  }
}

TEST(CheckpointTest, SnapshotRoundTripIsBitIdentical) {
  Dataset d = SmallDataset(37);
  PipelineSnapshot snap;
  snap.signature = PipelineSignature({"edit:a", "analytics:b"}, "sgc");
  snap.stages_done = 1;
  snap.stages.push_back(
      {"edit:a", 1.25, common::OpCounters{10, 20, 30, 5, 40, 7}});
  snap.edges_before = d.graph.num_edges();
  snap.feature_cols_before = d.features.cols();
  snap.graph = d.graph;
  snap.features = d.features;

  const std::string path = ::testing::TempDir() + "/sgnn_snap.bin";
  ASSERT_TRUE(SaveSnapshot(snap, path).ok());
  auto loaded = LoadSnapshot(path, snap.signature);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const PipelineSnapshot& got = loaded.value();
  EXPECT_EQ(got.stages_done, 1);
  ASSERT_EQ(got.stages.size(), 1u);
  EXPECT_EQ(got.stages[0].name, "edit:a");
  EXPECT_DOUBLE_EQ(got.stages[0].seconds, 1.25);
  const common::OpCounters& ops = got.stages[0].ops;
  EXPECT_EQ(ops.edges_touched, 10u);
  EXPECT_EQ(ops.floats_moved, 20u);
  EXPECT_EQ(ops.bytes_read, 30u);
  EXPECT_EQ(ops.bytes_written, 5u);
  EXPECT_EQ(ops.peak_resident_floats, 40u);
  EXPECT_EQ(ops.resident_floats, 7u);
  EXPECT_EQ(got.edges_before, d.graph.num_edges());
  EXPECT_TRUE(got.features.Equals(d.features));  // Bitwise.
  EXPECT_EQ(got.graph.num_edges(), d.graph.num_edges());
  EXPECT_EQ(got.graph.neighbors(), d.graph.neighbors());
  EXPECT_EQ(got.graph.weights(), d.graph.weights());
  std::filesystem::remove(path);
}

TEST(CheckpointTest, CorruptionIsDetectedByCrc) {
  Dataset d = SmallDataset(41);
  PipelineSnapshot snap;
  snap.signature = 7;
  snap.graph = d.graph;
  snap.features = d.features;
  const std::string path = ::testing::TempDir() + "/sgnn_snap_corrupt.bin";
  ASSERT_TRUE(SaveSnapshot(snap, path).ok());

  // Flip one byte in the middle of the payload.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(
        std::filesystem::file_size(path) / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  auto loaded = LoadSnapshot(path, 7);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("CRC"), std::string::npos);
  std::filesystem::remove(path);
}

// A CRC-valid snapshot whose feature dimensions multiply past 2^64 bytes
// (rows = 2^62, cols = 1: 2^62 * 1 * 4 wraps to the 0 bytes left) is
// corrupt, not a matrix to allocate.
TEST(CheckpointTest, OverflowingFeatureDimensionsAreCorrupt) {
  PipelineSnapshot snap;
  snap.signature = 7;
  const std::string path = ::testing::TempDir() + "/sgnn_snap_dims.bin";
  ASSERT_TRUE(SaveSnapshot(snap, path).ok());
  ASSERT_TRUE(LoadSnapshot(path, 7).ok());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // The empty feature matrix ends the payload: i64 rows | i64 cols | u32 CRC.
  const size_t payload = bytes.size() - sizeof(uint32_t);
  const int64_t rows = int64_t{1} << 62;
  const int64_t cols = 1;
  std::memcpy(bytes.data() + payload - 16, &rows, sizeof(rows));
  std::memcpy(bytes.data() + payload - 8, &cols, sizeof(cols));
  const uint32_t crc = common::Crc32(bytes.data(), payload);
  std::memcpy(bytes.data() + payload, &crc, sizeof(crc));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto loaded = LoadSnapshot(path, 7);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("feature dimensions"),
            std::string::npos);
  std::filesystem::remove(path);
}

// A CRC-valid snapshot whose node count is neither 0 nor its feature row
// count, or whose rows the bytes left cannot carry at one float each, is
// corrupt before the count sizes the graph: 2^20 nodes over an empty
// feature matrix loaded as a 2^20-node graph, and 2^32 - 1 nodes wrapped
// the graph's offset array to nothing.
TEST(CheckpointTest, NodeCountBeyondFeatureRowsIsCorrupt) {
  PipelineSnapshot snap;
  snap.signature = 7;
  const std::string path = ::testing::TempDir() + "/sgnn_snap_nodes.bin";
  ASSERT_TRUE(SaveSnapshot(snap, path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // The empty snapshot ends: u32 num_nodes | u64 num_edges | i64 rows
  // | i64 cols | u32 CRC.
  const size_t payload = bytes.size() - sizeof(uint32_t);
  const struct {
    uint32_t nodes;
    int64_t rows;
    const char* diagnostic;
  } cases[] = {
      {uint32_t{1} << 20, 0, "node count"},
      {UINT32_MAX, 0, "node count"},
      {uint32_t{1} << 20, int64_t{1} << 20, "feature dimensions"},
  };
  for (const auto& c : cases) {
    std::string forged = bytes;
    std::memcpy(forged.data() + payload - 28, &c.nodes, sizeof(c.nodes));
    std::memcpy(forged.data() + payload - 16, &c.rows, sizeof(c.rows));
    const uint32_t crc = common::Crc32(forged.data(), payload);
    std::memcpy(forged.data() + payload, &crc, sizeof(crc));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(forged.data(), static_cast<std::streamsize>(forged.size()));
    }
    auto loaded = LoadSnapshot(path, 7);
    ASSERT_FALSE(loaded.ok()) << c.nodes << " nodes, " << c.rows << " rows";
    EXPECT_EQ(loaded.status().code(), common::StatusCode::kIOError);
    EXPECT_NE(loaded.status().message().find(c.diagnostic), std::string::npos)
        << loaded.status().ToString();
  }
  std::filesystem::remove(path);
}

// A snapshot that claims more completed stages than it records (or fewer
// than none) would resume past work it never kept: it is corrupt.
TEST(CheckpointTest, StagesDoneBeyondRecordedStagesIsCorrupt) {
  Dataset d = SmallDataset(61);
  PipelineSnapshot snap;
  snap.signature = 7;
  snap.stages.push_back({"edit:a", 0.25, {}});
  snap.graph = d.graph;
  snap.features = d.features;
  const std::string path = ::testing::TempDir() + "/sgnn_snap_stages.bin";
  for (const int32_t stages_done : {2, -1}) {
    snap.stages_done = stages_done;
    ASSERT_TRUE(SaveSnapshot(snap, path).ok());
    auto loaded = LoadSnapshot(path, 7);
    ASSERT_FALSE(loaded.ok()) << stages_done << " stages done";
    EXPECT_EQ(loaded.status().code(), common::StatusCode::kIOError);
    EXPECT_NE(loaded.status().message().find("inconsistent stage count"),
              std::string::npos)
        << loaded.status().ToString();
  }
  snap.stages_done = 1;
  ASSERT_TRUE(SaveSnapshot(snap, path).ok());
  EXPECT_TRUE(LoadSnapshot(path, 7).ok());
  std::filesystem::remove(path);
}

// A snapshot whose features carry one row fewer than its graph has nodes
// saves, and is refused where it is read.
TEST(CheckpointTest, FeatureRowsMisalignedWithGraphAreCorrupt) {
  Dataset d = SmallDataset(67);
  PipelineSnapshot snap;
  snap.signature = 7;
  snap.graph = d.graph;
  snap.features = tensor::Matrix(d.graph.num_nodes() - 1, d.features.cols());
  const std::string path = ::testing::TempDir() + "/sgnn_snap_misaligned.bin";
  ASSERT_TRUE(SaveSnapshot(snap, path).ok());
  auto loaded = LoadSnapshot(path, 7);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find(
                "node count " + std::to_string(d.graph.num_nodes()) +
                " does not match " + std::to_string(d.graph.num_nodes() - 1) +
                " feature rows"),
            std::string::npos)
      << loaded.status().ToString();
  std::filesystem::remove(path);
}

TEST(CheckpointTest, ForeignPipelineSnapshotIsRejected) {
  Dataset d = SmallDataset(43);
  PipelineSnapshot snap;
  snap.signature = PipelineSignature({"edit:a"}, "sgc");
  snap.graph = d.graph;
  snap.features = d.features;
  const std::string path = ::testing::TempDir() + "/sgnn_snap_foreign.bin";
  ASSERT_TRUE(SaveSnapshot(snap, path).ok());
  auto loaded = LoadSnapshot(path, PipelineSignature({"edit:b"}, "sgc"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(),
            common::StatusCode::kFailedPrecondition);
  EXPECT_EQ(LoadSnapshot(path + ".nope", 1).status().code(),
            common::StatusCode::kNotFound);
  std::filesystem::remove(path);
}

TEST(PipelineTest, CrashAfterStageThenResumeIsBitwiseIdentical) {
  Dataset d = SmallDataset(47);
  const std::string path = ::testing::TempDir() + "/sgnn_pipeline_ckpt.bin";

  // Ground truth: the uninterrupted run.
  PipelineReport full = MakeCheckpointedPipeline().Run(d, FastConfig());
  ASSERT_TRUE(full.status.ok());

  // Crash after stage 0 (the edit) or stage 1 (the smoothing, whose SpMM
  // bills kernel bytes), leaving its snapshot behind.
  for (const int crash_after : {0, 1}) {
    SCOPED_TRACE("crash after stage " + std::to_string(crash_after));
    std::filesystem::remove(path);
    common::FaultInjector faults(123);
    faults.ArmAt("pipeline.after_stage", crash_after);
    RunContext ctx;
    ctx.checkpoint_path = path;
    ctx.faults = &faults;
    PipelineReport crashed =
        MakeCheckpointedPipeline().Run(d, FastConfig(), ctx);
    EXPECT_EQ(crashed.status.code(), common::StatusCode::kAborted);
    EXPECT_EQ(crashed.stages.size(), static_cast<size_t>(crash_after) + 1);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Resume: skips the restored stages, recomputes the rest, matches the
    // full run.
    ctx.faults = nullptr;
    PipelineReport resumed =
        MakeCheckpointedPipeline().Run(d, FastConfig(), ctx);
    ASSERT_TRUE(resumed.status.ok());
    EXPECT_EQ(resumed.resumed_stages, crash_after + 1);
    ASSERT_EQ(resumed.stages.size(), full.stages.size());
    for (size_t i = 0; i < full.stages.size(); ++i) {
      EXPECT_EQ(resumed.stages[i].name, full.stages[i].name);
    }
    // Each restored row reports the work the crashed run did, counter for
    // counter.
    for (int i = 0; i <= crash_after; ++i) {
      const common::OpCounters& got = resumed.stages[i].ops;
      const common::OpCounters& want = full.stages[i].ops;
      EXPECT_EQ(got.edges_touched, want.edges_touched) << i;
      EXPECT_EQ(got.floats_moved, want.floats_moved) << i;
      EXPECT_EQ(got.bytes_read, want.bytes_read) << i;
      EXPECT_EQ(got.bytes_written, want.bytes_written) << i;
      EXPECT_EQ(got.peak_resident_floats, want.peak_resident_floats) << i;
      EXPECT_EQ(got.resident_floats, want.resident_floats) << i;
    }
    EXPECT_EQ(resumed.edges_after, full.edges_after);
    EXPECT_EQ(resumed.feature_cols_after, full.feature_cols_after);
    EXPECT_DOUBLE_EQ(resumed.model.report.best_val_accuracy,
                     full.model.report.best_val_accuracy);
    EXPECT_DOUBLE_EQ(resumed.model.report.test_accuracy,
                     full.model.report.test_accuracy);
    ExpectIdenticalHeads(resumed.model, full.model);
  }
  std::filesystem::remove(path);
}

// A validated run checkpoints validation rows next to its stages, so its
// snapshot records more stages than it has done; it must still resume,
// and the stage validator then checks the restored state.
TEST(PipelineTest, ValidatedRunResumesFromItsOwnSnapshot) {
  Dataset d = SmallDataset(59);
  const std::string path =
      ::testing::TempDir() + "/sgnn_pipeline_validated.bin";
  std::filesystem::remove(path);
  RunContext ctx;
  ctx.validate_stages = true;
  PipelineReport full = MakeCheckpointedPipeline().Run(d, FastConfig(), ctx);
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();

  common::FaultInjector faults(7);
  faults.ArmAt("pipeline.after_stage", 0);
  ctx.checkpoint_path = path;
  ctx.faults = &faults;
  PipelineReport crashed =
      MakeCheckpointedPipeline().Run(d, FastConfig(), ctx);
  EXPECT_EQ(crashed.status.code(), common::StatusCode::kAborted);
  auto snapshot =
      LoadSnapshot(path, MakeCheckpointedPipeline().Signature());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot.value().stages_done, 1);
  // validate:input, the edit and its validation.
  const size_t restored = snapshot.value().stages.size();
  EXPECT_EQ(restored, 3u);

  // The resumed report holds the restored rows, then `validate:resume`,
  // then the rest of an uninterrupted validated run.
  ctx.faults = nullptr;
  PipelineReport resumed =
      MakeCheckpointedPipeline().Run(d, FastConfig(), ctx);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(resumed.resumed_stages, 1);
  std::vector<std::string> expected;
  for (const StageTiming& stage : full.stages) expected.push_back(stage.name);
  expected.insert(expected.begin() + static_cast<std::ptrdiff_t>(restored),
                  "validate:resume");
  std::vector<std::string> names;
  for (const StageTiming& stage : resumed.stages) names.push_back(stage.name);
  EXPECT_EQ(names, expected);
  ExpectIdenticalHeads(resumed.model, full.model);

  // A snapshot whose features went non-finite is resumed, and the stage
  // validator stops the run on the restored state.
  PipelineSnapshot poisoned = std::move(snapshot).value();
  poisoned.features.data()[0] = std::numeric_limits<float>::quiet_NaN();
  ASSERT_TRUE(SaveSnapshot(poisoned, path).ok());
  PipelineReport refused =
      MakeCheckpointedPipeline().Run(d, FastConfig(), ctx);
  EXPECT_FALSE(refused.status.ok());
  EXPECT_NE(refused.status.message().find("not finite"), std::string::npos)
      << refused.status.ToString();
  ASSERT_FALSE(refused.stages.empty());
  EXPECT_EQ(refused.stages.back().name, "validate:resume");
  std::filesystem::remove(path);
}

TEST(PipelineTest, CorruptSnapshotFallsBackToCleanRun) {
  Dataset d = SmallDataset(53);
  const std::string path = ::testing::TempDir() + "/sgnn_pipeline_bad.bin";
  std::filesystem::remove(path);

  PipelineReport full = MakeCheckpointedPipeline().Run(d, FastConfig());

  common::FaultInjector faults(5);
  faults.ArmAt("pipeline.after_stage", 0);
  RunContext ctx;
  ctx.checkpoint_path = path;
  ctx.faults = &faults;
  (void)MakeCheckpointedPipeline().Run(d, FastConfig(), ctx);
  ASSERT_TRUE(std::filesystem::exists(path));

  // Truncate the snapshot: the CRC no longer matches.
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 16);
  ctx.faults = nullptr;
  PipelineReport resumed =
      MakeCheckpointedPipeline().Run(d, FastConfig(), ctx);
  ASSERT_TRUE(resumed.status.ok());
  EXPECT_EQ(resumed.resumed_stages, 0);  // Fell back to a clean run...
  EXPECT_DOUBLE_EQ(resumed.model.report.test_accuracy,
                   full.model.report.test_accuracy);  // ...same answer.
  ExpectIdenticalHeads(resumed.model, full.model);
  std::filesystem::remove(path);
}

TEST(RegistryTest, CoversAllFigure1Branches) {
  const auto& registry = TechniqueRegistry();
  EXPECT_GE(registry.size(), 20u);
  std::set<std::string> paths;
  for (const Technique& t : registry) {
    EXPECT_FALSE(t.name.empty());
    EXPECT_FALSE(t.description.empty());
    EXPECT_NE(t.figure1_path.find('/'), std::string::npos);
    paths.insert(t.figure1_path.substr(0, t.figure1_path.find('/')));
  }
  // The three top-level Figure-1 families plus the future-directions row.
  EXPECT_TRUE(paths.count("classic"));
  EXPECT_TRUE(paths.count("analytics"));
  EXPECT_TRUE(paths.count("editing"));
  EXPECT_TRUE(paths.count("future"));
}

TEST(RegistryTest, FindTechniqueReturnsMatch) {
  const Technique& t = FindTechnique("hub-labeling");
  EXPECT_EQ(t.name, "hub-labeling");
  EXPECT_NE(t.figure1_path.find("node-pair"), std::string::npos);
}

TEST(RegistryTest, EveryDemoRunsOnASmallDataset) {
  Dataset d = SmallDataset(17);
  for (const Technique& t : TechniqueRegistry()) {
    const std::string result = t.demo(d);
    EXPECT_FALSE(result.empty()) << t.name;
  }
}

}  // namespace
}  // namespace sgnn::core
