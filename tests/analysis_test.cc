#include "analysis/validate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/dataset.h"
#include "core/pipeline.h"
#include "core/stages.h"
#include "graph/coo.h"
#include "graph/csr_graph.h"
#include "models/gcn.h"
#include "partition/partition.h"

namespace sgnn::analysis {
namespace {

using common::Status;
using common::StatusCode;
using graph::CsrGraph;
using graph::Edge;
using graph::EdgeIndex;
using graph::NodeId;
using tensor::Matrix;

// Small valid graph: a 5-node cycle with both directions stored.
CsrGraph RingGraph(NodeId n = 5) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    edges.push_back({u, (u + 1) % n, 1.0f});
    edges.push_back({(u + 1) % n, u, 1.0f});
  }
  return CsrGraph::FromEdges(n, std::move(edges));
}

// Raw copies of a graph's internals, free to corrupt.
struct RawCsr {
  NodeId n;
  std::vector<EdgeIndex> offsets;
  std::vector<NodeId> neighbors;
  std::vector<float> weights;

  explicit RawCsr(const CsrGraph& g)
      : n(g.num_nodes()),
        offsets(g.offsets().begin(), g.offsets().end()),
        neighbors(g.neighbors().begin(), g.neighbors().end()),
        weights(g.weights().begin(), g.weights().end()) {}

  Status Validate() const { return ValidateCsr(n, offsets, neighbors, weights); }
};

core::Dataset SmallDataset(uint64_t seed = 1) {
  core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = 200, .num_classes = 3, .avg_degree = 8,
                .homophily = 0.85};
  config.feature_dim = 6;
  config.feature_noise = 0.5;
  return core::MakeSbmDataset(config, seed);
}

nn::TrainConfig FastConfig() {
  nn::TrainConfig config;
  config.epochs = 30;
  config.hidden_dim = 16;
  config.patience = 10;
  config.lr = 0.02;
  return config;
}

core::ModelFn GcnModel() {
  return [](const CsrGraph& g, const Matrix& x, std::span<const int> labels,
            const models::NodeSplits& splits, const nn::TrainConfig& config) {
    return models::TrainGcn(g, x, labels, splits, config);
  };
}

// ---------------------------------------------------------------- CSR --

TEST(ValidateCsrTest, ValidGraphPasses) {
  EXPECT_TRUE(Validate(RingGraph()).ok());
}

TEST(ValidateCsrTest, DetectsOffsetsSizeMismatch) {
  RawCsr raw(RingGraph());
  raw.offsets.pop_back();
  Status s = raw.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("offsets size mismatch"), std::string::npos);
}

TEST(ValidateCsrTest, DetectsNonZeroFirstOffset) {
  RawCsr raw(RingGraph());
  raw.offsets.front() = 1;
  Status s = raw.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("offsets[0]"), std::string::npos);
}

TEST(ValidateCsrTest, DetectsTruncatedFinalOffset) {
  RawCsr raw(RingGraph());
  raw.offsets.back() -= 1;
  Status s = raw.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("offsets[n] != num_edges"), std::string::npos);
}

TEST(ValidateCsrTest, DetectsNonMonotoneOffsets) {
  RawCsr raw(RingGraph());
  // Bump an interior offset past its successor; keep front/back intact.
  raw.offsets[2] = raw.offsets[3] + 1;
  Status s = raw.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("not monotone"), std::string::npos);
  EXPECT_NE(s.message().find("node 2"), std::string::npos);
}

TEST(ValidateCsrTest, DetectsUnsortedAdjacency) {
  RawCsr raw(RingGraph());
  // Node 0 in the ring has neighbours {1, 4}; swapping unsorts them.
  std::swap(raw.neighbors[0], raw.neighbors[1]);
  Status s = raw.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("not sorted strictly increasing"),
            std::string::npos);
}

TEST(ValidateCsrTest, DetectsDuplicateNeighbor) {
  RawCsr raw(RingGraph());
  raw.neighbors[1] = raw.neighbors[0];  // Strictly-increasing also bans dups.
  Status s = raw.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("not sorted strictly increasing"),
            std::string::npos);
}

TEST(ValidateCsrTest, DetectsOutOfBoundsNeighbor) {
  RawCsr raw(RingGraph());
  raw.neighbors[3] = raw.n + 7;
  Status s = raw.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("out of bounds"), std::string::npos);
}

TEST(ValidateCsrTest, DetectsMisalignedWeights) {
  RawCsr raw(RingGraph());
  raw.weights.pop_back();
  Status s = raw.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("weights misaligned"), std::string::npos);
}

TEST(ValidateCsrTest, DetectsNonFiniteWeight) {
  RawCsr raw(RingGraph());
  raw.weights[4] = std::numeric_limits<float>::quiet_NaN();
  Status s = raw.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("weight not finite"), std::string::npos);
}

// ---------------------------------------------------------- edge lists --

TEST(ValidateEdgesTest, ValidBuilderPasses) {
  graph::EdgeListBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(2, 3, 0.5f);
  EXPECT_TRUE(Validate(builder).ok());
}

TEST(ValidateEdgesTest, DetectsOutOfBoundsEndpoint) {
  std::vector<Edge> edges = {{0, 1, 1.0f}, {1, 9, 1.0f}};
  Status s = ValidateEdges(4, edges);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("edge endpoint out of bounds"),
            std::string::npos);
  EXPECT_NE(s.message().find("edge 1"), std::string::npos);
}

TEST(ValidateEdgesTest, DetectsNonFiniteWeight) {
  std::vector<Edge> edges = {
      {0, 1, std::numeric_limits<float>::infinity()}};
  Status s = ValidateEdges(4, edges);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("edge weight not finite"), std::string::npos);
}

// ------------------------------------------------------------ features --

TEST(ValidateFeaturesTest, ReportsRowAndColumnOfFirstNaN) {
  Matrix m(4, 3, 1.0f);
  m.data()[4] = std::numeric_limits<float>::quiet_NaN();  // row 1, col 1
  Status s = ValidateFeatures(m);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("row 1 col 1"), std::string::npos);
}

// ------------------------------------------------------------- dataset --

TEST(ValidateDatasetTest, GeneratedDatasetPasses) {
  EXPECT_TRUE(Validate(SmallDataset()).ok());
}

TEST(ValidateDatasetTest, DetectsLabelOutOfRange) {
  core::Dataset d = SmallDataset();
  d.labels[17] = d.num_classes;
  Status s = Validate(d);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("label out of range at node 17"),
            std::string::npos);
}

TEST(ValidateDatasetTest, DetectsFeatureRowMismatch) {
  core::Dataset d = SmallDataset();
  d.features = Matrix(d.features.rows() - 1, d.features.cols());
  Status s = Validate(d);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("features rows != num_nodes"),
            std::string::npos);
}

TEST(ValidateDatasetTest, DetectsOverlappingSplits) {
  core::Dataset d = SmallDataset();
  ASSERT_FALSE(d.splits.train.empty());
  d.splits.val.push_back(d.splits.train.front());
  Status s = Validate(d);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("splits overlap"), std::string::npos);
  EXPECT_NE(s.message().find("val"), std::string::npos);
}

TEST(ValidateDatasetTest, DetectsSplitIdOutOfBounds) {
  core::Dataset d = SmallDataset();
  d.splits.test.push_back(d.num_nodes());
  Status s = Validate(d);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("test split id out of bounds"),
            std::string::npos);
}

// ----------------------------------------------------------- partition --

TEST(ValidatePartitionTest, RandomPartitionPasses) {
  CsrGraph g = RingGraph(50);
  partition::Partition p = partition::RandomPartition(g, 4, 3);
  EXPECT_TRUE(Validate(p, g).ok());
}

TEST(ValidatePartitionTest, DetectsPartIdOutOfRange) {
  CsrGraph g = RingGraph(10);
  partition::Partition p = partition::RandomPartition(g, 2, 3);
  p.part_of[5] = 2;
  Status s = Validate(p, g);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("part id out of range at node 5"),
            std::string::npos);
}

TEST(ValidatePartitionTest, DetectsIncompleteCover) {
  CsrGraph g = RingGraph(10);
  partition::Partition p = partition::RandomPartition(g, 2, 3);
  p.part_of.pop_back();
  Status s = Validate(p, g);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("does not cover"), std::string::npos);
}

// ------------------------------------------------- pipeline debug mode --

/// Analytics stage that deliberately emits a NaN: the between-stage
/// validator must stop the run before the model sees it.
class NanInjectorStage : public core::AnalyticsStage {
 public:
  std::string name() const override { return "nan_injector"; }
  Matrix Augment(const CsrGraph& graph, const Matrix& features) override {
    (void)graph;
    Matrix out = features;
    out.data()[0] = std::numeric_limits<float>::quiet_NaN();
    return out;
  }
};

TEST(PipelineValidationTest, ValidatedRunRecordsValidationStages) {
  core::Dataset d = SmallDataset();
  core::Pipeline pipeline;
  pipeline.AddEdit(core::MakeUniformSparsifyStage(0.7, 7))
      .SetModel("gcn", GcnModel());

  core::RunContext ctx;
  ctx.validate_stages = true;
  core::PipelineReport report = pipeline.Run(d, FastConfig(), ctx);
  ASSERT_TRUE(report.status.ok());

  // input validation + stage + stage validation + train.
  ASSERT_EQ(report.stages.size(), 4u);
  EXPECT_EQ(report.stages[0].name, "validate:input");
  EXPECT_EQ(report.stages[1].name, "sparsify:uniform");
  EXPECT_EQ(report.stages[2].name, "validate:sparsify:uniform");
  // The validator's scan is billed to the validation stage.
  EXPECT_GT(report.stages[2].ops.edges_touched, 0u);
}

TEST(PipelineValidationTest, ValidatedRunIsBitIdenticalToPlainRun) {
  core::Dataset d = SmallDataset();
  auto build = [] {
    core::Pipeline pipeline;
    pipeline.AddEdit(core::MakeUniformSparsifyStage(0.7, 7))
        .SetModel("gcn", GcnModel());
    return pipeline;
  };
  core::PipelineReport plain = build().Run(d, FastConfig());

  core::RunContext ctx;
  ctx.validate_stages = true;
  core::PipelineReport validated = build().Run(d, FastConfig(), ctx);

  ASSERT_TRUE(plain.status.ok());
  ASSERT_TRUE(validated.status.ok());
  EXPECT_EQ(plain.edges_after, validated.edges_after);
  EXPECT_DOUBLE_EQ(plain.model.report.test_accuracy,
                   validated.model.report.test_accuracy);
  EXPECT_DOUBLE_EQ(plain.model.report.best_val_accuracy,
                   validated.model.report.best_val_accuracy);
  EXPECT_EQ(plain.model.report.epochs_run, validated.model.report.epochs_run);
}

TEST(PipelineValidationTest, CorruptStageOutputStopsValidatedRun) {
  core::Dataset d = SmallDataset();
  core::Pipeline pipeline;
  pipeline.AddAnalytics(std::make_unique<NanInjectorStage>())
      .SetModel("gcn", GcnModel());

  core::RunContext ctx;
  ctx.validate_stages = true;
  core::PipelineReport report = pipeline.Run(d, FastConfig(), ctx);
  ASSERT_FALSE(report.status.ok());
  EXPECT_NE(report.status.message().find("after stage 'nan_injector'"),
            std::string::npos);
  EXPECT_NE(report.status.message().find("not finite"), std::string::npos);
}

TEST(PipelineValidationTest, CustomValidatorOverrides) {
  core::Dataset d = SmallDataset();
  core::Pipeline pipeline;
  pipeline.SetModel("gcn", GcnModel());

  core::RunContext ctx;
  ctx.validate_stages = true;
  ctx.stage_validator = [](const std::string& stage_name, const CsrGraph&,
                               const Matrix&) {
    return Status::Internal("rejected " + stage_name);
  };
  core::PipelineReport report = pipeline.Run(d, FastConfig(), ctx);
  ASSERT_FALSE(report.status.ok());
  EXPECT_EQ(report.status.message(), "rejected input");
}

}  // namespace
}  // namespace sgnn::analysis
