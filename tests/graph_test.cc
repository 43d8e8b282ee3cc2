#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <set>
#include <string>

#include "common/counters.h"
#include "graph/coo.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "graph/propagate.h"
#include "tensor/ops.h"

namespace sgnn::graph {
namespace {

using tensor::Matrix;

TEST(EdgeListBuilderTest, AddAndDeduplicate) {
  EdgeListBuilder b(4);
  b.AddEdge(0, 1, 1.0f);
  b.AddEdge(0, 1, 2.0f);
  b.AddEdge(1, 0);
  b.Deduplicate();
  ASSERT_EQ(b.num_edges(), 2u);
  EXPECT_FLOAT_EQ(b.edges()[0].weight, 3.0f);  // Parallel weights summed.
}

TEST(EdgeListBuilderTest, SymmetrizeAddsReverses) {
  EdgeListBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.Symmetrize();
  CsrGraph g = CsrGraph::FromBuilder(std::move(b));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_EQ(g.num_edges(), 4);
}

TEST(EdgeListBuilderTest, SymmetrizeIsIdempotentOnSymmetricInput) {
  EdgeListBuilder b(3);
  b.AddUndirectedEdge(0, 1);
  b.Symmetrize();
  EXPECT_EQ(b.num_edges(), 2u);
}

TEST(EdgeListBuilderTest, RemoveSelfLoops) {
  EdgeListBuilder b(3);
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  b.AddEdge(2, 2);
  b.RemoveSelfLoops();
  EXPECT_EQ(b.num_edges(), 1u);
}

TEST(CsrGraphTest, BuildsSortedAdjacency) {
  EdgeListBuilder b(5);
  b.AddEdge(0, 4);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  CsrGraph g = CsrGraph::FromBuilder(std::move(b));
  auto nbrs = g.Neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(g.OutDegree(0), 3);
  EXPECT_EQ(g.OutDegree(1), 0);
}

TEST(CsrGraphTest, HasEdgeAndWeight) {
  EdgeListBuilder b(3);
  b.AddEdge(0, 1, 2.5f);
  CsrGraph g = CsrGraph::FromBuilder(std::move(b));
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_FLOAT_EQ(g.EdgeWeight(0, 1), 2.5f);
  EXPECT_FLOAT_EQ(g.EdgeWeight(0, 2), 0.0f);
}

TEST(CsrGraphTest, ToEdgesRoundTrips) {
  CsrGraph g = ErdosRenyi(50, 100, 1);
  CsrGraph g2 = CsrGraph::FromEdges(g.num_nodes(), g.ToEdges());
  EXPECT_EQ(g.num_edges(), g2.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto a = g.Neighbors(u);
    auto b = g2.Neighbors(u);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

TEST(CsrGraphTest, InducedSubgraphKeepsInternalEdgesOnly) {
  CsrGraph g = Path(6);  // 0-1-2-3-4-5
  std::vector<NodeId> nodes = {1, 2, 4};
  CsrGraph sub = g.InducedSubgraph(nodes);
  EXPECT_EQ(sub.num_nodes(), 3u);
  EXPECT_TRUE(sub.HasEdge(0, 1));   // 1-2 survives
  EXPECT_TRUE(sub.HasEdge(1, 0));
  EXPECT_FALSE(sub.HasEdge(1, 2));  // 2-4 was not an edge
  EXPECT_EQ(sub.num_edges(), 2);
}

TEST(CsrGraphTest, WeightedDegreeSumsWeights) {
  EdgeListBuilder b(3);
  b.AddEdge(0, 1, 2.0f);
  b.AddEdge(0, 2, 0.5f);
  CsrGraph g = CsrGraph::FromBuilder(std::move(b));
  EXPECT_DOUBLE_EQ(g.WeightedDegree(0), 2.5);
}

TEST(GeneratorsTest, PathHasExpectedStructure) {
  CsrGraph g = Path(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 8);  // 4 undirected edges
  EXPECT_EQ(g.OutDegree(0), 1);
  EXPECT_EQ(g.OutDegree(2), 2);
}

TEST(GeneratorsTest, CycleIsTwoRegular) {
  CsrGraph g = Cycle(7);
  for (NodeId u = 0; u < 7; ++u) EXPECT_EQ(g.OutDegree(u), 2);
}

TEST(GeneratorsTest, StarDegrees) {
  CsrGraph g = Star(6);
  EXPECT_EQ(g.num_nodes(), 7u);
  EXPECT_EQ(g.OutDegree(0), 6);
  for (NodeId u = 1; u < 7; ++u) EXPECT_EQ(g.OutDegree(u), 1);
}

TEST(GeneratorsTest, CompleteHasAllPairs) {
  CsrGraph g = Complete(5);
  EXPECT_EQ(g.num_edges(), 20);  // 5*4 directed
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(g.OutDegree(u), 4);
}

TEST(GeneratorsTest, GridDegreesRange) {
  CsrGraph g = Grid(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_EQ(stats.min, 2);
  EXPECT_EQ(stats.max, 4);
}

TEST(GeneratorsTest, ErdosRenyiIsSimpleSymmetricDeterministic) {
  CsrGraph g1 = ErdosRenyi(100, 300, 42);
  CsrGraph g2 = ErdosRenyi(100, 300, 42);
  EXPECT_EQ(g1.num_edges(), g2.num_edges());
  for (NodeId u = 0; u < g1.num_nodes(); ++u) {
    EXPECT_FALSE(g1.HasEdge(u, u));
    for (NodeId v : g1.Neighbors(u)) EXPECT_TRUE(g1.HasEdge(v, u));
  }
}

TEST(GeneratorsTest, BarabasiAlbertIsSkewed) {
  CsrGraph g = BarabasiAlbert(2000, 3, 7);
  DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_GE(stats.min, 3);
  // Power-law graphs have hubs far above the mean.
  EXPECT_GT(static_cast<double>(stats.max), 5.0 * stats.mean);
}

TEST(GeneratorsTest, RmatProducesRequestedScale) {
  CsrGraph g = Rmat(1024, 5000, RmatConfig{}, 3);
  EXPECT_EQ(g.num_nodes(), 1024u);
  EXPECT_GT(g.num_edges(), 5000);  // Symmetrised, minus collisions.
  DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_GT(static_cast<double>(stats.max), 3.0 * stats.mean);
}

TEST(GeneratorsTest, SbmHomophilyDialWorks) {
  for (double h : {0.1, 0.5, 0.9}) {
    SbmGraph sbm = StochasticBlockModel(
        SbmConfig{.num_nodes = 2000, .num_classes = 4, .avg_degree = 12.0,
                  .homophily = h},
        11);
    double measured = EdgeHomophily(sbm.graph, sbm.labels);
    EXPECT_NEAR(measured, h, 0.06) << "target homophily " << h;
  }
}

TEST(GeneratorsTest, SbmBalancedClasses) {
  SbmGraph sbm = StochasticBlockModel(
      SbmConfig{.num_nodes = 100, .num_classes = 4, .avg_degree = 8.0,
                .homophily = 0.7},
      5);
  std::vector<int> counts(4, 0);
  for (int label : sbm.labels) counts[label]++;
  for (int c : counts) EXPECT_EQ(c, 25);
}

TEST(GeneratorsTest, KarateClubCanonical) {
  SbmGraph karate = KarateClub();
  EXPECT_EQ(karate.graph.num_nodes(), 34u);
  EXPECT_EQ(karate.graph.num_edges(), 156);  // 78 undirected
  EXPECT_GT(EdgeHomophily(karate.graph, karate.labels), 0.8);
}

TEST(MetricsTest, DegreeStatsOnStar) {
  DegreeStats stats = ComputeDegreeStats(Star(9));
  EXPECT_EQ(stats.min, 1);
  EXPECT_EQ(stats.max, 9);
  EXPECT_NEAR(stats.mean, 1.8, 1e-9);
}

TEST(MetricsTest, ConnectedComponentsCountsIslands) {
  EdgeListBuilder b(6);
  b.AddUndirectedEdge(0, 1);
  b.AddUndirectedEdge(2, 3);
  CsrGraph g = CsrGraph::FromBuilder(std::move(b));
  Components comps = ConnectedComponents(g);
  EXPECT_EQ(comps.count, 4);  // {0,1}, {2,3}, {4}, {5}
  EXPECT_EQ(comps.component_of[0], comps.component_of[1]);
  EXPECT_NE(comps.component_of[0], comps.component_of[2]);
}

TEST(MetricsTest, BfsDistancesOnPath) {
  auto dist = BfsDistances(Path(5), 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(dist[i], i);
}

TEST(MetricsTest, BfsUnreachableIsMinusOne) {
  EdgeListBuilder b(3);
  b.AddUndirectedEdge(0, 1);
  auto dist = BfsDistances(CsrGraph::FromBuilder(std::move(b)), 0);
  EXPECT_EQ(dist[2], -1);
}

TEST(MetricsTest, DiameterOfPathIsExact) {
  EXPECT_EQ(DiameterLowerBound(Path(10), 4), 9);
}

TEST(MetricsTest, ClusteringCoefficientExtremes) {
  EXPECT_NEAR(ClusteringCoefficient(Complete(6), 100, 1), 1.0, 1e-9);
  EXPECT_NEAR(ClusteringCoefficient(Star(8), 100, 1), 0.0, 1e-9);
}

TEST(MetricsTest, ReceptiveFieldGrowsWithHops) {
  CsrGraph g = BarabasiAlbert(500, 3, 9);
  int64_t r1 = ReceptiveFieldSize(g, 0, 1);
  int64_t r2 = ReceptiveFieldSize(g, 0, 2);
  int64_t r3 = ReceptiveFieldSize(g, 0, 3);
  EXPECT_LT(r1, r2);
  EXPECT_LT(r2, r3);
  EXPECT_EQ(ReceptiveFieldSize(g, 0, 0), 1);
}

TEST(MetricsTest, HomophilyOnLabeledPath) {
  CsrGraph g = Path(4);
  std::vector<int> labels = {0, 0, 1, 1};
  // Edges: (0,1) same, (1,2) diff, (2,3) same -> 2/3 of undirected edges.
  EXPECT_NEAR(EdgeHomophily(g, labels), 2.0 / 3.0, 1e-9);
}

TEST(PropagateTest, RowNormalizationAverages) {
  CsrGraph g = Star(2);  // 0-1, 0-2
  Propagator prop(g, Normalization::kRow, /*add_self_loops=*/false);
  Matrix x = Matrix::FromRows({{0}, {2}, {4}});
  Matrix out;
  prop.Apply(x, &out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 3.0f);  // mean of leaves
  EXPECT_FLOAT_EQ(out.at(1, 0), 0.0f);
}

TEST(PropagateTest, SymmetricNormalizationMatchesHand) {
  // Path 0-1-2: degrees 1,2,1. S[0][1] = 1/sqrt(1*2).
  CsrGraph g = Path(3);
  Propagator prop(g, Normalization::kSymmetric, false);
  Matrix x = Matrix::FromRows({{1}, {0}, {0}});
  Matrix out;
  prop.Apply(x, &out);
  EXPECT_NEAR(out.at(1, 0), 1.0 / std::sqrt(2.0), 1e-6);
  EXPECT_NEAR(out.at(0, 0), 0.0, 1e-6);
}

TEST(PropagateTest, SelfLoopsUseRenormalizedDegrees) {
  CsrGraph g = Path(2);  // Both degree 1; with self loops degree 2.
  Propagator prop(g, Normalization::kSymmetric, true);
  Matrix x = Matrix::FromRows({{2}, {0}});
  Matrix out;
  prop.Apply(x, &out);
  EXPECT_NEAR(out.at(0, 0), 1.0, 1e-6);  // self: 2 * 1/2
  EXPECT_NEAR(out.at(1, 0), 1.0, 1e-6);  // neighbor: 2 / sqrt(4)
}

TEST(PropagateTest, RowStochasticRowsSumToOne) {
  CsrGraph g = ErdosRenyi(60, 200, 2);
  Propagator prop(g, Normalization::kRow, true);
  Matrix ones(60, 1, 1.0f);
  Matrix out;
  prop.Apply(ones, &out);
  for (int64_t r = 0; r < 60; ++r) {
    EXPECT_NEAR(out.at(r, 0), 1.0, 1e-5);
  }
}

TEST(PropagateTest, TransposeAgreesOnSymmetricOperator) {
  CsrGraph g = ErdosRenyi(40, 120, 5);
  Propagator prop(g, Normalization::kSymmetric, true);
  common::Rng rng(1);
  Matrix x = Matrix::Gaussian(40, 3, 0, 1, &rng);
  Matrix a, b;
  prop.Apply(x, &a);
  prop.ApplyTranspose(x, &b);
  EXPECT_LT(tensor::MaxAbsDiff(a, b), 1e-5);
}

TEST(PropagateTest, ColumnNormalizationPreservesMassOnVector) {
  // A D^-1 is column-stochastic on connected graphs: total mass preserved.
  CsrGraph g = ErdosRenyi(50, 200, 8);
  Propagator prop(g, Normalization::kColumn, true);
  std::vector<double> x(50, 0.0);
  x[3] = 1.0;
  std::vector<double> out;
  prop.ApplyVector(x, &out);
  double sum = std::accumulate(out.begin(), out.end(), 0.0);
  // Coefficients are stored as float, so allow single-precision slack.
  EXPECT_NEAR(sum, 1.0, 1e-5);
}

TEST(PropagateTest, KHopsMatchesRepeatedApply) {
  CsrGraph g = Cycle(8);
  Propagator prop(g, Normalization::kRow, false);
  common::Rng rng(3);
  Matrix x = Matrix::Gaussian(8, 2, 0, 1, &rng);
  Matrix once, twice;
  prop.Apply(x, &once);
  prop.Apply(once, &twice);
  Matrix via_hops = PropagateKHops(prop, x, 2);
  EXPECT_LT(tensor::MaxAbsDiff(twice, via_hops), 1e-6);
}

TEST(PropagateTest, CountsEdgesTouched) {
  CsrGraph g = Cycle(10);
  Propagator prop(g, Normalization::kRow, false);
  Matrix x(10, 4, 1.0f);
  Matrix out;
  common::ScopedCounterDelta scope;
  prop.Apply(x, &out);
  EXPECT_EQ(scope.Delta().edges_touched, static_cast<uint64_t>(g.num_edges()));
}

TEST(IoTest, SaveLoadRoundTrip) {
  CsrGraph g = ErdosRenyi(30, 80, 4);
  std::string path = ::testing::TempDir() + "/graph_roundtrip.txt";
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  const CsrGraph& g2 = loaded.value();
  EXPECT_EQ(g2.num_nodes(), g.num_nodes());
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto a = g.Neighbors(u);
    auto b = g2.Neighbors(u);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
  std::remove(path.c_str());
}

TEST(IoTest, LoadMissingFileFails) {
  auto result = LoadEdgeList("/nonexistent/path/graph.txt");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kIOError);
}

TEST(IoTest, LoadRejectsOutOfRangeIds) {
  std::string path = ::testing::TempDir() + "/bad_graph.txt";
  { std::ofstream(path) << "# nodes 3\n0 1\n0 7\n"; }
  auto result = LoadEdgeList(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// Ids at or above kInvalidNode and header counts past it are rejected:
// id 2^32 - 1 made the inferred node count wrap to 0, and larger ids and
// counts were truncated into range.
TEST(IoTest, LoadRejectsIdsAndCountsPastNodeIdRange) {
  const std::string path = ::testing::TempDir() + "/wide_ids.txt";
  for (const char* text :
       {"4294967295 0\n", "5000000001 0\n", "# nodes 4294967298\n0 1\n"}) {
    { std::ofstream(path) << text; }
    auto result = LoadEdgeList(path);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(IoTest, LoadInfersNodeCountWithoutHeader) {
  std::string path = ::testing::TempDir() + "/headerless.txt";
  { std::ofstream(path) << "0 5\n2 3\n"; }
  auto result = LoadEdgeList(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_nodes(), 6u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sgnn::graph
