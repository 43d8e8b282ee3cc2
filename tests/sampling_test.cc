#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>
#include <unordered_set>

#include "graph/generators.h"
#include "sampling/assembly.h"
#include "sampling/historical_cache.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/subgraph_sampler.h"
#include "sampling/variance.h"

namespace sgnn::sampling {
namespace {

using graph::CsrGraph;
using graph::NodeId;
using tensor::Matrix;

std::vector<NodeId> FirstSeeds(int n) {
  std::vector<NodeId> seeds(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) seeds[static_cast<size_t>(i)] = static_cast<NodeId>(i);
  return seeds;
}

void CheckBatchInvariants(const MiniBatch& batch,
                          const std::vector<NodeId>& seeds) {
  ASSERT_FALSE(batch.layers.empty());
  EXPECT_EQ(batch.seeds(), seeds);
  for (size_t l = 0; l < batch.layers.size(); ++l) {
    const LayerSample& layer = batch.layers[l];
    // dst is a prefix of src.
    ASSERT_LE(layer.dst.size(), layer.src.size());
    for (size_t i = 0; i < layer.dst.size(); ++i) {
      EXPECT_EQ(layer.dst[i], layer.src[i]);
    }
    // Offsets are monotone and sized dst+1.
    ASSERT_EQ(layer.offsets.size(), layer.dst.size() + 1);
    EXPECT_EQ(layer.offsets.front(), 0);
    EXPECT_TRUE(std::is_sorted(layer.offsets.begin(), layer.offsets.end()));
    EXPECT_EQ(layer.offsets.back(),
              static_cast<graph::EdgeIndex>(layer.src_local.size()));
    // Edge endpoints index into src.
    for (uint32_t idx : layer.src_local) EXPECT_LT(idx, layer.src.size());
    // Layer chaining: inner layer's dst equals this layer's src.
    if (l + 1 < batch.layers.size()) {
      EXPECT_EQ(batch.layers[l + 1].src, layer.dst);
    }
  }
}

TEST(NodeWiseSamplerTest, BatchInvariantsHold) {
  CsrGraph g = graph::ErdosRenyi(200, 1000, 1);
  common::Rng rng(1);
  auto seeds = FirstSeeds(16);
  std::vector<int> fanouts = {5, 5};
  MiniBatch batch = SampleNodeWise(g, seeds, fanouts, &rng);
  ASSERT_EQ(batch.layers.size(), 2u);
  CheckBatchInvariants(batch, seeds);
}

TEST(NodeWiseSamplerTest, RespectsFanout) {
  CsrGraph g = graph::Complete(50);
  common::Rng rng(2);
  auto seeds = FirstSeeds(5);
  std::vector<int> fanouts = {7};
  MiniBatch batch = SampleNodeWise(g, seeds, fanouts, &rng);
  const LayerSample& layer = batch.layers[0];
  for (size_t i = 0; i < layer.dst.size(); ++i) {
    EXPECT_EQ(layer.offsets[i + 1] - layer.offsets[i], 7);
  }
}

TEST(NodeWiseSamplerTest, SmallDegreeTakesAllNeighbors) {
  CsrGraph g = graph::Cycle(10);  // Degree 2 < fanout 5.
  common::Rng rng(3);
  std::vector<NodeId> seeds = {0};
  std::vector<int> fanouts = {5};
  MiniBatch batch = SampleNodeWise(g, seeds, fanouts, &rng);
  EXPECT_EQ(batch.layers[0].num_edges(), 2);
  // Weight is 1/2 each: exact mean.
  EXPECT_FLOAT_EQ(batch.layers[0].weights[0], 0.5f);
}

TEST(NodeWiseSamplerTest, WeightsFormUnbiasedMeanEstimate) {
  CsrGraph g = graph::BarabasiAlbert(300, 5, 7);
  common::Rng rng(5);
  Matrix x = Matrix::Gaussian(300, 3, 0, 1, &rng);
  auto seeds = FirstSeeds(20);
  VarianceReport report = MeasureSamplerVariance(
      g, x, seeds, SamplerKind::kNodeWise, 4, 600, 11);
  EXPECT_NEAR(report.mean_bias, 0.0, 0.02);
  EXPECT_GT(report.mean_squared_error, 0.0);
}

TEST(NodeWiseSamplerTest, ReceptiveFieldExplodesWithDepth) {
  CsrGraph g = graph::BarabasiAlbert(5000, 5, 9);
  common::Rng rng(7);
  std::vector<NodeId> seeds = {0};
  std::vector<int> f1 = {10};
  std::vector<int> f3 = {10, 10, 10};
  const auto b1 = SampleNodeWise(g, seeds, f1, &rng);
  const auto b3 = SampleNodeWise(g, seeds, f3, &rng);
  EXPECT_GT(static_cast<int64_t>(b3.input_nodes().size()),
            5 * static_cast<int64_t>(b1.input_nodes().size()));
}

// A multigraph lists a neighbour once per parallel edge. The draw picks
// distinct *positions*: exactly `fanout` picks, no id more often than it
// is listed, and each id at its multiplicity times fanout/degree.
TEST(NodeWiseSamplerTest, DrawPicksDistinctPositionsOfAMultigraph) {
  const std::vector<NodeId> nbrs = {3, 3, 3, 5, 5, 7, 7, 7, 7, 9};
  constexpr int kFanout = 4;
  constexpr int kKeys = 20000;
  std::map<NodeId, int> listed;
  for (NodeId v : nbrs) ++listed[v];
  std::map<NodeId, int> total;
  for (uint64_t key = 0; key < kKeys; ++key) {
    std::vector<std::pair<NodeId, float>> out;
    DrawNodeWise(nbrs, /*dst=*/11, kFanout, key, &out);
    ASSERT_EQ(out.size(), static_cast<size_t>(kFanout));
    std::map<NodeId, int> picked;
    for (const auto& [v, w] : out) {
      ++picked[v];
      EXPECT_FLOAT_EQ(w, 1.0f / kFanout);
    }
    for (const auto& [v, count] : picked) {
      ASSERT_TRUE(listed.contains(v));
      ASSERT_LE(count, listed[v]) << "id " << v << " key " << key;
      total[v] += count;
    }
  }
  const double rate = static_cast<double>(kFanout) / nbrs.size();
  for (const auto& [v, count] : listed) {
    EXPECT_NEAR(static_cast<double>(total[v]) / kKeys, count * rate, 0.03)
        << "id " << v;
  }
}

// Over many keys, each neighbour of a simple list is included at rate
// fanout/degree: the picks are a uniform fanout-subset.
TEST(NodeWiseSamplerTest, DrawInclusionRateIsFanoutOverDegree) {
  std::vector<NodeId> nbrs(13);
  for (size_t i = 0; i < nbrs.size(); ++i) nbrs[i] = static_cast<NodeId>(100 + i);
  constexpr int kFanout = 5;
  constexpr int kKeys = 20000;
  std::vector<int> included(nbrs.size(), 0);
  for (uint64_t key = 0; key < kKeys; ++key) {
    std::vector<std::pair<NodeId, float>> out;
    DrawNodeWise(nbrs, /*dst=*/static_cast<NodeId>(key), kFanout, 17, &out);
    ASSERT_EQ(out.size(), static_cast<size_t>(kFanout));
    for (const auto& [v, w] : out) ++included[v - 100];
  }
  const double rate = static_cast<double>(kFanout) / nbrs.size();
  for (size_t i = 0; i < included.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(included[i]) / kKeys, rate, 0.02) << i;
  }
}

TEST(LaborSamplerTest, BatchInvariantsHold) {
  CsrGraph g = graph::ErdosRenyi(200, 1200, 13);
  common::Rng rng(4);
  auto seeds = FirstSeeds(24);
  std::vector<int> fanouts = {5, 5};
  MiniBatch batch = SampleLabor(g, seeds, fanouts, &rng);
  CheckBatchInvariants(batch, seeds);
}

TEST(LaborSamplerTest, UnbiasedMeanEstimate) {
  CsrGraph g = graph::BarabasiAlbert(300, 5, 15);
  common::Rng rng(6);
  Matrix x = Matrix::Gaussian(300, 3, 0, 1, &rng);
  auto seeds = FirstSeeds(20);
  VarianceReport report =
      MeasureSamplerVariance(g, x, seeds, SamplerKind::kLabor, 4, 600, 17);
  EXPECT_NEAR(report.mean_bias, 0.0, 0.02);
}

TEST(LaborSamplerTest, FewerDistinctVerticesThanNodeWiseAtSameFanout) {
  // The LABOR claim (E5): shared variates collapse overlapping
  // neighbourhoods, so fewer distinct vertices are materialised.
  auto sbm = graph::StochasticBlockModel(
      graph::SbmConfig{.num_nodes = 1000, .num_classes = 2,
                       .avg_degree = 30, .homophily = 0.9},
      19);
  common::Rng rng(8);
  Matrix x = Matrix::Gaussian(1000, 2, 0, 1, &rng);
  auto seeds = FirstSeeds(100);
  auto node_wise = MeasureSamplerVariance(sbm.graph, x, seeds,
                                          SamplerKind::kNodeWise, 5, 50, 21);
  auto labor = MeasureSamplerVariance(sbm.graph, x, seeds,
                                      SamplerKind::kLabor, 5, 50, 21);
  EXPECT_LT(labor.avg_distinct_sources, node_wise.avg_distinct_sources);
}

TEST(LayerWiseSamplerTest, BoundsLayerWidth) {
  CsrGraph g = graph::BarabasiAlbert(2000, 5, 23);
  common::Rng rng(9);
  auto seeds = FirstSeeds(50);
  std::vector<int> sizes = {64, 64};
  MiniBatch batch = SampleLayerWise(g, seeds, sizes, &rng);
  CheckBatchInvariants(batch, seeds);
  for (const auto& layer : batch.layers) {
    // src = dst + at most layer_size distinct sampled nodes.
    EXPECT_LE(layer.src.size(), layer.dst.size() + 64);
  }
}

TEST(LayerWiseSamplerTest, ApproximatelyUnbiasedAtLargeWidth) {
  CsrGraph g = graph::ErdosRenyi(300, 2400, 25);
  common::Rng rng(10);
  Matrix x = Matrix::Gaussian(300, 3, 0, 1, &rng);
  auto seeds = FirstSeeds(20);
  VarianceReport report = MeasureSamplerVariance(
      g, x, seeds, SamplerKind::kLayerWise, 200, 400, 27);
  EXPECT_NEAR(report.mean_bias, 0.0, 0.05);
}

TEST(LayerWiseSamplerTest, WiderLayersReduceVariance) {
  CsrGraph g = graph::ErdosRenyi(300, 2400, 29);
  common::Rng rng(11);
  Matrix x = Matrix::Gaussian(300, 3, 0, 1, &rng);
  auto seeds = FirstSeeds(20);
  auto narrow = MeasureSamplerVariance(g, x, seeds, SamplerKind::kLayerWise,
                                       32, 200, 31);
  auto wide = MeasureSamplerVariance(g, x, seeds, SamplerKind::kLayerWise,
                                     256, 200, 31);
  EXPECT_LT(wide.mean_squared_error, narrow.mean_squared_error);
}

TEST(FullNeighborhoodTest, MatchesExactAggregation) {
  CsrGraph g = graph::ErdosRenyi(100, 500, 33);
  common::Rng rng(12);
  Matrix x = Matrix::Gaussian(100, 4, 0, 1, &rng);
  auto seeds = FirstSeeds(10);
  MiniBatch batch = FullNeighborhood(g, seeds, 1);
  Matrix agg = AggregateThroughLayer(batch.layers[0], x);
  for (size_t i = 0; i < seeds.size(); ++i) {
    auto exact = ExactNeighborhoodMean(g, x, seeds[i]);
    for (int64_t c = 0; c < x.cols(); ++c) {
      EXPECT_NEAR(agg.at(static_cast<int64_t>(i), c),
                  exact[static_cast<size_t>(c)], 1e-4);
    }
  }
}

TEST(FullNeighborhoodTest, VarianceDecreasesWithFanout) {
  CsrGraph g = graph::BarabasiAlbert(400, 8, 35);
  common::Rng rng(13);
  Matrix x = Matrix::Gaussian(400, 3, 0, 1, &rng);
  auto seeds = FirstSeeds(20);
  auto f2 = MeasureSamplerVariance(g, x, seeds, SamplerKind::kNodeWise, 2,
                                   300, 37);
  auto f8 = MeasureSamplerVariance(g, x, seeds, SamplerKind::kNodeWise, 8,
                                   300, 37);
  EXPECT_LT(f8.mean_squared_error, f2.mean_squared_error);
}

TEST(SubgraphNodeSamplerTest, BudgetRespectedAndSorted) {
  CsrGraph g = graph::ErdosRenyi(500, 2000, 39);
  common::Rng rng(14);
  SampledSubgraph s = SampleSubgraphNodes(g, 100, &rng);
  EXPECT_EQ(s.nodes.size(), 100u);
  EXPECT_TRUE(std::is_sorted(s.nodes.begin(), s.nodes.end()));
  EXPECT_EQ(s.subgraph.num_nodes(), 100u);
}

TEST(SubgraphNodeSamplerTest, BudgetExceedingGraphTakesAll) {
  CsrGraph g = graph::Cycle(20);
  common::Rng rng(15);
  SampledSubgraph s = SampleSubgraphNodes(g, 1000, &rng);
  EXPECT_EQ(s.nodes.size(), 20u);
  EXPECT_EQ(s.subgraph.num_edges(), g.num_edges());
}

TEST(SubgraphImportanceSamplerTest, PrefersHighWeightNodes) {
  CsrGraph g = graph::BarabasiAlbert(500, 3, 45);
  common::Rng rng(20);
  // Weight mass concentrated on nodes < 50.
  std::vector<double> weights(500, 0.01);
  for (int i = 0; i < 50; ++i) weights[static_cast<size_t>(i)] = 10.0;
  SampledSubgraph s = SampleSubgraphImportance(g, 40, weights, &rng);
  int in_head = 0;
  for (NodeId u : s.nodes) in_head += (u < 50);
  EXPECT_GT(in_head, 30);  // Vast majority from the heavy region.
}

TEST(SubgraphImportanceSamplerTest, DegreeWeightedSamplerHitsHubs) {
  CsrGraph g = graph::Star(300);
  common::Rng rng(21);
  std::vector<double> weights(301);
  for (NodeId u = 0; u < 301; ++u) {
    weights[u] = static_cast<double>(g.OutDegree(u));
  }
  int hub_included = 0;
  for (int t = 0; t < 20; ++t) {
    SampledSubgraph s = SampleSubgraphImportance(g, 10, weights, &rng);
    hub_included += std::binary_search(s.nodes.begin(), s.nodes.end(), 0u);
  }
  EXPECT_EQ(hub_included, 20);  // Hub carries half the total weight.
}

TEST(SubgraphImportanceSamplerTest, ZeroWeightNodesNeverSampled) {
  CsrGraph g = graph::Cycle(100);
  common::Rng rng(22);
  std::vector<double> weights(100, 0.0);
  for (int i = 0; i < 10; ++i) weights[static_cast<size_t>(i)] = 1.0;
  SampledSubgraph s = SampleSubgraphImportance(g, 50, weights, &rng);
  EXPECT_LE(s.nodes.size(), 10u);
  for (NodeId u : s.nodes) EXPECT_LT(u, 10u);
}

TEST(SubgraphEdgeSamplerTest, EndpointsAreIncluded) {
  CsrGraph g = graph::ErdosRenyi(300, 1500, 41);
  common::Rng rng(16);
  SampledSubgraph s = SampleSubgraphEdges(g, 50, &rng);
  EXPECT_GE(s.nodes.size(), 2u);
  EXPECT_LE(s.nodes.size(), 100u);
}

TEST(SubgraphEdgeSamplerTest, BiasedTowardHighDegreeNodes) {
  CsrGraph g = graph::Star(200);
  common::Rng rng(17);
  int hub_included = 0;
  for (int t = 0; t < 50; ++t) {
    SampledSubgraph s = SampleSubgraphEdges(g, 3, &rng);
    hub_included += std::binary_search(s.nodes.begin(), s.nodes.end(), 0u);
  }
  EXPECT_EQ(hub_included, 50);  // Every edge touches the hub.
}

TEST(SubgraphWalkSamplerTest, ConnectedRegionsPreferred) {
  CsrGraph g = graph::Grid(20, 20);
  common::Rng rng(18);
  SampledSubgraph s = SampleSubgraphWalks(g, 5, 10, &rng);
  EXPECT_LE(s.nodes.size(), 5u * 11u);
  EXPECT_GE(s.nodes.size(), 5u);
  // A walk-induced subgraph on a grid should contain edges.
  EXPECT_GT(s.subgraph.num_edges(), 0);
}

TEST(InclusionProbabilityTest, UniformNodeSamplerMatchesBudgetRatio) {
  CsrGraph g = graph::ErdosRenyi(200, 800, 43);
  common::Rng rng(19);
  auto probs = EstimateInclusionProbabilities(g, 50, 400, &rng);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(probs[u], 0.25, 0.08);
  }
}

TEST(HistoricalCacheTest, PutGetRoundTrip) {
  HistoricalEmbeddingCache cache(10, 3);
  EXPECT_FALSE(cache.Has(2));
  std::vector<float> emb = {1, 2, 3};
  cache.Put(2, emb, 5);
  ASSERT_TRUE(cache.Has(2));
  auto row = cache.Get(2);
  EXPECT_FLOAT_EQ(row[0], 1.0f);
  EXPECT_FLOAT_EQ(row[2], 3.0f);
  EXPECT_EQ(cache.Staleness(2, 9), 4);
  EXPECT_EQ(cache.Staleness(3, 9), -1);
}

TEST(HistoricalCacheTest, HitRateCountsFreshEntriesOnly) {
  HistoricalEmbeddingCache cache(10, 2);
  std::vector<float> emb = {0, 0};
  cache.Put(0, emb, 0);
  cache.Put(1, emb, 8);
  std::vector<NodeId> nodes = {0, 1, 2, 3};
  // At step 10 with max staleness 5: only node 1 qualifies.
  EXPECT_DOUBLE_EQ(cache.HitRate(nodes, 10, 5), 0.25);
  // With generous staleness both cached nodes qualify.
  EXPECT_DOUBLE_EQ(cache.HitRate(nodes, 10, 100), 0.5);
}

TEST(HistoricalCacheTest, ClearInvalidatesAll) {
  HistoricalEmbeddingCache cache(5, 2);
  std::vector<float> emb = {1, 1};
  cache.Put(4, emb, 1);
  cache.Clear();
  EXPECT_FALSE(cache.Has(4));
}

TEST(HistoricalCacheTest, OverwriteUpdatesStaleness) {
  HistoricalEmbeddingCache cache(5, 1);
  std::vector<float> a = {1.0f}, b = {2.0f};
  cache.Put(0, a, 1);
  cache.Put(0, b, 7);
  EXPECT_EQ(cache.Staleness(0, 8), 1);
  EXPECT_FLOAT_EQ(cache.Get(0)[0], 2.0f);
}

TEST(HistoricalCacheTest, HitRateMixedStalenessSweep) {
  // Entries written at steps 0..9 have staleness 10-u at step 10, so with
  // bound s exactly the s entries written at steps >= 10 - s qualify.
  HistoricalEmbeddingCache cache(16, 2);
  std::vector<float> emb = {1, 2};
  std::vector<NodeId> nodes;
  for (NodeId u = 0; u < 10; ++u) {
    cache.Put(u, emb, static_cast<int64_t>(u));
    nodes.push_back(u);
  }
  for (int64_t bound = 0; bound <= 10; ++bound) {
    EXPECT_DOUBLE_EQ(cache.HitRate(nodes, 10, bound),
                     static_cast<double>(bound) / 10.0)
        << "bound=" << bound;
  }
}

TEST(HistoricalCacheTest, StalenessBoundIsInclusive) {
  // The documented contract: an entry whose staleness equals the bound
  // exactly is still a hit, and one step older is a miss.
  HistoricalEmbeddingCache cache(4, 2);
  std::vector<float> emb = {1, 2};
  cache.Put(0, emb, 3);  // Staleness 7 at step 10.
  std::vector<NodeId> nodes = {0};
  EXPECT_EQ(cache.Staleness(0, 10), 7);
  EXPECT_DOUBLE_EQ(cache.HitRate(nodes, 10, 7), 1.0);  // == bound: hit.
  EXPECT_DOUBLE_EQ(cache.HitRate(nodes, 10, 6), 0.0);  // bound - 1: miss.
  // max_staleness = 0 admits only entries written at the current step.
  EXPECT_DOUBLE_EQ(cache.HitRate(nodes, 3, 0), 1.0);
  EXPECT_DOUBLE_EQ(cache.HitRate(nodes, 4, 0), 0.0);
}

TEST(HistoricalCacheTest, InvalidateDropsOneEntryAndZeroesRow) {
  HistoricalEmbeddingCache cache(4, 2);
  std::vector<float> a = {1, 2}, b = {3, 4};
  cache.Put(0, a, 1);
  cache.Put(1, b, 1);
  cache.Invalidate(0);
  EXPECT_FALSE(cache.Has(0));
  EXPECT_EQ(cache.Staleness(0, 5), -1);
  ASSERT_TRUE(cache.Has(1));  // Neighbours untouched.
  EXPECT_FLOAT_EQ(cache.Get(1)[0], 3.0f);
  // Re-inserting after invalidation behaves like a fresh write.
  cache.Put(0, b, 9);
  ASSERT_TRUE(cache.Has(0));
  EXPECT_EQ(cache.Staleness(0, 9), 0);
  EXPECT_FLOAT_EQ(cache.Get(0)[1], 4.0f);
}

TEST(HistoricalCacheTest, StalenessOfAbsentNodesIsNegative) {
  HistoricalEmbeddingCache cache(4, 2);
  for (NodeId u = 0; u < 4; ++u) {
    EXPECT_EQ(cache.Staleness(u, 100), -1);
    EXPECT_FALSE(cache.Has(u));
  }
  std::vector<NodeId> nodes = {0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(cache.HitRate(nodes, 100, 1000), 0.0);
}

TEST(HistoricalCacheTest, ClearDropsEveryEntryAndHitRate) {
  HistoricalEmbeddingCache cache(8, 3);
  std::vector<float> emb = {1, 2, 3};
  std::vector<NodeId> nodes;
  for (NodeId u = 0; u < 8; ++u) {
    cache.Put(u, emb, 1);
    nodes.push_back(u);
  }
  EXPECT_DOUBLE_EQ(cache.HitRate(nodes, 1, 0), 1.0);
  cache.Clear();
  for (NodeId u = 0; u < 8; ++u) {
    EXPECT_FALSE(cache.Has(u));
    EXPECT_EQ(cache.Staleness(u, 1), -1);
  }
  EXPECT_DOUBLE_EQ(cache.HitRate(nodes, 1, 1000), 0.0);
}

TEST(HistoricalCacheTest, ConcurrentReadSmoke) {
  // The serving layer shares one cache across worker threads; reads are
  // const and must be safe to run concurrently once the writes are done.
  const NodeId n = 64;
  HistoricalEmbeddingCache cache(n, 4);
  for (NodeId u = 0; u < n; ++u) {
    std::vector<float> emb = {static_cast<float>(u), 1, 2, 3};
    cache.Put(u, emb, static_cast<int64_t>(u % 7));
  }
  std::vector<NodeId> nodes;
  for (NodeId u = 0; u < n; ++u) nodes.push_back(u);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&cache, &nodes, &mismatches, n] {
      for (int rep = 0; rep < 200; ++rep) {
        for (NodeId u = 0; u < n; ++u) {
          if (!cache.Has(u) ||
              cache.Get(u)[0] != static_cast<float>(u) ||
              cache.Staleness(u, 7) != 7 - static_cast<int64_t>(u % 7)) {
            mismatches.fetch_add(1);
          }
        }
        if (cache.HitRate(nodes, 6, 6) != 1.0) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace sgnn::sampling
