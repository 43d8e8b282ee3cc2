#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <vector>

#include "graph/generators.h"
#include "graph/metrics.h"
#include "subgraph/khop.h"
#include "subgraph/walk_store.h"

namespace sgnn::subgraph {
namespace {

using graph::CsrGraph;
using graph::NodeId;

TEST(KHopTest, ZeroHopsIsJustTheCenter) {
  CsrGraph g = graph::ErdosRenyi(50, 200, 1);
  EgoNet ego = ExtractKHop(g, 7, 0, 0);
  ASSERT_EQ(ego.nodes.size(), 1u);
  EXPECT_EQ(ego.nodes[0], 7u);
  EXPECT_EQ(ego.hops_reached, 0);
}

TEST(KHopTest, CollectsExactKHopBall) {
  CsrGraph g = graph::Path(10);
  EgoNet ego = ExtractKHop(g, 5, 2, 0);
  std::set<NodeId> expected = {3, 4, 5, 6, 7};
  EXPECT_EQ(std::set<NodeId>(ego.nodes.begin(), ego.nodes.end()), expected);
  EXPECT_EQ(ego.hops_reached, 2);
}

TEST(KHopTest, MatchesReceptiveFieldSize) {
  CsrGraph g = graph::BarabasiAlbert(500, 3, 3);
  for (int hops : {1, 2, 3}) {
    EgoNet ego = ExtractKHop(g, 0, hops, 0);
    EXPECT_EQ(static_cast<int64_t>(ego.nodes.size()),
              graph::ReceptiveFieldSize(g, 0, hops));
  }
}

TEST(KHopTest, BudgetTruncates) {
  CsrGraph g = graph::Complete(100);
  EgoNet ego = ExtractKHop(g, 0, 2, 10);
  EXPECT_EQ(ego.nodes.size(), 10u);
  EXPECT_EQ(ego.subgraph.num_nodes(), 10u);
  // Induced subgraph of a clique is a clique.
  EXPECT_EQ(ego.subgraph.num_edges(), 90);
}

TEST(KHopTest, SubgraphEdgesAreInduced) {
  CsrGraph g = graph::Cycle(12);
  EgoNet ego = ExtractKHop(g, 0, 2, 0);  // Nodes {10,11,0,1,2}.
  EXPECT_EQ(ego.nodes.size(), 5u);
  EXPECT_EQ(ego.subgraph.num_edges(), 8);  // A path of 5 nodes: 4 und. edges.
}

TEST(KHopTest, BallReportsWhereEachDepthEnds) {
  // A path's BFS from one end adds one node per depth until it runs out;
  // the depths past the last node end where it does.
  const CsrGraph g = graph::Path(5);
  std::vector<NodeId> nodes;
  std::unordered_map<NodeId, NodeId> slot;
  std::vector<int64_t> depth_end;
  EXPECT_EQ(KHopBall(g, 0, 6, 0, &nodes, &slot, &depth_end), 4);
  EXPECT_EQ(nodes, (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(depth_end, (std::vector<int64_t>{1, 2, 3, 4, 5, 5, 5}));

  // A budget cuts the ball inside a depth: 3 of the clique's 99 depth-1
  // nodes, and nothing at depth 2.
  const CsrGraph clique = graph::Complete(100);
  nodes.clear();
  slot.clear();
  depth_end.clear();
  EXPECT_EQ(KHopBall(clique, 0, 2, 4, &nodes, &slot, &depth_end), 1);
  EXPECT_EQ(depth_end, (std::vector<int64_t>{1, 4, 4}));
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(slot.at(nodes[i]), static_cast<NodeId>(i));
  }
}

TEST(WalkStoreTest, WalksStartAtSeedAndFollowEdges) {
  CsrGraph g = graph::ErdosRenyi(100, 500, 5);
  common::Rng rng(7);
  WalkStore store;
  const int bundle = store.AddSeed(g, 13, 8, 6, &rng);
  EXPECT_EQ(store.seed(bundle), 13u);
  EXPECT_EQ(store.NumWalks(bundle), 8);
  for (int w = 0; w < 8; ++w) {
    auto walk = store.Walk(bundle, w);
    ASSERT_FALSE(walk.empty());
    EXPECT_EQ(walk[0], 13u);
    for (size_t i = 1; i < walk.size(); ++i) {
      EXPECT_TRUE(g.HasEdge(walk[i - 1], walk[i]));
    }
  }
}

TEST(WalkStoreTest, NodeSetIsDeduplicatedUnionOfWalks) {
  CsrGraph g = graph::Cycle(20);
  common::Rng rng(9);
  WalkStore store;
  const int bundle = store.AddSeed(g, 0, 10, 5, &rng);
  auto node_set = store.NodeSet(bundle);
  std::set<NodeId> unique(node_set.begin(), node_set.end());
  EXPECT_EQ(unique.size(), node_set.size());  // No duplicates.
  std::set<NodeId> visited;
  for (int w = 0; w < 10; ++w) {
    for (NodeId v : store.Walk(bundle, w)) visited.insert(v);
  }
  EXPECT_EQ(unique, visited);
  EXPECT_EQ(node_set[0], 0u);  // Seed first.
}

TEST(WalkStoreTest, MultipleBundlesAreIndependent) {
  CsrGraph g = graph::ErdosRenyi(200, 1000, 11);
  common::Rng rng(13);
  WalkStore store;
  const int b0 = store.AddSeed(g, 5, 4, 3, &rng);
  const int b1 = store.AddSeed(g, 50, 6, 4, &rng);
  EXPECT_EQ(store.num_seeds(), 2);
  EXPECT_EQ(store.Walk(b0, 0)[0], 5u);
  EXPECT_EQ(store.Walk(b1, 0)[0], 50u);
  EXPECT_EQ(store.NumWalks(b1), 6);
}

TEST(WalkStoreTest, DanglingNodeTruncatesWalk) {
  graph::EdgeListBuilder b(3);
  b.AddEdge(0, 1);  // Directed: 1 has no out-edges.
  CsrGraph g = CsrGraph::FromBuilder(std::move(b));
  common::Rng rng(15);
  WalkStore store;
  const int bundle = store.AddSeed(g, 0, 2, 5, &rng);
  for (int w = 0; w < 2; ++w) {
    auto walk = store.Walk(bundle, w);
    EXPECT_EQ(walk.size(), 2u);  // 0 -> 1, then stuck.
  }
}

TEST(WalkStoreTest, DedupCompressesRepeatedVisits) {
  // On a small cycle, long walks revisit few distinct nodes: the pool is
  // tiny while the dense representation is large (the SUREL claim).
  CsrGraph g = graph::Cycle(10);
  common::Rng rng(17);
  WalkStore store;
  store.AddSeed(g, 0, 50, 20, &rng);
  auto stats = store.Stats();
  EXPECT_EQ(stats.dense_slots, 50 * 21);
  EXPECT_LE(stats.pool_entries, 10);
  EXPECT_LT(stats.stored_bytes(), stats.dense_bytes());
}

TEST(WalkStoreTest, StorageAccountingAddsUpAcrossBundles) {
  CsrGraph g = graph::ErdosRenyi(300, 1500, 19);
  common::Rng rng(21);
  WalkStore store;
  store.AddSeed(g, 1, 5, 4, &rng);
  auto before = store.Stats();
  store.AddSeed(g, 2, 5, 4, &rng);
  auto after = store.Stats();
  EXPECT_GT(after.dense_slots, before.dense_slots);
  EXPECT_GT(after.pool_entries, before.pool_entries);
}

}  // namespace
}  // namespace sgnn::subgraph
