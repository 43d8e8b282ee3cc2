#ifndef SGNN_SUBGRAPH_KHOP_H_
#define SGNN_SUBGRAPH_KHOP_H_

#include <unordered_map>
#include <vector>

#include "graph/csr_graph.h"

namespace sgnn::subgraph {

/// k-hop ego-network extraction (§3.3.3): the materialised-subgraph
/// baseline that walk-based storage is compared against.
struct EgoNet {
  std::vector<graph::NodeId> nodes;  ///< BFS order, nodes[0] == center.
  graph::CsrGraph subgraph;          ///< Induced subgraph over `nodes`.
  int hops_reached = 0;              ///< Depth actually explored.
};

/// Extracts the `hops`-hop neighbourhood of `center`, truncating the BFS
/// frontier once `node_budget` nodes are collected (budget includes the
/// center; a budget of 0 means unlimited).
EgoNet ExtractKHop(const graph::CsrGraph& graph, graph::NodeId center,
                   int hops, int64_t node_budget);

/// The BFS behind `ExtractKHop`, without materialising the subgraph:
/// appends the ball's nodes to `nodes` in BFS order (center first, so
/// sorted by distance from it), maps each to its index there in `slot`,
/// which doubles as the BFS seen-set, and sets `depth_end[d]` to the count
/// of ball nodes within distance d, for d = 0..hops. All three start empty.
/// Returns the depth actually explored.
int KHopBall(const graph::CsrGraph& graph, graph::NodeId center, int hops,
             int64_t node_budget, std::vector<graph::NodeId>* nodes,
             std::unordered_map<graph::NodeId, graph::NodeId>* slot,
             std::vector<int64_t>* depth_end);

}  // namespace sgnn::subgraph

#endif  // SGNN_SUBGRAPH_KHOP_H_
