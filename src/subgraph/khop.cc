#include "subgraph/khop.h"

#include <queue>

#include "common/check.h"

namespace sgnn::subgraph {

using graph::CsrGraph;
using graph::NodeId;

EgoNet ExtractKHop(const CsrGraph& graph, NodeId center, int hops,
                   int64_t node_budget) {
  EgoNet out;
  std::unordered_map<NodeId, NodeId> slot;
  out.hops_reached =
      KHopBall(graph, center, hops, node_budget, &out.nodes, &slot);
  out.subgraph = graph.InducedSubgraph(out.nodes);
  return out;
}

int KHopBall(const CsrGraph& graph, NodeId center, int hops,
             int64_t node_budget, std::vector<NodeId>* nodes,
             std::unordered_map<NodeId, NodeId>* slot) {
  SGNN_CHECK_LT(center, graph.num_nodes());
  SGNN_CHECK_GE(hops, 0);
  SGNN_CHECK_GE(node_budget, 0);
  SGNN_CHECK(nodes->empty() && slot->empty());
  int hops_reached = 0;
  nodes->push_back(center);
  slot->emplace(center, 0);
  std::queue<std::pair<NodeId, int>> frontier;
  frontier.emplace(center, 0);
  while (!frontier.empty()) {
    const auto [u, depth] = frontier.front();
    frontier.pop();
    if (depth >= hops) continue;
    for (NodeId v : graph.Neighbors(u)) {
      if (node_budget > 0 &&
          static_cast<int64_t>(nodes->size()) >= node_budget) {
        break;
      }
      if (!slot->emplace(v, static_cast<NodeId>(nodes->size())).second) {
        continue;
      }
      nodes->push_back(v);
      hops_reached = depth + 1;
      frontier.emplace(v, depth + 1);
    }
  }
  return hops_reached;
}

}  // namespace sgnn::subgraph
