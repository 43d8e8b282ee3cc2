#include "subgraph/khop.h"

#include "common/check.h"

namespace sgnn::subgraph {

using graph::CsrGraph;
using graph::NodeId;

EgoNet ExtractKHop(const CsrGraph& graph, NodeId center, int hops,
                   int64_t node_budget) {
  EgoNet out;
  std::unordered_map<NodeId, NodeId> slot;
  std::vector<int64_t> depth_end;
  out.hops_reached = KHopBall(graph, center, hops, node_budget, &out.nodes,
                              &slot, &depth_end);
  out.subgraph = graph.InducedSubgraph(out.nodes);
  return out;
}

int KHopBall(const CsrGraph& graph, NodeId center, int hops,
             int64_t node_budget, std::vector<NodeId>* nodes,
             std::unordered_map<NodeId, NodeId>* slot,
             std::vector<int64_t>* depth_end) {
  SGNN_CHECK_LT(center, graph.num_nodes());
  SGNN_CHECK_GE(hops, 0);
  SGNN_CHECK_GE(node_budget, 0);
  SGNN_CHECK(nodes->empty() && slot->empty() && depth_end->empty());
  int hops_reached = 0;
  nodes->push_back(center);
  slot->emplace(center, 0);
  depth_end->push_back(1);
  // Level by level over `nodes` itself: depth d is [begin, end), expanded
  // in insertion order, which is FIFO BFS order.
  int64_t begin = 0;
  for (int d = 0; d < hops; ++d) {
    const int64_t end = static_cast<int64_t>(nodes->size());
    for (int64_t i = begin; i < end; ++i) {
      for (NodeId v : graph.Neighbors((*nodes)[static_cast<size_t>(i)])) {
        if (node_budget > 0 &&
            static_cast<int64_t>(nodes->size()) >= node_budget) {
          break;
        }
        if (slot->emplace(v, static_cast<NodeId>(nodes->size())).second) {
          nodes->push_back(v);
        }
      }
    }
    begin = end;
    const int64_t size = static_cast<int64_t>(nodes->size());
    if (size > end) hops_reached = d + 1;
    depth_end->push_back(size);
  }
  return hops_reached;
}

}  // namespace sgnn::subgraph
