#include "graph/csr_graph.h"

#include <algorithm>
#include <unordered_map>

namespace sgnn::graph {

CsrGraph::CsrGraph(NodeId num_nodes)
    : offsets_(size_t{num_nodes} + 1, 0) {}

CsrGraph CsrGraph::FromBuilder(EdgeListBuilder builder) {
  builder.Deduplicate();
  return FromEdges(builder.num_nodes(), builder.edges());
}

CsrGraph CsrGraph::FromEdges(NodeId num_nodes, std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  CsrGraph g(num_nodes);
  g.neighbors_.resize(edges.size());
  g.weights_.resize(edges.size());
  for (const Edge& e : edges) {
    SGNN_CHECK_LT(e.src, num_nodes);
    SGNN_CHECK_LT(e.dst, num_nodes);
    g.offsets_[e.src + 1]++;
  }
  for (NodeId u = 0; u < num_nodes; ++u) g.offsets_[u + 1] += g.offsets_[u];
  std::vector<EdgeIndex> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : edges) {
    const EdgeIndex pos = cursor[e.src]++;
    g.neighbors_[static_cast<size_t>(pos)] = e.dst;
    g.weights_[static_cast<size_t>(pos)] = e.weight;
  }
  return g;
}

bool CsrGraph::HasEdge(NodeId u, NodeId v) const {
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

float CsrGraph::EdgeWeight(NodeId u, NodeId v) const {
  auto nbrs = Neighbors(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return 0.0f;
  return Weights(u)[static_cast<size_t>(it - nbrs.begin())];
}

double CsrGraph::WeightedDegree(NodeId u) const {
  double acc = 0.0;
  for (float w : Weights(u)) acc += w;
  return acc;
}

std::vector<Edge> CsrGraph::ToEdges() const {
  std::vector<Edge> out;
  out.reserve(static_cast<size_t>(num_edges()));
  for (NodeId u = 0; u < num_nodes(); ++u) {
    auto nbrs = Neighbors(u);
    auto ws = Weights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      out.push_back(Edge{u, nbrs[i], ws[i]});
    }
  }
  return out;
}

CsrGraph CsrGraph::InducedSubgraph(std::span<const NodeId> nodes) const {
  std::unordered_map<NodeId, NodeId> local;
  local.reserve(nodes.size() * 2);
  for (size_t i = 0; i < nodes.size(); ++i) {
    SGNN_CHECK_LT(nodes[i], num_nodes());
    const bool inserted =
        local.emplace(nodes[i], static_cast<NodeId>(i)).second;
    SGNN_CHECK(inserted);  // Duplicate node in induced-subgraph request.
  }
  std::vector<Edge> edges;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const NodeId u = nodes[i];
    auto nbrs = Neighbors(u);
    auto ws = Weights(u);
    for (size_t j = 0; j < nbrs.size(); ++j) {
      auto it = local.find(nbrs[j]);
      if (it == local.end()) continue;
      edges.push_back(Edge{static_cast<NodeId>(i), it->second, ws[j]});
    }
  }
  return FromEdges(static_cast<NodeId>(nodes.size()), std::move(edges));
}

}  // namespace sgnn::graph
