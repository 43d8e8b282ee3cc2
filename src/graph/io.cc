#include "graph/io.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace sgnn::graph {

common::Status SaveEdgeList(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return common::Status::IOError("cannot open for write: " + path);
  out << "# nodes " << graph.num_nodes() << "\n";
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    auto nbrs = graph.Neighbors(u);
    auto ws = graph.Weights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      out << u << ' ' << nbrs[i] << ' ' << ws[i] << '\n';
    }
  }
  if (!out) return common::Status::IOError("write failed: " + path);
  return common::Status::OK();
}

common::StatusOr<CsrGraph> LoadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) return common::Status::IOError("cannot open for read: " + path);
  std::vector<Edge> edges;
  NodeId num_nodes = 0;
  bool have_header = false;
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream hs(line.substr(1));
      std::string word;
      if (hs >> word && word == "nodes") {
        uint64_t n = 0;
        if (hs >> n) {
          if (n > kInvalidNode) {
            return common::Status::InvalidArgument(
                "node count " + std::to_string(n) + " in " + path +
                " does not fit a 32-bit node id");
          }
          num_nodes = static_cast<NodeId>(n);
          have_header = true;
        }
      }
      continue;
    }
    std::istringstream ls(line);
    uint64_t src = 0, dst = 0;
    float weight = 1.0f;
    if (!(ls >> src >> dst)) {
      return common::Status::InvalidArgument(
          "malformed edge at line " + std::to_string(line_no) + " of " + path);
    }
    if (src >= kInvalidNode || dst >= kInvalidNode) {
      return common::Status::InvalidArgument(
          "node id out of range at line " + std::to_string(line_no) + " of " +
          path);
    }
    ls >> weight;  // optional
    edges.push_back(Edge{static_cast<NodeId>(src), static_cast<NodeId>(dst),
                         weight});
  }
  if (!have_header) {
    for (const Edge& e : edges) {
      num_nodes = std::max({num_nodes, e.src + 1, e.dst + 1});
    }
  } else {
    for (const Edge& e : edges) {
      if (e.src >= num_nodes || e.dst >= num_nodes) {
        return common::Status::InvalidArgument(
            "edge id exceeds declared node count in " + path);
      }
    }
  }
  return CsrGraph::FromEdges(num_nodes, std::move(edges));
}

}  // namespace sgnn::graph
