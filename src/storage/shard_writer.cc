#include "storage/shard_writer.h"

#include <filesystem>

#include "common/bytes.h"
#include "common/check.h"

namespace sgnn::storage {

using common::Status;
using graph::NodeId;

ShardPlan ShardPlan::Contiguous(const graph::CsrGraph& graph,
                                int num_shards) {
  SGNN_CHECK_GT(num_shards, 0);
  ShardPlan plan;
  plan.num_shards = num_shards;
  plan.shard_of.resize(graph.num_nodes());
  // Cumulative weight offsets[u+1] + (u+1): edges dominate, the +1 per
  // node keeps sparse/empty graphs splitting instead of collapsing into
  // shard 0. Cut after a node once its prefix passes the next 1/k
  // quantile; integer arithmetic keeps the cuts exact and deterministic.
  const auto& offsets = graph.offsets();
  const int64_t total =
      graph.num_edges() + static_cast<int64_t>(graph.num_nodes());
  int shard = 0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    plan.shard_of[u] = static_cast<uint32_t>(shard);
    const int64_t prefix = offsets[u + 1] + static_cast<int64_t>(u) + 1;
    while (shard + 1 < num_shards &&
           prefix * num_shards >= (shard + 1) * total) {
      ++shard;
    }
  }
  return plan;
}

ShardPlan ShardPlan::FromPartition(const partition::Partition& partition) {
  SGNN_CHECK_GT(partition.k, 0);
  ShardPlan plan;
  plan.num_shards = partition.k;
  plan.shard_of.reserve(partition.part_of.size());
  for (int part : partition.part_of) {
    SGNN_CHECK(part >= 0 && part < partition.k);
    plan.shard_of.push_back(static_cast<uint32_t>(part));
  }
  return plan;
}

Status WriteShardedGraph(const graph::CsrGraph& graph, const ShardPlan& plan,
                         const std::string& dir) {
  if (plan.num_shards <= 0) {
    return Status::InvalidArgument("shard plan has no shards");
  }
  if (plan.shard_of.size() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "shard plan covers " + std::to_string(plan.shard_of.size()) +
        " nodes, graph has " + std::to_string(graph.num_nodes()));
  }
  for (size_t u = 0; u < plan.shard_of.size(); ++u) {
    if (plan.shard_of[u] >= static_cast<uint32_t>(plan.num_shards)) {
      return Status::InvalidArgument(
          "node " + std::to_string(u) + " assigned to shard " +
          std::to_string(plan.shard_of[u]) + " of " +
          std::to_string(plan.num_shards));
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());

  // Rows per shard in ascending node order — the order every reader and
  // the cache iterate in, and what makes per-row output independent of
  // shard geometry.
  std::vector<std::vector<NodeId>> rows(
      static_cast<size_t>(plan.num_shards));
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    rows[plan.shard_of[u]].push_back(u);
  }

  ShardManifest manifest;
  manifest.num_nodes = graph.num_nodes();
  manifest.num_edges = static_cast<uint64_t>(graph.num_edges());
  manifest.shard_of = plan.shard_of;
  manifest.shards.resize(static_cast<size_t>(plan.num_shards));

  for (int s = 0; s < plan.num_shards; ++s) {
    ShardData shard;
    shard.shard_id = static_cast<uint32_t>(s);
    shard.rows = rows[static_cast<size_t>(s)];
    shard.offsets.reserve(shard.rows.size() + 1);
    shard.offsets.push_back(0);
    for (NodeId u : shard.rows) {
      auto nbrs = graph.Neighbors(u);
      auto ws = graph.Weights(u);
      shard.neighbors.insert(shard.neighbors.end(), nbrs.begin(), nbrs.end());
      shard.weights.insert(shard.weights.end(), ws.begin(), ws.end());
      shard.offsets.push_back(shard.neighbors.size());
    }

    const std::string bytes = SerializeShard(shard);
    SGNN_RETURN_IF_ERROR(common::WriteFileAtomic(ShardPath(dir, s), bytes));

    ShardEntry& entry = manifest.shards[static_cast<size_t>(s)];
    entry.num_rows = static_cast<uint32_t>(shard.rows.size());
    entry.min_node = shard.rows.empty() ? 0 : shard.rows.front();
    entry.max_node = shard.rows.empty() ? 0 : shard.rows.back();
    entry.num_edges = shard.neighbors.size();
    entry.file_bytes = bytes.size();
  }

  // Manifest last: an interrupted conversion leaves a directory that
  // fails to open (no manifest) rather than one that lies.
  return common::WriteFileAtomic(ManifestPath(dir), SerializeManifest(manifest));
}

}  // namespace sgnn::storage
