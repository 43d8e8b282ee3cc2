// Out-of-core propagation under a hard memory budget (the §3.2 "graph data
// management for large-scale GNNs" scenario).
//
// A graph larger than RAM is converted once to the on-disk sharded format,
// then the decoupled-GNN precompute path (feature propagation + PPR) runs
// against the mmap'd `storage::ShardedGraph` view with a resident budget a
// fraction of the CSR bytes. The storage contract is that the budget only
// changes shard fault/eviction counts — every number computed is
// bit-identical to the in-memory kernels — so the run prints the identity
// check next to the per-budget cache traffic.
//
// `out_of_core --smoke` exits non-zero unless byte-identity holds at every
// budget (a ctest case, and used by CI and the verify recipe).

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/propagate.h"
#include "ppr/ppr.h"
#include "storage/ooc.h"
#include "storage/shard_writer.h"
#include "storage/sharded_graph.h"
#include "tensor/matrix.h"

int main(int argc, char** argv) {
  using namespace sgnn;
  using graph::NodeId;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }

  const NodeId num_nodes = smoke ? NodeId(1) << 12 : NodeId(1) << 15;
  const int64_t num_edges = smoke ? int64_t(1) << 15 : int64_t(1) << 19;
  std::printf("building R-MAT graph (n=%u, m=%lld)...\n", num_nodes,
              static_cast<long long>(num_edges));
  const graph::CsrGraph g =
      graph::Rmat(num_nodes, num_edges, graph::RmatConfig{}, 7);

  // One-time conversion: contiguous edge-balanced shards, every section
  // CRC-32'd, manifest written last so a crash never leaves a directory
  // that opens with partial data.
  // A per-process directory, so concurrent runs (two ctest trees) never
  // share shard files.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("sgnn_out_of_core_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  const storage::ShardPlan plan = storage::ShardPlan::Contiguous(g, 8);
  if (auto status = storage::WriteShardedGraph(g, plan, dir); !status.ok()) {
    std::fprintf(stderr, "conversion failed: %s\n", status.message().c_str());
    return 1;
  }

  // In-memory reference results for the identity check.
  const graph::Propagator prop(g, graph::Normalization::kSymmetric, true);
  tensor::Matrix x(static_cast<int64_t>(g.num_nodes()), 8);
  common::Rng fill(1);
  for (int64_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(fill.Uniform(-1.0, 1.0));
  }
  tensor::Matrix reference;
  prop.Apply(x, &reference);
  const std::vector<NodeId> seeds = {1, 17, 42, 99};
  const auto ppr_reference = ppr::PushBatch(g, seeds, 0.15, 1e-4);

  int failures = 0;
  uint64_t total = 0;
  // The minimum feasible budget is one whole shard: kernels pin a shard at
  // a time, so a budget below the largest shard file is kResourceExhausted
  // by contract. Clamp the sweep to stay within feasible territory.
  uint64_t max_shard = 0;
  {
    auto open_or = storage::ShardedGraph::Open(dir);
    if (open_or.ok()) {
      total = open_or.value()->total_shard_bytes();
      for (const auto& entry : open_or.value()->manifest().shards) {
        max_shard = std::max(max_shard, entry.file_bytes);
      }
    }
  }
  std::printf("\n%-14s %-12s %-10s %-10s %-12s %s\n", "budget", "resident%",
              "loads", "evictions", "peak_bytes", "identical");
  for (const uint64_t divisor : {uint64_t{1}, uint64_t{3}, uint64_t{8}}) {
    storage::OpenOptions options;
    options.budget_bytes = std::max(total / divisor, max_shard);
    auto open_or = storage::ShardedGraph::Open(dir, options);
    if (!open_or.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   open_or.status().message().c_str());
      return 1;
    }
    storage::ShardedGraph& sg = *open_or.value();
    auto ooc_or = storage::OocPropagator::Create(
        &sg, graph::Normalization::kSymmetric, true);
    tensor::Matrix out;
    bool ok = ooc_or.ok() && ooc_or.value().Apply(x, &out).ok() &&
              out.size() == reference.size() &&
              std::memcmp(out.data(), reference.data(),
                          static_cast<size_t>(out.size()) * sizeof(float)) == 0;
    auto ppr_or = storage::PushBatch(&sg, seeds, 0.15, 1e-4);
    ok = ok && ppr_or.ok() && ppr_or.value().size() == ppr_reference.size();
    for (size_t i = 0; ok && i < seeds.size(); ++i) {
      ok = ppr_or.value()[i].estimate == ppr_reference[i].estimate;
    }
    if (!ok) ++failures;
    const storage::StorageStats stats = sg.stats();
    if (stats.peak_resident_bytes > options.budget_bytes) ++failures;
    std::printf("%-14llu %-12.0f %-10llu %-10llu %-12llu %s\n",
                static_cast<unsigned long long>(options.budget_bytes),
                100.0 * static_cast<double>(stats.peak_resident_bytes) /
                    static_cast<double>(total),
                static_cast<unsigned long long>(stats.loads),
                static_cast<unsigned long long>(stats.evictions),
                static_cast<unsigned long long>(stats.peak_resident_bytes),
                ok ? "yes" : "NO");
  }
  std::filesystem::remove_all(dir);

  std::printf(
      "\nExpected shape: identical results at every budget; smaller budgets "
      "trade more shard loads/evictions for a smaller resident peak.\n");
  if (smoke) {
    std::printf("smoke: %s\n", failures == 0 ? "PASS" : "FAIL");
    return failures == 0 ? 0 : 1;
  }
  return 0;
}
