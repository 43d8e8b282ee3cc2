// Scale-out precompute of sgnn-bench: the K-hop propagate S^K X and a PPR
// push batch run three ways over one graph — out of core through the
// budgeted shard cache (storage), and across forked worker processes
// (partition + dist) — each checked byte for byte against the in-memory
// kernels.

#ifndef SGNNBENCH_SCALEOUT_H_
#define SGNNBENCH_SCALEOUT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "harness.h"
#include "partition/partition.h"
#include "tensor/matrix.h"

namespace sgnnbench {

/// Hops K of the S^K X precompute.
inline constexpr int kScaleoutHops = 2;

/// Everything a round needs, prepared once per set-up: 16 shards, a
/// resident budget of a quarter of their bytes, a 4-way partition and 32
/// push seeds (alpha 0.15, r_max 1e-3).
struct ScaleoutInputs {
  const sgnn::graph::CsrGraph* graph = nullptr;
  const sgnn::tensor::Matrix* features = nullptr;
  std::string shard_dir;
  uint64_t budget_bytes = 0;
  uint64_t total_shard_bytes = 0;
  sgnn::partition::Partition parts;
  std::vector<sgnn::graph::NodeId> push_seeds;
  double partition_build_s = 0.0;
  int64_t edge_cut = 0;
};

/// Writes `graph` as shards under `shard_dir` and builds the worker
/// partition. Returns false (with the reason on stderr) on failure.
bool PrepareScaleout(const sgnn::graph::CsrGraph& graph,
                     const sgnn::tensor::Matrix& features,
                     const std::string& shard_dir, uint64_t seed,
                     ScaleoutInputs* out);

/// One round: out-of-core propagate, out-of-core push batch, distributed
/// propagate. Each path starts from a cold shard cache / fresh workers.
/// Returns false when a path fails.
bool RunScaleoutRound(const ScaleoutInputs& in);

/// Runs each path once and checks it byte for byte against in-memory
/// `PropagateKHops` and `ppr::PushBatch`.
void CheckScaleout(const ScaleoutInputs& in, Checks* checks);

/// storage.*, ppr.*, partition.*, dist.* and the three path times. A path
/// that fails (or a distributed run that respawns a worker) fails a check.
void ProbeScaleout(const ScaleoutInputs& in, Metrics* out, Checks* checks);

}  // namespace sgnnbench

#endif  // SGNNBENCH_SCALEOUT_H_
