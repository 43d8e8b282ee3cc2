#ifndef SGNN_DIST_EXCHANGE_H_
#define SGNN_DIST_EXCHANGE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/csr_graph.h"
#include "partition/partition.h"

namespace sgnn::dist {

/// Per-epoch communication plan for partition-parallel propagation: which
/// rows each worker owns and which remote (halo/boundary) rows it must
/// receive before it can aggregate its local nodes. `need[w]` is exactly
/// the set `core::SimulateDistributedEpoch` prices — the distinct
/// neighbours of w's local nodes owned by other workers — so measured
/// wire volume and E15's simulated volume are directly comparable.
/// Both lists are sorted ascending, making every payload deterministic.
struct HaloPlan {
  int num_workers = 0;
  std::vector<std::vector<graph::NodeId>> owned;  ///< Per worker, sorted.
  std::vector<std::vector<graph::NodeId>> need;   ///< Per worker, sorted.

  /// Sum over workers of |need[w]| (the simulator's replicated-node count).
  int64_t total_halo_nodes() const;
  /// Scalars shipped per epoch at feature width `dim` (E15's halo_values).
  int64_t halo_values(int64_t dim) const;
};

HaloPlan BuildHaloPlan(const graph::CsrGraph& graph,
                       const partition::Partition& parts);

/// Whether `rows` rows of `cols` floats fit in one row-batch payload of at
/// most `kMaxFramePayload` bytes. The coordinator scatters each worker's
/// owned rows, and its halo rows, as one batch each.
bool FitsOneRowBatch(uint64_t rows, int64_t cols);

/// Row-batch payload codec, shared by scatter, halo, and gather frames:
/// `u32 count`, then `count` records of `u32 node id` + `cols` raw floats.
/// Record i carries `ids[i]` and the `cols` floats at `row(i)`. Floats
/// travel as raw bits, which is what makes a respawned worker's
/// recomputation bit-identical to the original.
std::string EncodeRows(std::span<const graph::NodeId> ids, int64_t cols,
                       const std::function<const float*(size_t)>& row);

/// Decodes a row batch, invoking `sink(id, row)` per record with `row`
/// pointing at `cols` floats; `cols` is the receiver's own row width.
/// Framing errors are `kDataLoss`; a non-OK sink status aborts the decode
/// and is returned as-is.
SGNN_NODISCARD common::Status DecodeRows(
    const std::string& payload, int64_t cols,
    const std::function<common::Status(graph::NodeId, const float*)>& sink);

}  // namespace sgnn::dist

#endif  // SGNN_DIST_EXCHANGE_H_
