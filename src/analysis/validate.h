#ifndef SGNN_ANALYSIS_VALIDATE_H_
#define SGNN_ANALYSIS_VALIDATE_H_

#include <span>
#include <string>

#include "common/status.h"
#include "core/dataset.h"
#include "graph/coo.h"
#include "graph/csr_graph.h"
#include "partition/partition.h"
#include "tensor/matrix.h"

namespace sgnn::analysis {

/// Invariant validation suite (the static-analysis / correctness layer).
///
/// Every stage of the pipeline silently assumes structural invariants of
/// the data it consumes — sorted CSR adjacency, in-bounds node ids,
/// weight/neighbour alignment, partition covers, finite features.
/// The GNN-systems evaluation literature traces wrong-result and crash
/// bugs to exactly these data-management invariants being violated
/// *between* stages. These validators make each invariant checkable: they
/// return `Status::OK()` or a rich diagnostic naming the violated
/// invariant and the first offending node/edge, and never mutate their
/// input. They check in-memory structures only: each on-disk format is
/// checked by the code that reads it (`core::LoadSnapshot`,
/// `storage::ReadManifest` and `storage::ShardedGraph`).
///
/// Cost model: each validator is a single linear scan and instruments
/// `common::GlobalCounters()` with the edges/floats it touches, so a
/// `ScopedCounterDelta` (and hence `PipelineReport`) records validation
/// overhead in the same units as real work (see EXPERIMENTS.md E19).
///
/// The `Validate*` overloads that take raw arrays are the testable cores:
/// corruption-injection tests (tests/analysis_test.cc) mutate raw copies
/// of a valid structure and assert the specific invariant failure is
/// reported, which the immutable wrapper types would not allow.

/// Validates a CSR structure given as raw arrays:
///  - `offsets` has `num_nodes + 1` entries, starts at 0, ends at
///    `neighbors.size()`, and is monotone non-decreasing;
///  - `weights` is aligned with `neighbors` (same length);
///  - every neighbour id is in `[0, num_nodes)`;
///  - each adjacency list is sorted strictly increasing (sorted and
///    duplicate-free — the invariant `HasEdge`'s binary search and
///    `EdgeListBuilder::Deduplicate` guarantee);
///  - every weight is finite (no NaN/Inf).
common::Status ValidateCsr(graph::NodeId num_nodes,
                           std::span<const graph::EdgeIndex> offsets,
                           std::span<const graph::NodeId> neighbors,
                           std::span<const float> weights);

/// Validates a frozen graph via `ValidateCsr` over its internal arrays.
common::Status Validate(const graph::CsrGraph& graph);

/// Validates a COO edge list: endpoints in `[0, num_nodes)` and finite
/// weights. Reports the first offending edge index.
common::Status ValidateEdges(graph::NodeId num_nodes,
                             std::span<const graph::Edge> edges);

/// Validates a builder via `ValidateEdges` over its pending edges.
common::Status Validate(const graph::EdgeListBuilder& builder);

/// Validates that every entry of a feature/embedding matrix is finite.
/// NaNs from a divergent stage otherwise propagate silently into every
/// downstream consumer.
common::Status ValidateFeatures(const tensor::Matrix& features);

/// Validates a dataset: graph invariants, features aligned with the node
/// universe and finite, labels sized/ranged against `num_classes`, and
/// splits in-bounds and mutually disjoint.
common::Status Validate(const core::Dataset& dataset);

/// Validates a partition against its graph: `k > 0`, the assignment
/// covers every node (size match), and every part id is in `[0, k)`.
common::Status Validate(const partition::Partition& partition,
                        const graph::CsrGraph& graph);

/// The pipeline's between-stage hook (`core::RunContext::validate_stages`):
/// validates a stage's output graph + features and their alignment,
/// prefixing diagnostics with the stage name.
common::Status ValidateStageOutput(const std::string& stage_name,
                                   const graph::CsrGraph& graph,
                                   const tensor::Matrix& features);

}  // namespace sgnn::analysis

#endif  // SGNN_ANALYSIS_VALIDATE_H_
