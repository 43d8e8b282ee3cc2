#ifndef SGNN_CORE_CHECKPOINT_H_
#define SGNN_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/pipeline.h"
#include "graph/csr_graph.h"
#include "tensor/matrix.h"

namespace sgnn::core {

/// Pipeline stage checkpointing (the preprocessing side of the robustness
/// story): after each edit/analytics stage the pipeline can persist its
/// intermediate state — the current graph, the current feature matrix, and
/// the timings of the stages already done — to a single binary snapshot
/// file. A crashed run then resumes from the last completed stage instead
/// of recomputing hours of preprocessing.
///
/// Integrity and compatibility:
///  - the whole payload is covered by a trailing CRC-32, so a torn or
///    bit-rotted snapshot is *detected* and reported (the caller falls back
///    to a from-scratch run) rather than silently resumed;
///  - a `signature` — a hash of the pipeline's stage-name sequence and
///    model name — is embedded, so a snapshot from a *different* pipeline
///    is rejected even when structurally well-formed;
///  - floats are stored as raw bits, so a resumed run continues from
///    bit-identical state and produces bit-identical results.
struct PipelineSnapshot {
  uint64_t signature = 0;  ///< `PipelineSignature` of the owning pipeline.
  /// Number of completed (edit + analytics) stages; resume skips this many.
  int32_t stages_done = 0;
  std::vector<StageTiming> stages;  ///< Timings of the completed stages.
  graph::EdgeIndex edges_before = 0;
  int64_t feature_cols_before = 0;
  graph::CsrGraph graph;      ///< Graph state after `stages_done` stages.
  tensor::Matrix features;    ///< Feature state after `stages_done` stages.
};

/// Order-sensitive hash of the pipeline shape (stage names + model name).
/// Two pipelines that would replay the same stage sequence share it.
uint64_t PipelineSignature(const std::vector<std::string>& stage_names,
                           const std::string& model_name);

/// Serialises `snapshot` to `path` (atomically via rename from a `.tmp`
/// sibling, so a crash mid-write never corrupts an older valid snapshot).
SGNN_NODISCARD common::Status SaveSnapshot(const PipelineSnapshot& snapshot,
                            const std::string& path);

/// Loads and validates a snapshot: `kNotFound` when no file exists,
/// `kIOError` when the file is unreadable or fails the CRC / framing
/// checks (corruption), `kFailedPrecondition` when the snapshot belongs to
/// a different pipeline (`expected_signature` mismatch).
SGNN_NODISCARD common::StatusOr<PipelineSnapshot> LoadSnapshot(const std::string& path,
                                                uint64_t expected_signature);

}  // namespace sgnn::core

#endif  // SGNN_CORE_CHECKPOINT_H_
