#ifndef SGNN_CORE_RUN_CONTEXT_H_
#define SGNN_CORE_RUN_CONTEXT_H_

#include <functional>
#include <string>

#include "common/fault.h"
#include "common/status.h"

namespace sgnn::graph {
class CsrGraph;
}
namespace sgnn::tensor {
class Matrix;
}
namespace sgnn::obs {
class Tracer;
class MetricsRegistry;
}  // namespace sgnn::obs

namespace sgnn::core {

/// Between-stage validation hook: receives the stage's name and its output
/// graph + features; a non-OK return aborts the run with that status. The
/// default (`analysis::ValidateStageOutput`) checks the full CSR/feature
/// invariant suite; tests can substitute their own to target one invariant.
using ValidationStage = std::function<common::Status(
    const std::string& stage_name, const graph::CsrGraph& graph,
    const tensor::Matrix& features)>;

/// The one object threaded through a run — `Pipeline::Run`,
/// `ServePipeline`, `BatchingServer` all take a `RunContext` — carrying
/// observability sinks plus the fault-tolerance and debug knobs that used
/// to live in `PipelineRunOptions`. A default-constructed context
/// reproduces the plain (untraced, unmetered, non-checkpointed) run
/// exactly: every field is optional and the null/empty state means "off".
///
/// The context does not own anything it points to; the caller keeps the
/// tracer/registry/injector alive for the duration of the run. Copying a
/// context is cheap and shares the same sinks, which is how a pipeline
/// hands its context on to serving (`ServePipeline`).
struct RunContext {
  /// Span sink: every pipeline stage, checkpoint save/restore, validation
  /// pass, and serve batch opens a span here. Null = tracing off.
  obs::Tracer* tracer = nullptr;
  /// Metric sink: stage counters/gauges, serve counters and latency
  /// histograms. Null = metrics off.
  obs::MetricsRegistry* metrics = nullptr;
  /// Fault injector observed at site `"pipeline.after_stage"` (token =
  /// stage index) and, in serving, `"serve.admit"` (token = node id).
  common::FaultInjector* faults = nullptr;
  /// Time budget for the whole run: checked between stages and before
  /// training; an expired deadline stops the run with `kDeadlineExceeded`.
  common::Deadline deadline = common::Deadline::Infinite();
  /// Snapshot file written after every completed stage; empty = no
  /// checkpointing. When it already holds a valid snapshot from this same
  /// pipeline, completed stages are restored instead of recomputed; a
  /// corrupted or foreign snapshot is ignored and every stage runs. See
  /// `core/checkpoint.h` for the format guarantees.
  std::string checkpoint_path;
  /// Debug mode: validate the input dataset and every stage's output
  /// against the `sgnn::analysis` invariant suite. A violation stops the
  /// run with the validator's diagnostic instead of letting a corrupt
  /// graph/feature matrix flow into later stages. Validation never mutates
  /// state, so results are bit-identical to a plain run; its cost appears
  /// as extra `validate:<stage>` rows in the report.
  bool validate_stages = false;
  /// Override for the between-stage validator; defaults to
  /// `analysis::ValidateStageOutput`. Only consulted when
  /// `validate_stages` is true.
  ValidationStage stage_validator;
};

}  // namespace sgnn::core

#endif  // SGNN_CORE_RUN_CONTEXT_H_
