#include "core/pipeline.h"

#include <cstdio>

#include "analysis/validate.h"
#include "common/check.h"
#include "common/counters.h"
#include "common/timer.h"
#include "core/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/par.h"

namespace sgnn::core {

namespace {

/// Runs `fn` when the enclosing scope exits (any return path).
template <typename F>
struct ScopeExit {
  F fn;
  ~ScopeExit() { fn(); }
};

}  // namespace

std::string PipelineReport::ToString() const {
  std::string out;
  char buf[256];
  for (const StageTiming& stage : stages) {
    std::snprintf(buf, sizeof(buf), "stage %-24s %8.3fs  [%s]\n",
                  stage.name.c_str(), stage.seconds,
                  stage.ops.ToString().c_str());
    out += buf;
  }
  if (resumed_stages > 0) {
    std::snprintf(buf, sizeof(buf), "resumed %d stage(s) from snapshot\n",
                  resumed_stages);
    out += buf;
  }
  if (!status.ok()) {
    out += "run stopped: " + status.ToString() + "\n";
    return out;
  }
  std::snprintf(buf, sizeof(buf),
                "edges %lld -> %lld, feature cols %lld -> %lld\n",
                static_cast<long long>(edges_before),
                static_cast<long long>(edges_after),
                static_cast<long long>(feature_cols_before),
                static_cast<long long>(feature_cols_after));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "model %-16s val %.4f test %.4f epochs %d (%.3fs)\n",
                model.name.c_str(), model.report.best_val_accuracy,
                model.report.test_accuracy, model.report.epochs_run,
                model.report.train_seconds);
  out += buf;
  out += "ops: " + model.ops.ToString() + "\n";
  return out;
}

Pipeline& Pipeline::AddEdit(std::unique_ptr<EditStage> stage) {
  SGNN_CHECK(stage != nullptr);
  edits_.push_back(std::move(stage));
  return *this;
}

Pipeline& Pipeline::AddAnalytics(std::unique_ptr<AnalyticsStage> stage) {
  SGNN_CHECK(stage != nullptr);
  analytics_.push_back(std::move(stage));
  return *this;
}

Pipeline& Pipeline::SetModel(std::string name, ModelFn model) {
  SGNN_CHECK(model != nullptr);
  model_name_ = std::move(name);
  model_ = std::move(model);
  return *this;
}

PipelineReport Pipeline::Run(const Dataset& dataset,
                             const nn::TrainConfig& config) const {
  return Run(dataset, config, RunContext());
}

uint64_t Pipeline::Signature() const {
  std::vector<std::string> names;
  names.reserve(edits_.size() + analytics_.size());
  for (const auto& stage : edits_) names.push_back("edit:" + stage->name());
  for (const auto& stage : analytics_) {
    names.push_back("analytics:" + stage->name());
  }
  return PipelineSignature(names, model_name_);
}

PipelineReport Pipeline::Run(const Dataset& dataset,
                             const nn::TrainConfig& config,
                             const RunContext& ctx) const {
  SGNN_CHECK(model_ != nullptr);
  // Peak residency is a monotone per-thread high-water mark; re-base it to
  // the current residency so this run's per-stage peaks are run-local and
  // reproducible regardless of what ran on this thread before — the
  // property the byte-identical deterministic exports pin.
  common::GlobalCounters().RebasePeaks();
  // Parallel substrate: export the run's section/shard deltas on exit.
  // Sections and shards are pure functions of the workload (deterministic
  // gauges); the worker count, set process-wide by `par::SetThreads`, is
  // configuration (volatile).
  const par::ParStats par_before = par::Stats();
  const common::OpCounters run_counters_before = common::GlobalCounters();
  ScopeExit par_scope{[&] {
    if (ctx.metrics != nullptr) {
      const par::ParStats par_after = par::Stats();
      ctx.metrics
          ->GetGauge("sgnn_par_workers",
                     "Configured par worker count at run exit.",
                     /*labels=*/{}, obs::kVolatile)
          ->Set(static_cast<double>(par::NumThreads()));
      ctx.metrics
          ->GetGauge("sgnn_par_sections",
                     "Parallel sections executed by the latest run.")
          ->Set(static_cast<double>(par_after.sections - par_before.sections));
      ctx.metrics
          ->GetGauge("sgnn_par_shards",
                     "Parallel shards executed by the latest run.")
          ->Set(static_cast<double>(par_after.shards - par_before.shards));
      // Kernel byte accounting: billed by the microkernel call sites as a
      // pure function of the workload, so these are deterministic across
      // thread counts and simd backends. ParallelFor re-bills shard deltas
      // to this thread, so the calling thread's delta covers the whole run.
      const common::OpCounters run_delta = common::OpCounters::Delta(
          run_counters_before, common::GlobalCounters());
      ctx.metrics
          ->GetGauge("sgnn_kernel_bytes_read",
                     "Logical bytes read by kernels during the latest run.")
          ->Set(static_cast<double>(run_delta.bytes_read));
      ctx.metrics
          ->GetGauge("sgnn_kernel_bytes_written",
                     "Logical bytes written by kernels during the latest run.")
          ->Set(static_cast<double>(run_delta.bytes_written));
    }
  }};

  obs::TraceSpan run_span =
      obs::StartSpan(ctx.tracer, "pipeline.run", "pipeline");
  if (ctx.metrics != nullptr) {
    ctx.metrics
        ->GetCounter("sgnn_pipeline_runs_total", "Pipeline runs started.")
        ->Increment();
  }

  PipelineReport report;
  report.edges_before = dataset.graph.num_edges();
  report.feature_cols_before = dataset.features.cols();

  graph::CsrGraph graph = dataset.graph;
  tensor::Matrix features = dataset.features;

  // Publishes one completed report row into the registry: the row and the
  // `sgnn_pipeline_stage_*` series carry the same values, so the report is
  // a view over what a scraper sees. Data-movement gauges are pure
  // functions of the seeded workload; seconds are wall time and therefore
  // volatile (excluded from deterministic exports).
  auto publish_stage = [&](const StageTiming& row) {
    if (ctx.metrics == nullptr) return;
    const obs::Labels labels = {{"stage", row.name}};
    ctx.metrics
        ->GetCounter("sgnn_pipeline_stage_runs_total",
                     "Completed executions per pipeline stage.", labels)
        ->Increment();
    ctx.metrics->SetOpCounterGauges(
        "sgnn_pipeline_stage",
        "Data-movement delta of the stage's latest execution.", labels,
        row.ops);
    ctx.metrics
        ->GetGauge("sgnn_pipeline_stage_seconds",
                   "Wall-clock seconds of the stage's latest execution.",
                   labels, obs::kVolatile)
        ->Set(row.seconds);
  };
  auto deadline_abort = [&](const std::string& next) -> bool {
    if (!ctx.deadline.expired()) return false;
    if (ctx.metrics != nullptr) {
      ctx.metrics
          ->GetCounter("sgnn_pipeline_deadline_aborts_total",
                       "Pipeline runs stopped by an expired deadline.",
                       /*labels=*/{}, obs::kVolatile)
          ->Increment();
    }
    report.status = common::Status::DeadlineExceeded(
        "pipeline deadline expired before " + next);
    return true;
  };

  const bool checkpointing = !ctx.checkpoint_path.empty();
  const uint64_t signature = checkpointing ? Signature() : 0;
  int start_stage = 0;
  if (checkpointing) {
    obs::TraceSpan restore_span =
        obs::StartSpan(ctx.tracer, "checkpoint.restore", "checkpoint");
    auto snapshot = LoadSnapshot(ctx.checkpoint_path, signature);
    if (snapshot.ok()) {
      PipelineSnapshot snap = std::move(snapshot).value();
      graph = std::move(snap.graph);
      features = std::move(snap.features);
      report.stages = std::move(snap.stages);
      report.edges_before = snap.edges_before;
      report.feature_cols_before = snap.feature_cols_before;
      start_stage = snap.stages_done;
      report.resumed_stages = snap.stages_done;
      if (ctx.metrics != nullptr) {
        ctx.metrics
            ->GetCounter("sgnn_pipeline_checkpoint_restores_total",
                         "Successful snapshot restores.")
            ->Increment();
        ctx.metrics
            ->GetGauge("sgnn_pipeline_resumed_stages",
                       "Stages restored from a snapshot by the latest run.")
            ->Set(static_cast<double>(snap.stages_done));
      }
    }
    // Missing, corrupt, or foreign snapshot: fall through to a clean run.
  }

  // Debug mode: run the invariant suite over the current graph/features
  // and bill the scan as its own `validate:<label>` stage so reports show
  // exactly what the checking costs. Validation reads but never writes, so
  // enabling it cannot change any downstream result.
  const ValidationStage validator =
      ctx.stage_validator ? ctx.stage_validator
                          : ValidationStage(analysis::ValidateStageOutput);
  auto validate = [&](const std::string& label) -> common::Status {
    obs::TraceSpan span =
        obs::StartSpan(ctx.tracer, "validate:" + label, "validate");
    common::ScopedCounterDelta counters;
    common::WallTimer timer;
    common::Status status = validator(label, graph, features);
    report.stages.push_back(
        {"validate:" + label, timer.Seconds(), counters.Delta()});
    publish_stage(report.stages.back());
    return status;
  };
  if (ctx.validate_stages) {
    report.status = validate(start_stage > 0 ? "resume" : "input");
    if (!report.status.ok()) return report;
  }

  // Checkpoint after stage `stage_index`, then let an armed injector
  // simulate a crash at that boundary. Snapshot write failures are
  // best-effort (the run itself is fine without them).
  auto after_stage = [&](int stage_index) -> common::Status {
    if (checkpointing) {
      obs::TraceSpan span =
          obs::StartSpan(ctx.tracer, "checkpoint.save", "checkpoint");
      PipelineSnapshot snap;
      snap.signature = signature;
      snap.stages_done = stage_index + 1;
      snap.stages = report.stages;
      snap.edges_before = report.edges_before;
      snap.feature_cols_before = report.feature_cols_before;
      snap.graph = graph;
      snap.features = features;
      if (SaveSnapshot(snap, ctx.checkpoint_path).ok() &&
          ctx.metrics != nullptr) {
        ctx.metrics
            ->GetCounter("sgnn_pipeline_checkpoint_saves_total",
                         "Successful snapshot writes.")
            ->Increment();
      }
    }
    if (ctx.faults != nullptr &&
        ctx.faults->ShouldFail("pipeline.after_stage",
                               static_cast<uint64_t>(stage_index))) {
      return common::Status::Aborted("injected crash after stage " +
                                     report.stages.back().name);
    }
    return common::Status::OK();
  };

  // Runs one edit or analytics stage (`apply` rewrites `graph` or
  // `features`) unless a restored snapshot already holds it, then
  // validates and checkpoints. Returns false when the run must stop, with
  // the reason in `report.status`.
  int stage_index = 0;
  auto run_stage = [&](const std::string& name,
                       const std::function<void()>& apply) -> bool {
    if (stage_index++ < start_stage) return true;
    if (deadline_abort("stage " + name)) return false;
    {
      obs::TraceSpan span = obs::StartSpan(ctx.tracer, name, "stage");
      common::ScopedCounterDelta counters;
      common::WallTimer timer;
      apply();
      report.stages.push_back({name, timer.Seconds(), counters.Delta()});
    }
    publish_stage(report.stages.back());
    if (ctx.validate_stages) {
      report.status = validate(name);
      if (!report.status.ok()) return false;
    }
    report.status = after_stage(stage_index - 1);
    return report.status.ok();
  };
  for (const auto& stage : edits_) {
    if (!run_stage(stage->name(),
                   [&] { graph = stage->Edit(graph, features); })) {
      return report;
    }
  }
  for (const auto& stage : analytics_) {
    if (!run_stage(stage->name(),
                   [&] { features = stage->Augment(graph, features); })) {
      return report;
    }
  }
  report.edges_after = graph.num_edges();
  report.feature_cols_after = features.cols();

  if (deadline_abort("train:" + model_name_)) return report;
  {
    obs::TraceSpan span =
        obs::StartSpan(ctx.tracer, "train:" + model_name_, "stage");
    common::ScopedCounterDelta counters;
    common::WallTimer timer;
    report.model =
        model_(graph, features, dataset.labels, dataset.splits, config);
    report.stages.push_back(
        {"train:" + model_name_, timer.Seconds(), counters.Delta()});
  }
  publish_stage(report.stages.back());
  return report;
}

}  // namespace sgnn::core
