#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dataset.h"
#include "core/pipeline.h"
#include "core/stages.h"
#include "models/gcn.h"
#include "nn/mlp.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/par.h"
#include "serve/batching_server.h"
#include "serve/frozen_model.h"
#include "serve/metrics.h"

namespace sgnn::obs {
namespace {

// ---------------------------------------------------------------- registry

TEST(MetricsRegistryTest, HandlesAreStableAndArithmeticIsExact) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("events_total", "Events.");
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
  // Same (name, labels) -> same handle; new labels -> new series.
  EXPECT_EQ(registry.GetCounter("events_total", "Events."), c);
  Counter* labeled =
      registry.GetCounter("events_total", "Events.", {{"kind", "a"}});
  EXPECT_NE(labeled, c);
  // Label order never affects identity.
  EXPECT_EQ(registry.GetCounter("events_total", "Events.",
                                {{"x", "1"}, {"kind", "a"}}),
            registry.GetCounter("events_total", "Events.",
                                {{"kind", "a"}, {"x", "1"}}));

  Gauge* g = registry.GetGauge("depth", "Depth.");
  g->Set(3.0);
  g->Add(-1.5);
  EXPECT_DOUBLE_EQ(g->value(), 1.5);
  g->SetMax(9.0);
  g->SetMax(2.0);  // Below the high-water mark: no effect.
  EXPECT_DOUBLE_EQ(g->value(), 9.0);

  Histogram* h = registry.GetHistogram("size", "Sizes.", {1.0, 10.0, 100.0});
  h->Record(0.5);
  h->Record(5.0);
  h->Record(5000.0);  // Overflow (+Inf) bucket.
  const HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 5005.5);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 5000.0);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 0u);
  EXPECT_EQ(snap.counts[3], 1u);
  // The overflow bucket's percentile is the observed max, not infinity.
  EXPECT_DOUBLE_EQ(snap.Percentile(1.0), 5000.0);

  EXPECT_EQ(registry.NumSeries(), 5u);
}

TEST(MetricsRegistryTest, ConcurrentRecordingUnderThreadPoolSumsExactly) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("work_total", "Work items.");
  Gauge* high_water = registry.GetGauge("peak", "Peak task id.");
  Histogram* sizes =
      registry.GetHistogram("task_size", "Task sizes.", {10.0, 100.0, 1000.0});

  constexpr int kTasks = 16;
  constexpr int kPerTask = 5000;
  {
    common::ThreadPool pool(4);
    for (int t = 0; t < kTasks; ++t) {
      pool.Submit([&, t] {
        for (int i = 0; i < kPerTask; ++i) counter->Increment();
        high_water->SetMax(static_cast<double>(t));
        sizes->Record(static_cast<double>(t * 100));
      });
    }
  }  // The pool drains before it joins.
  EXPECT_EQ(counter->value(), static_cast<uint64_t>(kTasks) * kPerTask);
  EXPECT_DOUBLE_EQ(high_water->value(), kTasks - 1.0);
  EXPECT_EQ(sizes->Snapshot().count, static_cast<uint64_t>(kTasks));
}

/// Golden-file test: the Prometheus exposition of a hand-built registry,
/// byte for byte. Families sort by name, samples by serialized label key,
/// histograms expose cumulative buckets plus `_sum`/`_count`.
TEST(MetricsRegistryTest, PrometheusTextMatchesGolden) {
  MetricsRegistry registry;
  registry
      .GetCounter("demo_requests_total", "Requests handled.",
                  {{"route", "predict"}})
      ->Increment(3);
  Histogram* h =
      registry.GetHistogram("demo_size", "Batch sizes.", {1.0, 10.0, 100.0},
                            {}, kDeterministic);
  h->Record(0.5);
  h->Record(5.0);
  h->Record(5000.0);
  registry.GetGauge("demo_temperature", "Die temperature.", {{"chip", "0"}})
      ->Set(41.5);

  const std::string expected =
      "# HELP demo_requests_total Requests handled.\n"
      "# TYPE demo_requests_total counter\n"
      "demo_requests_total{route=\"predict\"} 3\n"
      "# HELP demo_size Batch sizes.\n"
      "# TYPE demo_size histogram\n"
      "demo_size_bucket{le=\"1\"} 1\n"
      "demo_size_bucket{le=\"10\"} 2\n"
      "demo_size_bucket{le=\"100\"} 2\n"
      "demo_size_bucket{le=\"+Inf\"} 3\n"
      "demo_size_sum 5005.5\n"
      "demo_size_count 3\n"
      "# HELP demo_temperature Die temperature.\n"
      "# TYPE demo_temperature gauge\n"
      "demo_temperature{chip=\"0\"} 41.5\n";
  EXPECT_EQ(registry.PrometheusText(), expected);
}

TEST(MetricsRegistryTest, JsonTextMatchesGolden) {
  MetricsRegistry registry;
  registry
      .GetCounter("demo_requests_total", "Requests handled.",
                  {{"route", "predict"}})
      ->Increment(3);
  Histogram* h =
      registry.GetHistogram("demo_size", "Batch sizes.", {1.0, 10.0, 100.0},
                            {}, kDeterministic);
  h->Record(0.5);
  h->Record(5.0);
  h->Record(5000.0);
  registry.GetGauge("demo_temperature", "Die temperature.", {{"chip", "0"}})
      ->Set(41.5);

  const std::string expected =
      "{\"counters\":["
      "{\"name\":\"demo_requests_total\",\"labels\":{\"route\":\"predict\"},"
      "\"value\":3}"
      "],\"gauges\":["
      "{\"name\":\"demo_temperature\",\"labels\":{\"chip\":\"0\"},"
      "\"value\":41.5}"
      "],\"histograms\":["
      "{\"name\":\"demo_size\",\"labels\":{},\"count\":3,\"sum\":5005.5,"
      "\"buckets\":[{\"le\":1,\"count\":1},{\"le\":10,\"count\":2},"
      "{\"le\":100,\"count\":2},{\"le\":\"+Inf\",\"count\":3}]}"
      "]}";
  EXPECT_EQ(registry.JsonText(), expected);
}

TEST(MetricsRegistryTest, VolatileSeriesExcludedFromDeterministicExport) {
  MetricsRegistry registry;
  registry.GetCounter("stable_total", "Stable.")->Increment();
  registry.GetGauge("wall_seconds", "Wall time.", {}, kVolatile)->Set(1.23);

  const std::string all = registry.PrometheusText(/*include_volatile=*/true);
  EXPECT_NE(all.find("wall_seconds"), std::string::npos);
  const std::string det = registry.PrometheusText(/*include_volatile=*/false);
  EXPECT_EQ(det.find("wall_seconds"), std::string::npos);
  EXPECT_NE(det.find("stable_total"), std::string::npos);
  EXPECT_EQ(registry.JsonText(false).find("wall_seconds"), std::string::npos);
}

// ----------------------------------------------------------- number writer

/// What the C library prints for `v` under `format`; the reference bytes
/// the writer must reproduce.
std::string Printf(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

std::string Written(double v) {
  std::string out;
  AppendNumber(&out, v);
  return out;
}

TEST(NumberWriterTest, FloatsPrintAsPercentNineG) {
  // Every 4099th float bit pattern (4099 is prime, so the sweep crosses
  // every exponent with varied mantissas, NaN payloads and both signs),
  // then the edges.
  std::vector<float> values;
  for (uint64_t bits = 0; bits < (uint64_t{1} << 32); bits += 4099) {
    values.push_back(std::bit_cast<float>(static_cast<uint32_t>(bits)));
  }
  using Limits = std::numeric_limits<float>;
  for (const float v :
       {0.0f, -0.0f, Limits::denorm_min(), -Limits::denorm_min(),
        Limits::min(), Limits::max(), -Limits::max(), Limits::infinity(),
        -Limits::infinity(), Limits::quiet_NaN(),
        std::copysign(Limits::quiet_NaN(), -1.0f)}) {
    values.push_back(v);
  }
  int mismatches = 0;
  for (const float f : values) {
    std::string got;
    AppendNumber(&got, f);
    const std::string want = Printf("%.9g", static_cast<double>(f));
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::bit_cast<uint32_t>(f) << ": got "
                    << got << ", printf wrote " << want;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(NumberWriterTest, DoublesPrintAsPercentNineG) {
  // The exposition writes doubles; sweep their bit patterns too.
  int mismatches = 0;
  for (uint64_t i = 0; i < (uint64_t{1} << 18); ++i) {
    const double v = std::bit_cast<double>(i * 0x0000400000000FFFull);
    const std::string got = Written(v);
    const std::string want = Printf("%.9g", v);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << v << ": got " << got << ", printf wrote " << want;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(NumberWriterTest, IntegersPrintAsToString) {
  std::vector<int64_t> values = {0, -1, std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max()};
  for (int k = 0; k < 63; ++k) {
    const int64_t p = int64_t{1} << k;
    for (const int64_t v : {p, p - 1, p + 1, -p, 1 - p, -p - 1}) {
      values.push_back(v);
    }
  }
  for (const int64_t v : values) {
    std::string got;
    AppendNumber(&got, v);
    EXPECT_EQ(got, std::to_string(v));
  }
  std::string got;
  AppendNumber(&got, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(got, std::to_string(std::numeric_limits<uint64_t>::max()));
  EXPECT_EQ(NumberText(std::numeric_limits<int32_t>::min()),
            std::to_string(std::numeric_limits<int32_t>::min()));
  EXPECT_EQ(NumberText(uint16_t{65535}), "65535");
}

/// The sample value the Prometheus exposition prints for a gauge at `v`.
std::string ExposedGauge(double v) {
  MetricsRegistry registry;
  registry.GetGauge("g", "G.")->Set(v);
  const std::string text = registry.PrometheusText();
  const size_t start = text.rfind("\ng ") + 3;
  return text.substr(start, text.size() - start - 1);
}

TEST(NumberWriterTest, ExpositionPrintsIntegralValuesAsPercentZeroF) {
  std::vector<double> integral = {0.0, -0.0, 8999999999999999.0,
                                  -8999999999999999.0};
  for (int k = 0; k < 53; ++k) {
    const double p = std::ldexp(1.0, k);
    for (const double v : {p, p - 1, p + 1, -p, 1 - p}) integral.push_back(v);
  }
  for (double p = 1; p < 9e15; p *= 10) {
    integral.push_back(p);
    integral.push_back(-p - 7);
  }
  common::Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    integral.push_back(std::floor(rng.Uniform() * 9e15) *
                       (i % 2 == 0 ? 1.0 : -1.0));
  }
  for (const double v : integral) {
    ASSERT_EQ(ExposedGauge(v), Printf("%.0f", v)) << v;
  }
  // From 9e15 up, and off the integers, it is %.9g.
  for (const double v : {9e15, -9e15, 1e16, 0.5, -2.25, 1e-7, 41.5,
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(ExposedGauge(v), Printf("%.9g", v)) << v;
  }
}

TEST(NumberWriterTest, JsonEscapeNamesFiveBytesAndHexesOtherControls) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    std::string got;
    AppendJsonEscaped(&got, std::string_view(&c, 1));
    std::string want(1, c);
    if (c == '"' || c == '\\') {
      want = std::string("\\") + c;
    } else if (c == '\n') {
      want = "\\n";
    } else if (c == '\r') {
      want = "\\r";
    } else if (c == '\t') {
      want = "\\t";
    } else if (b < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(b));
      want = buf;
    }
    EXPECT_EQ(got, want) << "byte " << b;
  }
}

// ------------------------------------------------------------------ tracer

TEST(TracerTest, NestedSpansRecordExactLogicalTicks) {
  Tracer tracer;
  {
    TraceSpan outer = tracer.Span("outer");
    {
      TraceSpan inner = tracer.Span("inner", "stage");
    }
  }
  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by begin tick: outer opened first (tick 0), inner nested within.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].begin_tick, 0u);
  EXPECT_EQ(events[0].end_tick, 3u);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].begin_tick, 1u);
  EXPECT_EQ(events[1].end_tick, 2u);
  EXPECT_EQ(events[0].track, events[1].track);
}

TEST(TracerTest, ChromeTraceJsonMatchesGolden) {
  Tracer tracer;
  {
    TraceSpan outer = tracer.Span("outer");
    TraceSpan inner = tracer.Span("inner", "stage");
  }  // `inner` (declared last) destructs first: ticks 0,1,2,3.
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"outer\",\"cat\":\"default\",\"ph\":\"X\",\"pid\":0,"
      "\"tid\":0,\"ts\":0,\"dur\":3},\n"
      "{\"name\":\"inner\",\"cat\":\"stage\",\"ph\":\"X\",\"pid\":0,"
      "\"tid\":0,\"ts\":1,\"dur\":1}\n"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(tracer.ChromeTraceJson(), expected);
}

TEST(TracerTest, NullTracerSpansAreInert) {
  TraceSpan inert = StartSpan(nullptr, "nothing");
  EXPECT_FALSE(inert.active());
  inert.End();  // No-op, no crash.

  TraceSpan moved;
  {
    Tracer tracer;
    TraceSpan live = StartSpan(&tracer, "real");
    EXPECT_TRUE(live.active());
    TraceSpan taken = std::move(live);
    EXPECT_FALSE(live.active());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(taken.active());
    taken.End();
    EXPECT_EQ(tracer.NumEvents(), 1u);
  }
  (void)moved;
}

TEST(TracerTest, ConcurrentSpansAreAllRecordedOnDistinctTracks) {
  Tracer tracer(/*num_shards=*/4);
  constexpr int kTasks = 8;
  constexpr int kSpansPerTask = 100;
  {
    common::ThreadPool pool(4);
    for (int t = 0; t < kTasks; ++t) {
      pool.Submit([&tracer] {
        for (int i = 0; i < kSpansPerTask; ++i) {
          TraceSpan span = tracer.Span("work");
        }
      });
    }
  }  // The pool drains before it joins.
  EXPECT_EQ(tracer.NumEvents(),
            static_cast<uint64_t>(kTasks) * kSpansPerTask);
  std::set<int> tracks;
  for (const TraceEvent& event : tracer.Events()) tracks.insert(event.track);
  // One track per pool thread that ran spans (<= 4 workers).
  EXPECT_GE(tracks.size(), 1u);
  EXPECT_LE(tracks.size(), 4u);
}

// ----------------------------------------------------- RunContext + pipeline

core::Dataset SmallDataset(uint64_t seed = 1) {
  core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = 200, .num_classes = 3, .avg_degree = 8,
                .homophily = 0.85};
  config.feature_dim = 6;
  config.feature_noise = 0.5;
  return core::MakeSbmDataset(config, seed);
}

nn::TrainConfig FastConfig() {
  nn::TrainConfig config;
  config.epochs = 20;
  config.hidden_dim = 16;
  config.patience = 10;
  return config;
}

core::Pipeline MakePipeline() {
  core::Pipeline pipeline;
  pipeline.AddEdit(core::MakeUniformSparsifyStage(0.7, 7))
      .AddAnalytics(core::MakePprSmoothingStage(0.15, 2))
      .SetModel("gcn", [](const graph::CsrGraph& g, const tensor::Matrix& x,
                          std::span<const int> labels,
                          const models::NodeSplits& splits,
                          const nn::TrainConfig& c) {
        return models::TrainGcn(g, x, labels, splits, c);
      });
  return pipeline;
}

/// The tentpole determinism guarantee: two runs of the same seeded
/// pipeline, each with fresh sinks, export byte-identical deterministic
/// metrics (Prometheus and JSON) and a byte-identical trace.
TEST(RunContextTest, SeededPipelineExportsAreByteIdentical) {
  struct Export {
    std::string prometheus, json, trace;
  };
  auto run_once = [] {
    Tracer tracer;
    MetricsRegistry registry;
    core::RunContext ctx;
    ctx.tracer = &tracer;
    ctx.metrics = &registry;
    core::Dataset d = SmallDataset(13);
    core::PipelineReport report = MakePipeline().Run(d, FastConfig(), ctx);
    EXPECT_TRUE(report.status.ok());
    return Export{registry.PrometheusText(/*include_volatile=*/false),
                  registry.JsonText(/*include_volatile=*/false),
                  tracer.ChromeTraceJson()};
  };
  const Export a = run_once();
  const Export b = run_once();
  EXPECT_EQ(a.prometheus, b.prometheus);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.trace, b.trace);
  // Sanity: the deterministic export actually carries the stage series.
  EXPECT_NE(a.prometheus.find("sgnn_pipeline_stage_runs_total{"
                              "stage=\"sparsify:uniform\"} 1"),
            std::string::npos);
  EXPECT_NE(a.trace.find("\"name\":\"pipeline.run\""), std::string::npos);
}

/// The parallel-substrate determinism guarantee, observed end to end: the
/// same seeded pipeline run with 1 worker and with 8 workers exports
/// byte-identical deterministic metrics, a byte-identical trace (par spans
/// open on the calling thread, so even `par:<label>` spans agree), and
/// reports identical stage rows (wall-clock seconds excluded — time is the
/// only thing the worker count may change).
TEST(RunContextTest, ExportsAreByteIdenticalAcrossThreadCounts) {
  struct Export {
    std::string prometheus, json, trace;
    core::PipelineReport report;
  };
  auto run_with = [](int threads) {
    Tracer tracer;
    MetricsRegistry registry;
    core::RunContext ctx;
    ctx.tracer = &tracer;
    ctx.metrics = &registry;
    sgnn::par::SetThreads(threads);
    Tracer* const prev_par_tracer = sgnn::par::SetTracer(&tracer);
    core::Dataset d = SmallDataset(13);
    core::PipelineReport report = MakePipeline().Run(d, FastConfig(), ctx);
    sgnn::par::SetTracer(prev_par_tracer);
    EXPECT_TRUE(report.status.ok());
    return Export{registry.PrometheusText(/*include_volatile=*/false),
                  registry.JsonText(/*include_volatile=*/false),
                  tracer.ChromeTraceJson(), std::move(report)};
  };
  const Export one = run_with(1);
  const Export eight = run_with(8);
  sgnn::par::SetThreads(1);  // The worker count is process-wide; reset.
  EXPECT_EQ(one.prometheus, eight.prometheus);
  EXPECT_EQ(one.json, eight.json);
  EXPECT_EQ(one.trace, eight.trace);
  ASSERT_EQ(one.report.stages.size(), eight.report.stages.size());
  for (size_t i = 0; i < one.report.stages.size(); ++i) {
    EXPECT_EQ(one.report.stages[i].name, eight.report.stages[i].name);
    EXPECT_EQ(one.report.stages[i].ops.edges_touched,
              eight.report.stages[i].ops.edges_touched);
    EXPECT_EQ(one.report.stages[i].ops.floats_moved,
              eight.report.stages[i].ops.floats_moved);
  }
  EXPECT_DOUBLE_EQ(one.report.model.report.test_accuracy,
                   eight.report.model.report.test_accuracy);
  // The deterministic export carries the substrate's workload gauges...
  EXPECT_NE(one.prometheus.find("sgnn_par_sections"), std::string::npos);
  // ...while the configuration-dependent worker gauge is volatile-only.
  EXPECT_EQ(one.prometheus.find("sgnn_par_workers"), std::string::npos);
  // The par spans really are in the trace.
  EXPECT_NE(one.trace.find("par:prop.apply"), std::string::npos);
}

/// The report and the registry are two views over the same measurements.
TEST(RunContextTest, ReportRowsMatchRegistrySeries) {
  Tracer tracer;
  MetricsRegistry registry;
  core::RunContext ctx;
  ctx.tracer = &tracer;
  ctx.metrics = &registry;
  core::Dataset d = SmallDataset(17);
  core::PipelineReport report = MakePipeline().Run(d, FastConfig(), ctx);
  ASSERT_TRUE(report.status.ok());
  ASSERT_EQ(report.stages.size(), 3u);

  EXPECT_EQ(registry.GetCounter("sgnn_pipeline_runs_total", "Pipeline runs "
                                "started.")->value(),
            1u);
  for (const core::StageTiming& row : report.stages) {
    const Labels labels = {{"stage", row.name}};
    EXPECT_EQ(registry
                  .GetCounter("sgnn_pipeline_stage_runs_total",
                              "Completed executions per pipeline stage.",
                              labels)
                  ->value(),
              1u)
        << row.name;
    EXPECT_DOUBLE_EQ(
        registry
            .GetGauge("sgnn_pipeline_stage_edges_touched",
                      "Data-movement delta of the stage's latest execution. "
                      "(edges touched)",
                      labels)
            ->value(),
        static_cast<double>(row.ops.edges_touched))
        << row.name;
  }
  // Each report row has a matching span with the same name.
  std::set<std::string> span_names;
  for (const TraceEvent& event : tracer.Events()) span_names.insert(event.name);
  for (const core::StageTiming& row : report.stages) {
    EXPECT_TRUE(span_names.count(row.name) == 1) << row.name;
  }
}

/// A default `RunContext` reproduces the plain two-argument run exactly:
/// same stage rows, same work counters, same trained model. This is the
/// contract that let the old `PipelineRunOptions` shim be deleted — the
/// context's null/empty state IS the options-era default.
TEST(RunContextTest, DefaultContextMatchesPlainRun) {
  core::Dataset d = SmallDataset(19);
  const core::RunContext ctx;
  core::PipelineReport via_ctx = MakePipeline().Run(d, FastConfig(), ctx);
  core::PipelineReport plain = MakePipeline().Run(d, FastConfig());

  ASSERT_TRUE(plain.status.ok());
  ASSERT_TRUE(via_ctx.status.ok());
  ASSERT_EQ(plain.stages.size(), via_ctx.stages.size());
  for (size_t i = 0; i < plain.stages.size(); ++i) {
    EXPECT_EQ(plain.stages[i].name, via_ctx.stages[i].name);
    EXPECT_EQ(plain.stages[i].ops.edges_touched,
              via_ctx.stages[i].ops.edges_touched);
  }
  EXPECT_DOUBLE_EQ(plain.model.report.test_accuracy,
                   via_ctx.model.report.test_accuracy);
}

TEST(RunContextTest, ExpiredDeadlineAbortsBeforeAnyStage) {
  MetricsRegistry registry;
  core::RunContext ctx;
  ctx.metrics = &registry;
  ctx.deadline = common::Deadline::After(0);
  core::Dataset d = SmallDataset(23);
  core::PipelineReport report = MakePipeline().Run(d, FastConfig(), ctx);
  EXPECT_EQ(report.status.code(), common::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(report.stages.empty());
  EXPECT_EQ(registry
                .GetCounter("sgnn_pipeline_deadline_aborts_total",
                            "Pipeline runs stopped by an expired deadline.",
                            {}, kVolatile)
                ->value(),
            1u);
}

// ------------------------------------------------------------ serve + obs

serve::FrozenModel TinyModel(int in_dim, int classes) {
  common::Rng rng(17);
  nn::Mlp mlp({in_dim, classes}, /*dropout=*/0.0, &rng);
  return serve::FrozenModel::FromMlp(mlp);
}

TEST(ServeObsTest, AdmissionFaultInjectsDeterministicRejections) {
  MetricsRegistry registry;
  common::FaultInjector faults(7);
  faults.ArmAt("serve.admit", 3);  // Token trigger: node 3 always rejected.
  core::RunContext ctx;
  ctx.metrics = &registry;
  ctx.faults = &faults;

  serve::ServeConfig config;
  config.num_workers = 1;
  serve::BatchingServer server(
      TinyModel(4, 3),
      [](graph::NodeId node, std::span<float> out) {
        for (size_t j = 0; j < out.size(); ++j) {
          out[j] = static_cast<float>(node) + static_cast<float>(j);
        }
        return common::Status::OK();
      },
      /*num_nodes=*/8, config, ctx);

  auto rejected = server.Submit(serve::InferenceRequest(3));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), common::StatusCode::kUnavailable);
  auto admitted = server.Submit(serve::InferenceRequest(1));
  ASSERT_TRUE(admitted.ok());
  EXPECT_TRUE(admitted.value().get().status.ok());
  server.Shutdown();

  EXPECT_EQ(registry
                .GetCounter("sgnn_serve_requests_rejected_total",
                            "Admissions rejected by backpressure or fault "
                            "injection.",
                            {}, kVolatile)
                ->value(),
            1u);
}

/// `ServeMetricsSnapshot` is a view over the registry series: the numbers
/// a snapshot reports and the numbers a scrape exposes are the same.
TEST(ServeObsTest, ServeMetricsSnapshotIsViewOverRegistry) {
  MetricsRegistry registry;
  serve::ServeMetrics metrics(&registry);
  EXPECT_EQ(metrics.registry(), &registry);
  metrics.RecordRequest(/*latency_ticks=*/10, /*cache_hit=*/true);
  metrics.RecordRequest(/*latency_ticks=*/30, /*cache_hit=*/false);
  metrics.RecordRequest(/*latency_ticks=*/20, /*cache_hit=*/false,
                        /*degraded=*/true);
  metrics.RecordBatch(/*batch_size=*/3, /*queue_depth=*/5);
  metrics.RecordTerminalFailure(common::StatusCode::kDeadlineExceeded);

  const serve::ServeMetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.requests_served, 3u);
  EXPECT_EQ(snap.cache_hits, 1u);
  EXPECT_EQ(snap.cache_misses, 2u);  // Degraded bills as a miss.
  EXPECT_EQ(snap.health.degraded_serves, 1u);
  EXPECT_EQ(snap.health.deadline_misses, 1u);
  EXPECT_EQ(snap.batches, 1u);
  EXPECT_DOUBLE_EQ(snap.mean_batch_size, 3.0);
  EXPECT_EQ(snap.max_queue_depth, 5u);
  EXPECT_GT(snap.p50_ticks, 0.0);
  EXPECT_LE(snap.p50_ticks, snap.p99_ticks);

  // The scrape carries the same counts.
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("sgnn_serve_requests_served_total 3"),
            std::string::npos);
  EXPECT_NE(text.find("sgnn_serve_cache_hits_total 1"), std::string::npos);
  EXPECT_NE(text.find("sgnn_serve_latency_ticks_count 3"),
            std::string::npos);

  // Owned-registry fallback: a standalone facade still works.
  serve::ServeMetrics standalone;
  standalone.RecordRejected();
  EXPECT_EQ(standalone.Snapshot().requests_rejected, 1u);
  EXPECT_NE(standalone.registry(), nullptr);
}

}  // namespace
}  // namespace sgnn::obs
