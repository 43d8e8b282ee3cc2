#include "serve/metrics.h"

#include <cstdio>

namespace sgnn::serve {

namespace {

/// Latency is measured in logical ticks (two per request, so values scale
/// with the in-flight population, not wall time); ~16% geometric
/// resolution from 1 tick to ~2^31 covers any realistic backlog.
std::vector<double> LatencyBuckets() {
  return obs::ExponentialBuckets(1.0, 1.16, 145);
}

/// Batch sizes are small integers bounded by `ServeConfig::max_batch`;
/// powers of two up to 4096 resolve them plenty.
std::vector<double> BatchSizeBuckets() {
  return obs::ExponentialBuckets(1.0, 2.0, 13);
}

}  // namespace

ServeMetrics::ServeMetrics(obs::MetricsRegistry* registry)
    : owned_(registry == nullptr ? std::make_unique<obs::MetricsRegistry>()
                                 : nullptr),
      registry_(registry == nullptr ? owned_.get() : registry) {
  obs::MetricsRegistry& r = *registry_;
  requests_served_ =
      r.GetCounter("sgnn_serve_requests_served_total",
                   "Requests resolved OK (fresh or degraded).", {},
                   obs::kVolatile);
  requests_rejected_ =
      r.GetCounter("sgnn_serve_requests_rejected_total",
                   "Admissions rejected by backpressure or fault injection.",
                   {}, obs::kVolatile);
  cache_hits_ = r.GetCounter("sgnn_serve_cache_hits_total",
                             "Embeddings served fresh from the cache.", {},
                             obs::kVolatile);
  cache_misses_ = r.GetCounter("sgnn_serve_cache_misses_total",
                               "Embeddings recomputed (or served stale).", {},
                               obs::kVolatile);
  batches_ = r.GetCounter("sgnn_serve_batches_total",
                          "Micro-batches flushed by the batcher.", {},
                          obs::kVolatile);
  deadline_misses_ =
      r.GetCounter("sgnn_serve_deadline_misses_total",
                   "Requests resolved kDeadlineExceeded.", {}, obs::kVolatile);
  retries_ = r.GetCounter("sgnn_serve_retries_total",
                          "Embedder retry attempts (backoffs taken).", {},
                          obs::kVolatile);
  embed_failures_ =
      r.GetCounter("sgnn_serve_embed_failures_total",
                   "Individual failed embedder calls.", {}, obs::kVolatile);
  degraded_serves_ =
      r.GetCounter("sgnn_serve_degraded_serves_total",
                   "Stale-cache fallbacks after a failed fresh path.", {},
                   obs::kVolatile);
  failed_requests_ =
      r.GetCounter("sgnn_serve_failed_requests_total",
                   "Requests resolved with a terminal non-OK status.", {},
                   obs::kVolatile);
  latency_ticks_ = r.GetHistogram(
      "sgnn_serve_latency_ticks",
      "End-to-end latency of successful serves in logical ticks "
      "(enqueue to fulfilment on the server's TickClock; no wall time).",
      LatencyBuckets(), {}, obs::kVolatile);
  batch_size_ =
      r.GetHistogram("sgnn_serve_batch_size",
                     "Requests coalesced per flushed micro-batch.",
                     BatchSizeBuckets(), {}, obs::kVolatile);
  max_batch_size_ =
      r.GetGauge("sgnn_serve_max_batch_size",
                 "Largest micro-batch flushed so far.", {}, obs::kVolatile);
  max_queue_depth_ = r.GetGauge(
      "sgnn_serve_max_queue_depth",
      "Deepest admission queue observed at batch formation.", {},
      obs::kVolatile);
}

void ServeMetrics::RecordRequest(int64_t latency_ticks, bool cache_hit,
                                 bool degraded) {
  latency_ticks_->Record(
      latency_ticks < 0 ? 0.0 : static_cast<double>(latency_ticks));
  requests_served_->Increment();
  if (degraded) {
    degraded_serves_->Increment();
    cache_misses_->Increment();  // The fresh path failed; not a real hit.
  } else if (cache_hit) {
    cache_hits_->Increment();
  } else {
    cache_misses_->Increment();
  }
}

void ServeMetrics::RecordRejected() { requests_rejected_->Increment(); }

void ServeMetrics::RecordTerminalFailure(common::StatusCode code) {
  failed_requests_->Increment();
  if (code == common::StatusCode::kDeadlineExceeded) {
    deadline_misses_->Increment();
  }
}

void ServeMetrics::RecordRetry() { retries_->Increment(); }

void ServeMetrics::RecordEmbedFailure() { embed_failures_->Increment(); }

void ServeMetrics::RecordBatch(uint64_t batch_size, uint64_t queue_depth) {
  batches_->Increment();
  batch_size_->Record(static_cast<double>(batch_size));
  max_batch_size_->SetMax(static_cast<double>(batch_size));
  max_queue_depth_->SetMax(static_cast<double>(queue_depth));
}

ServeMetricsSnapshot ServeMetrics::Snapshot() const {
  ServeMetricsSnapshot snap;
  snap.requests_served = requests_served_->value();
  snap.requests_rejected = requests_rejected_->value();
  snap.cache_hits = cache_hits_->value();
  snap.cache_misses = cache_misses_->value();
  snap.batches = batches_->value();
  const obs::HistogramSnapshot batch = batch_size_->Snapshot();
  snap.mean_batch_size = batch.Mean();
  snap.max_batch_size = static_cast<uint64_t>(max_batch_size_->value());
  snap.max_queue_depth = static_cast<uint64_t>(max_queue_depth_->value());
  const obs::HistogramSnapshot latency = latency_ticks_->Snapshot();
  snap.p50_ticks = latency.Percentile(0.50);
  snap.p95_ticks = latency.Percentile(0.95);
  snap.p99_ticks = latency.Percentile(0.99);
  snap.health.deadline_misses = deadline_misses_->value();
  snap.health.retries = retries_->value();
  snap.health.embed_failures = embed_failures_->value();
  snap.health.degraded_serves = degraded_serves_->value();
  snap.health.failed_requests = failed_requests_->value();
  return snap;
}

std::string ServeHealth::ToString() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "deadline_misses=%llu retries=%llu embed_failures=%llu "
      "degraded=%llu failed=%llu breaker=%s trips=%llu fast_fails=%llu",
      static_cast<unsigned long long>(deadline_misses),
      static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(embed_failures),
      static_cast<unsigned long long>(degraded_serves),
      static_cast<unsigned long long>(failed_requests), breaker_state,
      static_cast<unsigned long long>(breaker_trips),
      static_cast<unsigned long long>(breaker_fast_fails));
  return buf;
}

std::string ServeMetricsSnapshot::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "served=%llu rejected=%llu hit_rate=%.3f batches=%llu "
      "mean_batch=%.2f max_batch=%llu max_queue=%llu "
      "p50=%.1ft p95=%.1ft p99=%.1ft",
      static_cast<unsigned long long>(requests_served),
      static_cast<unsigned long long>(requests_rejected), CacheHitRate(),
      static_cast<unsigned long long>(batches), mean_batch_size,
      static_cast<unsigned long long>(max_batch_size),
      static_cast<unsigned long long>(max_queue_depth), p50_ticks,
      p95_ticks, p99_ticks);
  std::string out(buf);
  out += "\nhealth: " + health.ToString();
  out += "\nops: " + ops.ToString();
  return out;
}

}  // namespace sgnn::serve
