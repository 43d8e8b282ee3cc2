#include "serve/batching_server.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/counters.h"

namespace sgnn::serve {

using Clock = std::chrono::steady_clock;

BatchingServer::BatchingServer(FrozenModel model, EmbeddingFn embed_fn,
                               graph::NodeId num_nodes,
                               const ServeConfig& config,
                               const core::RunContext& ctx)
    : config_(config),
      model_(std::move(model)),
      embed_fn_(std::move(embed_fn)),
      num_nodes_(num_nodes),
      queue_(config.queue_capacity),
      cache_(num_nodes, model_.in_dim()),
      tracer_(ctx.tracer),
      faults_(ctx.faults),
      metrics_(ctx.metrics),
      breaker_(config.breaker) {
  SGNN_CHECK_GE(config.max_batch, 1);
  SGNN_CHECK_GE(config.max_delay_micros, 0);
  SGNN_CHECK_GE(config.num_workers, 1);
  SGNN_CHECK_GE(config.max_staleness, 0);
  SGNN_CHECK_GE(config.embed_retry.max_attempts, 1);
  SGNN_CHECK(embed_fn_ != nullptr);
  base_ops_ = common::AggregateThreadCounters();
  workers_.reserve(static_cast<size_t>(config.num_workers));
  for (int i = 0; i < config.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

BatchingServer::~BatchingServer() { Shutdown(); }

common::Status BatchingServer::Submit(
    const InferenceRequest& inference_request, ResponseCallback done) {
  SGNN_CHECK(done != nullptr);
  const graph::NodeId node = inference_request.node;
  if (node >= num_nodes_) {
    return common::Status::InvalidArgument("node id out of range");
  }
  // Injected admission fault (site "serve.admit", token = node id): bills
  // as a rejection, exactly like real backpressure, so resilience tests
  // can target admission without saturating the queue.
  if (faults_ != nullptr &&
      faults_->ShouldFail("serve.admit", static_cast<uint64_t>(node))) {
    metrics_.RecordRejected();
    return common::Status::Unavailable("injected admission fault");
  }
  const int64_t deadline_micros = inference_request.deadline_micros;
  Request request;
  request.node = node;
  request.tenant_id = inference_request.tenant_id;
  request.done = std::move(done);
  request.enqueue_tick = latency_clock_.Next();
  request.deadline = deadline_micros > 0
                         ? common::Deadline::After(deadline_micros)
                         : common::Deadline::Infinite();
  common::Status status = queue_.TryPush(std::move(request));
  if (status.code() == common::StatusCode::kUnavailable) {
    metrics_.RecordRejected();
  }
  return status;
}

common::StatusOr<std::future<InferenceResponse>> BatchingServer::Submit(
    const InferenceRequest& request) {
  // std::function needs a copyable callable; the promise is move-only.
  auto promise = std::make_shared<std::promise<InferenceResponse>>();
  std::future<InferenceResponse> future = promise->get_future();
  SGNN_RETURN_IF_ERROR(Submit(request, [promise](InferenceResponse response) {
    promise->set_value(std::move(response));
  }));
  return future;
}

void BatchingServer::WarmCache(const tensor::Matrix& embeddings) {
  SGNN_CHECK_EQ(embeddings.rows(), static_cast<int64_t>(num_nodes_));
  SGNN_CHECK_EQ(embeddings.cols(), model_.in_dim());
  const int64_t step = step_.load(std::memory_order_relaxed);
  common::WriterMutexLock lock(cache_mu_);
  for (int64_t u = 0; u < embeddings.rows(); ++u) {
    cache_.Put(static_cast<graph::NodeId>(u), embeddings.Row(u), step);
  }
}

ServeMetricsSnapshot BatchingServer::Metrics() const {
  ServeMetricsSnapshot snap = metrics_.Snapshot();
  snap.ops = common::OpCounters::Delta(base_ops_,
                                       common::AggregateThreadCounters());
  snap.health.breaker_state = common::CircuitBreaker::StateName(
      breaker_.state());
  snap.health.breaker_trips = static_cast<uint64_t>(breaker_.trips());
  // The one count of fast-fails, including those a degraded serve rescued.
  snap.health.breaker_fast_fails = static_cast<uint64_t>(breaker_.fast_fails());

  // Refresh the registry-side gauges that mirror server-owned state, so a
  // scrape taken after this call sees the breaker and data-movement
  // counters too. All scheduling-dependent, hence volatile.
  obs::MetricsRegistry& r = *metrics_.registry();
  r.GetGauge("sgnn_serve_breaker_state",
             "Circuit breaker state (0 closed, 1 open, 2 half-open).", {},
             obs::kVolatile)
      ->Set(static_cast<double>(static_cast<int>(breaker_.state())));
  r.GetGauge("sgnn_serve_breaker_trips",
             "Closed/half-open -> open transitions.", {}, obs::kVolatile)
      ->Set(static_cast<double>(breaker_.trips()));
  r.GetGauge("sgnn_serve_breaker_fast_fails",
             "Calls rejected by the open breaker (breaker-side count).", {},
             obs::kVolatile)
      ->Set(static_cast<double>(breaker_.fast_fails()));
  r.SetOpCounterGauges("sgnn_serve_ops",
                       "Serving-thread data movement since server start.", {},
                       snap.ops, obs::kVolatile);
  return snap;
}

void BatchingServer::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) return;
  queue_.Close();  // Workers drain what is queued, then return.
  for (std::thread& worker : workers_) worker.join();
}

void BatchingServer::WorkerLoop() {
  const auto max_delay = std::chrono::microseconds(config_.max_delay_micros);
  const auto idle_poll = std::chrono::milliseconds(5);
  std::vector<Request> batch;
  for (;;) {
    {
      common::MutexLock lock(form_mu_);
      Request first;
      if (!queue_.WaitPop(&first, idle_poll)) {
        // Timeout, or closed-and-drained: only the latter ends the loop (no
        // new item can arrive after Close, so this is a stable condition).
        if (queue_.closed() && queue_.size() == 0) return;
        continue;
      }
      batch.clear();
      batch.push_back(std::move(first));
      const auto deadline = Clock::now() + max_delay;
      while (static_cast<int>(batch.size()) < config_.max_batch) {
        const auto now = Clock::now();
        if (now >= deadline) break;
        Request next;
        if (!queue_.WaitPop(&next, deadline - now)) break;
        batch.push_back(std::move(next));
      }
      metrics_.RecordBatch(batch.size(), queue_.size());
    }
    // While every worker is busy here, the bounded queue fills and Submit
    // starts rejecting: backpressure reaches the client instead of growing
    // an invisible backlog.
    ProcessBatch(&batch);
  }
}

common::Status BatchingServer::ResolveMiss(graph::NodeId node,
                                           const common::Deadline& dl,
                                           std::span<float> out, int64_t step,
                                           bool* degraded) {
  common::Status status;
  if (!breaker_.Allow()) {
    // Fast-fail without touching the (presumed dead) embedder.
    status = common::Status::Unavailable("embedder circuit breaker open");
  } else {
    for (int attempt = 1;; ++attempt) {
      status = embed_fn_(node, out);
      if (status.ok()) break;
      metrics_.RecordEmbedFailure();
      breaker_.RecordFailure();
      if (!common::RetryPolicy::Retryable(status.code()) ||
          attempt >= config_.embed_retry.max_attempts) {
        break;
      }
      const int64_t backoff = config_.embed_retry.BackoffMicros(
          attempt, static_cast<uint64_t>(node));
      if (!dl.infinite() && dl.remaining_micros() <= backoff) {
        break;  // The backoff alone would blow the deadline.
      }
      metrics_.RecordRetry();
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      if (!breaker_.Allow()) {
        status = common::Status::Unavailable(
            "embedder circuit breaker opened during retries");
        break;
      }
    }
    if (status.ok()) {
      breaker_.RecordSuccess();
      if (config_.update_cache) {
        common::WriterMutexLock lock(cache_mu_);
        cache_.Put(node, out, step);
      }
      return status;
    }
  }

  // Persistent failure: degrade to the node's cache row, even beyond
  // `max_staleness` — a slightly old embedding beats an error page.
  {
    common::ReaderMutexLock lock(cache_mu_);
    if (cache_.Has(node)) {
      auto row = cache_.Get(node);
      std::copy(row.begin(), row.end(), out.begin());
      *degraded = true;
      return common::Status::OK();
    }
  }
  metrics_.RecordTerminalFailure(status.code());
  return status;
}

void BatchingServer::ProcessBatch(std::vector<Request>* batch) {
  obs::TraceSpan span = obs::StartSpan(tracer_, "serve.batch", "serve");
  const int64_t step = step_.fetch_add(1, std::memory_order_relaxed);
  const int64_t n = static_cast<int64_t>(batch->size());
  const int64_t dim = model_.in_dim();

  tensor::Matrix embeddings(n, dim);
  std::vector<bool> hit(static_cast<size_t>(n), false);
  std::vector<bool> degraded(static_cast<size_t>(n), false);
  std::vector<common::Status> row_status(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const size_t s = static_cast<size_t>(i);
    Request& request = (*batch)[s];
    // Deadline check at dequeue: a request that expired while queued (or
    // waiting for a worker slot) skips all embedding work.
    if (request.deadline.expired()) {
      row_status[s] = common::Status::DeadlineExceeded(
          "request expired before processing");
      metrics_.RecordTerminalFailure(row_status[s].code());
      continue;
    }
    const graph::NodeId node = request.node;
    {
      common::ReaderMutexLock lock(cache_mu_);
      const int64_t staleness = cache_.Staleness(node, step);
      if (staleness >= 0 && staleness <= config_.max_staleness) {
        auto row = cache_.Get(node);
        std::copy(row.begin(), row.end(), embeddings.Row(i).begin());
        hit[s] = true;
      }
    }
    if (!hit[s]) {
      bool row_degraded = false;
      row_status[s] = ResolveMiss(node, request.deadline, embeddings.Row(i),
                                  step, &row_degraded);
      degraded[s] = row_degraded;
    }
  }

  // The micro-batching win: one head forward for the whole batch. Rows
  // that failed to resolve are zero; their logits are never delivered.
  tensor::Matrix logits;
  model_.Forward(embeddings, &logits);

  for (int64_t i = 0; i < n; ++i) {
    const size_t s = static_cast<size_t>(i);
    Request& request = (*batch)[s];
    InferenceResponse response;
    response.node = request.node;
    response.tenant_id = std::move(request.tenant_id);
    response.latency_ticks = static_cast<int64_t>(latency_clock_.Next() -
                                                  request.enqueue_tick);
    if (row_status[s].ok() && request.deadline.expired()) {
      // Post-batch check: the result arrived too late to count.
      row_status[s] = common::Status::DeadlineExceeded(
          "request completed after its deadline");
      metrics_.RecordTerminalFailure(row_status[s].code());
    }
    response.status = row_status[s];
    if (response.status.ok()) {
      auto row = logits.Row(i);
      response.logits.assign(row.begin(), row.end());
      response.predicted_class = static_cast<int>(
          std::max_element(row.begin(), row.end()) - row.begin());
      response.cache_hit = hit[s];
      response.degraded = degraded[s];
      metrics_.RecordRequest(response.latency_ticks, response.cache_hit,
                             response.degraded);
    }
    request.done(std::move(response));
  }
}

}  // namespace sgnn::serve
