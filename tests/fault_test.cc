#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "common/status.h"
#include "nn/mlp.h"
#include "serve/batching_server.h"
#include "serve/frozen_model.h"

namespace sgnn::common {
namespace {

// ---------------------------------------------------------------- injector

TEST(FaultInjectorTest, TokenTriggerIsSeedDeterministicAndOrderIndependent) {
  FaultInjector forward(99);
  FaultInjector backward(99);
  forward.Arm("serve.embed", 0.1);
  backward.Arm("serve.embed", 0.1);

  std::vector<bool> a, b;
  for (uint64_t t = 0; t < 2000; ++t) {
    a.push_back(forward.ShouldFail("serve.embed", t));
  }
  for (uint64_t t = 2000; t-- > 0;) {  // Reverse order: same verdicts.
    b.push_back(backward.ShouldFail("serve.embed", t));
  }
  std::reverse(b.begin(), b.end());
  EXPECT_EQ(a, b);

  const auto fails = static_cast<size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fails, 100u);  // ~10% of 2000 = 200; loose two-sided bound.
  EXPECT_LT(fails, 350u);
}

TEST(FaultInjectorTest, DifferentSeedsOrSitesGiveDifferentOutcomes) {
  FaultInjector a(1), b(2);
  a.Arm("x", 0.5);
  a.Arm("y", 0.5);
  b.Arm("x", 0.5);
  int seed_diff = 0, site_diff = 0;
  for (uint64_t t = 0; t < 256; ++t) {
    seed_diff += a.ShouldFail("x", t) != b.ShouldFail("x", t);
    site_diff += a.ShouldFail("x", t) != a.ShouldFail("y", t);
  }
  EXPECT_GT(seed_diff, 0);
  EXPECT_GT(site_diff, 0);
}

TEST(FaultInjectorTest, TokenArmAtIsReplayable) {
  FaultInjector inj(7);
  inj.ArmAt("pipeline.after_stage", 2);
  EXPECT_FALSE(inj.ShouldFail("pipeline.after_stage", uint64_t{0}));
  EXPECT_TRUE(inj.ShouldFail("pipeline.after_stage", uint64_t{2}));
  EXPECT_TRUE(inj.ShouldFail("pipeline.after_stage", uint64_t{2}));
}

TEST(FaultInjectorTest, MaybeFailReturnsUnavailable) {
  FaultInjector inj(7);
  inj.Arm("svc", 1.0);
  const Status s = inj.MaybeFail("svc", 1);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(inj.MaybeFail("other", 1).ok());
}

// ---------------------------------------------------------------- deadline

TEST(DeadlineTest, InfiniteNeverExpires) {
  const Deadline d = Deadline::Infinite();
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_micros(), std::numeric_limits<int64_t>::max());
}

TEST(DeadlineTest, AfterExpiresOnSchedule) {
  const Deadline soon = Deadline::After(0);
  EXPECT_TRUE(soon.expired());
  const Deadline later = Deadline::After(60'000'000);  // A minute out.
  EXPECT_FALSE(later.expired());
  EXPECT_GT(later.remaining_micros(), 0);
  EXPECT_LE(later.remaining_micros(), 60'000'000);
}

// A budget past the clock's range saturates to no deadline instead of
// overflowing the conversion to clock ticks (which UBSan rejects, and which
// otherwise wraps to a deadline long expired).
TEST(DeadlineTest, AfterPastTheClockRangeIsInfinite) {
  for (const int64_t micros : {int64_t{10'000'000'000'000'000},
                               std::numeric_limits<int64_t>::max()}) {
    const Deadline d = Deadline::After(micros);
    EXPECT_FALSE(d.expired()) << micros;
    EXPECT_TRUE(d.infinite()) << micros;
  }
  // Just inside the range it is still a finite deadline.
  const Deadline far = Deadline::After(9'000'000'000'000'000);
  EXPECT_FALSE(far.infinite());
  EXPECT_FALSE(far.expired());
  EXPECT_GT(far.remaining_micros(), 8'999'000'000'000'000);
}

// ------------------------------------------------------------------ retry

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.base_backoff_micros = 100;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_micros = 500;
  policy.jitter = 0.0;
  EXPECT_EQ(policy.BackoffMicros(1, 0), 100);
  EXPECT_EQ(policy.BackoffMicros(2, 0), 200);
  EXPECT_EQ(policy.BackoffMicros(3, 0), 400);
  EXPECT_EQ(policy.BackoffMicros(4, 0), 500);  // Capped.
  EXPECT_EQ(policy.BackoffMicros(9, 0), 500);
}

TEST(RetryPolicyTest, JitterIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.base_backoff_micros = 1000;
  policy.jitter = 0.2;
  for (uint64_t token = 0; token < 64; ++token) {
    const int64_t b1 = policy.BackoffMicros(1, token);
    EXPECT_EQ(b1, policy.BackoffMicros(1, token));  // Pure function.
    EXPECT_GE(b1, 800);
    EXPECT_LT(b1, 1200);
  }
  // Jitter actually varies across tokens.
  EXPECT_NE(policy.BackoffMicros(1, 1), policy.BackoffMicros(1, 2));
}

TEST(RetryPolicyTest, OnlyTransientCodesAreRetryable) {
  EXPECT_TRUE(RetryPolicy::Retryable(StatusCode::kUnavailable));
  EXPECT_TRUE(RetryPolicy::Retryable(StatusCode::kAborted));
  EXPECT_FALSE(RetryPolicy::Retryable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(RetryPolicy::Retryable(StatusCode::kInternal));
  EXPECT_FALSE(RetryPolicy::Retryable(StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(RetryPolicy::Retryable(StatusCode::kOk));
}

// ---------------------------------------------------------------- breaker

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresThenProbes) {
  CircuitBreaker::Config config;
  config.failure_threshold = 3;
  config.probe_interval = 4;
  CircuitBreaker breaker(config);

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1);

  // Open: fast-fails until every probe_interval-th call is admitted.
  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());
  EXPECT_TRUE(breaker.Allow());  // The probe.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Allow());  // Only one probe in flight.

  // Probe fails: re-open (counts as another trip).
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2);
  EXPECT_GT(breaker.fast_fails(), 0);
}

TEST(CircuitBreakerTest, SuccessfulProbeClosesAndResets) {
  CircuitBreaker::Config config;
  config.failure_threshold = 2;
  config.probe_interval = 1;
  CircuitBreaker breaker(config);
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(breaker.Allow());  // probe_interval=1: first call probes.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // Failure streak reset: one new failure does not re-trip.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, InterleavedSuccessKeepsBreakerClosed) {
  CircuitBreaker breaker;  // Default threshold 8.
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(breaker.Allow());
    breaker.RecordFailure();
    breaker.RecordSuccess();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.trips(), 0);
}

// ------------------------------------------------------------ spec parsing

TEST(ArmFromSpecTest, ArmsTokenAndProbabilityTriggers) {
  FaultInjector faults;
  ASSERT_TRUE(faults.ArmFromSpec("a.site@5;b.site=1.0").ok());
  EXPECT_FALSE(faults.ShouldFail("a.site", 4));
  EXPECT_TRUE(faults.ShouldFail("a.site", 5));
  EXPECT_FALSE(faults.ShouldFail("a.site", 6));
  EXPECT_TRUE(faults.ShouldFail("b.site", 123));
  EXPECT_TRUE(faults.ShouldFail("b.site", 456));
  EXPECT_FALSE(faults.ShouldFail("unarmed.site", 5));
}

TEST(ArmFromSpecTest, AcceptsBothSeparatorsAndSkipsEmptyEntries) {
  FaultInjector faults;
  ASSERT_TRUE(faults.ArmFromSpec(";;x@1,,y=1.0;").ok());
  EXPECT_TRUE(faults.ShouldFail("x", 1));
  EXPECT_TRUE(faults.ShouldFail("y", 0));
}

TEST(ArmFromSpecTest, MalformedEntriesAreInvalidArgument) {
  FaultInjector faults;
  EXPECT_EQ(faults.ArmFromSpec("no-trigger-marker").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(faults.ArmFromSpec("x@notanumber").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(faults.ArmFromSpec("x=1.5").code(),
            StatusCode::kInvalidArgument);  // Probability outside [0,1].
  EXPECT_EQ(faults.ArmFromSpec("@5").code(), StatusCode::kInvalidArgument);
  // Entries before the malformed one stay armed.
  FaultInjector partial;
  EXPECT_FALSE(partial.ArmFromSpec("good@7;bad").ok());
  EXPECT_TRUE(partial.ShouldFail("good", 7));
}

TEST(ArmFromSpecTest, ArmFromEnvReadsSgnnFaults) {
  ASSERT_EQ(setenv(kFaultsEnv, "env.site@3", 1), 0);
  FaultInjector faults;
  ASSERT_TRUE(faults.ArmFromEnv().ok());
  EXPECT_TRUE(faults.ShouldFail("env.site", 3));
  EXPECT_FALSE(faults.ShouldFail("env.site", 4));
  ASSERT_EQ(unsetenv(kFaultsEnv), 0);
  FaultInjector unarmed;
  EXPECT_TRUE(unarmed.ArmFromEnv().ok());  // Unset env is a no-op.
  EXPECT_FALSE(unarmed.ShouldFail("env.site", 3));
}

// ------------------------------------------- retry x breaker interaction

/// The reconnect loop sgnn::dist's coordinator runs per dead worker,
/// reduced to its control flow: bounded retries with deterministic
/// backoff, gated by a breaker shared across the whole run.
/// `attempt_connect` returns the outcome of one respawn attempt.
Status ReconnectWithBudget(const RetryPolicy& policy, CircuitBreaker* breaker,
                           const std::function<Status()>& attempt_connect,
                           std::vector<int64_t>* backoffs = nullptr) {
  Status last = Status::OK();
  for (int attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    if (!breaker->Allow()) {
      // Degraded path: report, never hang on a known-bad endpoint.
      return Status::Unavailable("circuit breaker open");
    }
    last = attempt_connect();
    if (last.ok()) {
      breaker->RecordSuccess();
      return last;
    }
    breaker->RecordFailure();
    if (!RetryPolicy::Retryable(last.code())) return last;
    if (backoffs != nullptr && attempt < policy.max_attempts) {
      backoffs->push_back(
          policy.BackoffMicros(attempt, /*token=*/static_cast<uint64_t>(7)));
    }
  }
  return last;
}

TEST(RetryBreakerInteractionTest, TransientCrashesRecoverWithinBudget) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  CircuitBreaker breaker;  // Threshold 8: two crashes never trip it.
  int attempts = 0;
  std::vector<int64_t> backoffs;
  const Status s = ReconnectWithBudget(
      policy, &breaker,
      [&attempts] {
        ++attempts;
        return attempts < 3 ? Status::Unavailable("worker died") : Status::OK();
      },
      &backoffs);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // Backoff between respawns is deterministic and non-decreasing.
  ASSERT_EQ(backoffs.size(), 2u);
  EXPECT_GT(backoffs[0], 0);
  EXPECT_LE(backoffs[0], backoffs[1]);
  std::vector<int64_t> replay;
  const Status replay_status = ReconnectWithBudget(
      policy, &breaker,
      [n = 0]() mutable {
        return ++n < 3 ? Status::Unavailable("worker died") : Status::OK();
      },
      &replay);
  EXPECT_TRUE(replay_status.ok());
  EXPECT_EQ(backoffs, replay);
}

TEST(RetryBreakerInteractionTest,
     RepeatedCrashRespawnCyclesOpenTheBreakerAndDegrade) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  CircuitBreaker::Config config;
  config.failure_threshold = 5;
  config.probe_interval = 1000;  // No probes within this test.
  CircuitBreaker breaker(config);
  int calls = 0;
  const auto always_crash = [&calls] {
    ++calls;
    return Status::Unavailable("worker died");
  };

  // Cycle 1: three crash-respawn attempts, budget exhausted, breaker still
  // closed (3 < 5) — the caller sees the endpoint's own error.
  Status s = ReconnectWithBudget(policy, &breaker, always_crash);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

  // Cycle 2: two more crashes trip the breaker mid-cycle; the remaining
  // attempt is fast-failed without touching the endpoint.
  s = ReconnectWithBudget(policy, &breaker, always_crash);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 5);  // Not 6: the third attempt never ran.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_NE(s.ToString().find("circuit breaker open"), std::string::npos);

  // Cycle 3: fully degraded — zero endpoint calls, immediate kUnavailable
  // instead of hanging in respawn loops.
  s = ReconnectWithBudget(policy, &breaker, always_crash);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 5);
  EXPECT_GT(breaker.fast_fails(), 0);
}

TEST(RetryBreakerInteractionTest, PermanentErrorsSkipTheRetryLoop) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  CircuitBreaker breaker;
  int calls = 0;
  const Status s = ReconnectWithBudget(policy, &breaker, [&calls] {
    ++calls;
    return Status::InvalidArgument("bad spec");
  });
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);  // Permanent: no respawn churn.
}

}  // namespace
}  // namespace sgnn::common

// ============================ fault-injected serving =======================

namespace sgnn::serve {
namespace {

using common::FaultInjector;
using common::Status;
using common::StatusCode;
using graph::NodeId;

constexpr int64_t kEmbedDim = 8;
constexpr int kClasses = 3;

FrozenModel TestModel() {
  common::Rng rng(17);
  nn::Mlp mlp({kEmbedDim, kClasses}, /*dropout=*/0.0, &rng);
  return FrozenModel::FromMlp(mlp);
}

void FillEmbedding(NodeId node, std::span<float> out) {
  for (size_t j = 0; j < out.size(); ++j) {
    out[j] = 0.01f * static_cast<float>(node) + static_cast<float>(j);
  }
}

/// Serves every node once under seeded 10% embedder failures and returns
/// the per-node terminal status code.
std::map<NodeId, StatusCode> ServeAllNodesOnce(uint64_t seed) {
  constexpr NodeId kNodes = 400;
  FaultInjector faults(seed);
  faults.Arm("serve.embed", 0.1);

  ServeConfig config;
  config.max_batch = 16;
  config.max_delay_micros = 100;
  config.queue_capacity = 1024;
  config.num_workers = 3;
  config.update_cache = false;  // No cached row: failures surface as such.
  config.breaker.failure_threshold = 1 << 20;  // Order-dependent; keep out.
  config.embed_retry.max_attempts = 2;
  config.embed_retry.base_backoff_micros = 10;

  BatchingServer server(
      TestModel(),
      [&faults](NodeId u, std::span<float> out) {
        // Token = node id: the verdict is a pure function of (seed, node),
        // independent of worker interleaving.
        SGNN_RETURN_IF_ERROR(faults.MaybeFail("serve.embed", u));
        FillEmbedding(u, out);
        return Status::OK();
      },
      kNodes, config);

  std::vector<std::future<InferenceResponse>> futures;
  for (NodeId u = 0; u < kNodes; ++u) {
    auto future = server.Submit(InferenceRequest(u));
    EXPECT_TRUE(future.ok());
    futures.push_back(std::move(future).value());
  }
  std::map<NodeId, StatusCode> outcomes;
  for (auto& future : futures) {
    InferenceResponse response = future.get();
    outcomes[response.node] = response.status.code();
  }
  server.Shutdown();
  return outcomes;
}

TEST(FaultServingTest, SeededFailuresAreDeterministicPerNode) {
  const auto run1 = ServeAllNodesOnce(0xfa11);
  const auto run2 = ServeAllNodesOnce(0xfa11);
  EXPECT_EQ(run1, run2);  // Same seed: identical per-request outcomes.

  size_t failures = 0;
  for (const auto& [node, code] : run1) {
    // Every request terminal: either served or failed-with-reason.
    EXPECT_TRUE(code == StatusCode::kOk || code == StatusCode::kUnavailable);
    failures += code != StatusCode::kOk;
  }
  EXPECT_EQ(run1.size(), 400u);
  EXPECT_GT(failures, 10u);  // ~10% of 400, loosely bounded.
  EXPECT_LT(failures, 100u);

  const auto other = ServeAllNodesOnce(0x5eed);
  EXPECT_NE(run1, other);  // A different seed fails a different node set.
}

TEST(FaultServingTest, DegradedModeServesStaleRowsWhenEmbedderDies) {
  constexpr NodeId kNodes = 32;
  FaultInjector faults(3);
  faults.Arm("serve.embed", 1.0);  // Embedder is down, permanently.

  ServeConfig config;
  config.max_batch = 4;
  config.max_delay_micros = 100;
  config.max_staleness = 0;  // Anything older than this batch is stale.
  config.breaker.failure_threshold = 1 << 20;
  config.embed_retry.max_attempts = 1;

  BatchingServer server(
      TestModel(),
      [&faults](NodeId u, std::span<float> out) {
        SGNN_RETURN_IF_ERROR(faults.MaybeFail("serve.embed", u));
        FillEmbedding(u, out);
        return Status::OK();
      },
      kNodes, config);

  tensor::Matrix warm(kNodes, kEmbedDim);
  for (NodeId u = 0; u < kNodes; ++u) FillEmbedding(u, warm.Row(u));
  server.WarmCache(warm);

  // Step 0: warmed rows have staleness 0 -> fresh hit.
  InferenceResponse first =
      server.Submit(InferenceRequest(5)).value().get();
  ASSERT_TRUE(first.status.ok());
  EXPECT_TRUE(first.cache_hit);
  EXPECT_FALSE(first.degraded);

  // Later steps: the row is stale, the embedder fails -> degraded serve of
  // the same row, so the logits are identical.
  InferenceResponse second =
      server.Submit(InferenceRequest(5)).value().get();
  ASSERT_TRUE(second.status.ok());
  EXPECT_FALSE(second.cache_hit);
  EXPECT_TRUE(second.degraded);
  EXPECT_EQ(second.logits, first.logits);
  EXPECT_EQ(second.predicted_class, first.predicted_class);

  const ServeMetricsSnapshot snap = server.Metrics();
  EXPECT_GE(snap.health.degraded_serves, 1u);
  EXPECT_GE(snap.health.embed_failures, 1u);
  EXPECT_EQ(snap.health.failed_requests, 0u);
  server.Shutdown();
}

TEST(FaultServingTest, WithNoCachedRowTheErrorSurfaces) {
  constexpr NodeId kNodes = 8;
  ServeConfig config;
  config.max_batch = 2;
  config.max_delay_micros = 100;
  config.max_staleness = 0;
  config.breaker.failure_threshold = 1 << 20;
  config.embed_retry.max_attempts = 3;
  config.embed_retry.base_backoff_micros = 5;

  std::atomic<int> embed_calls{0};
  BatchingServer server(
      TestModel(),
      [&embed_calls](NodeId, std::span<float>) {
        ++embed_calls;
        return Status::Unavailable("embedder down");
      },
      kNodes, config);

  InferenceResponse response =
      server.Submit(InferenceRequest(2)).value().get();
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(response.logits.empty());
  EXPECT_EQ(embed_calls.load(), 3);  // All attempts spent.

  const ServeMetricsSnapshot snap = server.Metrics();
  EXPECT_EQ(snap.health.failed_requests, 1u);
  EXPECT_EQ(snap.health.embed_failures, 3u);
  EXPECT_EQ(snap.health.retries, 2u);
  server.Shutdown();
}

TEST(FaultServingTest, PermanentErrorsAreNotRetried) {
  ServeConfig config;
  config.max_delay_micros = 100;
  std::atomic<int> embed_calls{0};
  BatchingServer server(
      TestModel(),
      [&embed_calls](NodeId, std::span<float>) {
        ++embed_calls;
        return Status::Internal("model shard corrupt");
      },
      8, config);
  InferenceResponse response =
      server.Submit(InferenceRequest(1)).value().get();
  EXPECT_EQ(response.status.code(), StatusCode::kInternal);
  EXPECT_EQ(embed_calls.load(), 1);  // No retry on a permanent error.
  server.Shutdown();
}

TEST(FaultServingTest, ExpiredRequestsResolveDeadlineExceeded) {
  ServeConfig config;
  config.max_batch = 64;
  // The batcher waits 20 ms for more requests; the deadline is 1 ms, so
  // the request expires while the batch is still forming.
  config.max_delay_micros = 20'000;

  std::atomic<int> embed_calls{0};
  BatchingServer server(
      TestModel(),
      [&embed_calls](NodeId u, std::span<float> out) {
        ++embed_calls;
        FillEmbedding(u, out);
        return Status::OK();
      },
      16, config);

  InferenceRequest request(3);
  request.deadline_micros = 1'000;
  InferenceResponse response = server.Submit(request).value().get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.logits.empty());
  EXPECT_EQ(embed_calls.load(), 0);  // Expired at dequeue: no work wasted.

  const ServeMetricsSnapshot snap = server.Metrics();
  EXPECT_GE(snap.health.deadline_misses, 1u);
  EXPECT_GE(snap.health.failed_requests, 1u);
  server.Shutdown();
}

TEST(FaultServingTest, OpenBreakerFastFailsWithoutCallingEmbedder) {
  constexpr NodeId kNodes = 64;
  ServeConfig config;
  config.max_batch = 8;
  config.max_delay_micros = 100;
  config.num_workers = 1;  // Serialised batches: breaker order is stable.
  config.embed_retry.max_attempts = 1;
  config.breaker.failure_threshold = 3;
  config.breaker.probe_interval = 1 << 20;  // No probes within this test.

  std::atomic<int> embed_calls{0};
  BatchingServer server(
      TestModel(),
      [&embed_calls](NodeId, std::span<float>) {
        ++embed_calls;
        return Status::Unavailable("embedder down");
      },
      kNodes, config);

  std::vector<std::future<InferenceResponse>> futures;
  for (NodeId u = 0; u < kNodes; ++u) {
    futures.push_back(server.Submit(InferenceRequest(u)).value());
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().status.code(), StatusCode::kUnavailable);
  }
  server.Shutdown();

  // The breaker tripped after 3 failures; the remaining ~61 misses were
  // fast-failed without touching the embedder.
  EXPECT_EQ(embed_calls.load(), 3);
  const ServeMetricsSnapshot snap = server.Metrics();
  EXPECT_GE(snap.health.breaker_trips, 1u);
  EXPECT_GE(snap.health.breaker_fast_fails, kNodes - 4u);
  EXPECT_EQ(snap.health.failed_requests, static_cast<uint64_t>(kNodes));
  EXPECT_STREQ(snap.health.breaker_state, "open");
  EXPECT_FALSE(snap.health.ToString().empty());
}

// Satellite 3: under 10% injected failures, concurrent clients, tight
// deadlines, and a mid-stream shutdown, every admitted request still gets
// exactly one terminal response — no hung futures, no lost promises.
TEST(FaultServingTest, EveryAdmittedRequestIsTerminalUnderStress) {
  constexpr NodeId kNodes = 2000;
  constexpr int kClients = 4;
  constexpr int kPerClient = 400;

  FaultInjector faults(0xdead);
  faults.Arm("serve.embed", 0.1);

  ServeConfig config;
  config.max_batch = 32;
  config.max_delay_micros = 200;
  config.queue_capacity = 256;  // Small: exercise backpressure rejects.
  config.num_workers = 3;
  config.embed_retry.max_attempts = 2;
  config.embed_retry.base_backoff_micros = 10;

  BatchingServer server(
      TestModel(),
      [&faults](NodeId u, std::span<float> out) {
        SGNN_RETURN_IF_ERROR(faults.MaybeFail("serve.embed", u));
        FillEmbedding(u, out);
        return Status::OK();
      },
      kNodes, config);

  std::mutex mu;
  std::vector<std::future<InferenceResponse>> admitted;
  std::atomic<int> rejected{0};
  std::atomic<int> num_admitted{0};
  std::atomic<int> clients_done{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      common::Rng rng(static_cast<uint64_t>(c) + 1);
      for (int i = 0; i < kPerClient; ++i) {
        InferenceRequest request(
            static_cast<NodeId>(rng.UniformInt(kNodes)));
        request.deadline_micros = 50'000;
        auto future = server.Submit(request);
        if (future.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          admitted.push_back(std::move(future).value());
          ++num_admitted;
        } else {
          ++rejected;
        }
      }
      ++clients_done;
    });
  }
  // Shut down while clients are still submitting: late Submits fail
  // cleanly, already-admitted requests must still drain. Waiting for the
  // first admission first keeps a slow start (a loaded host, a sanitizer
  // build) from shutting down before any request got in.
  while (num_admitted.load() == 0 && clients_done.load() < kClients) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.Shutdown();
  for (auto& t : clients) t.join();

  ASSERT_FALSE(admitted.empty());
  uint64_t ok = 0, failed = 0;
  for (auto& future : admitted) {
    // A lost promise would hang here; bound the wait to fail loudly.
    ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    InferenceResponse response = future.get();
    if (response.status.ok()) {
      ++ok;
    } else {
      ++failed;
      EXPECT_NE(response.status.code(), StatusCode::kOk);
    }
  }
  EXPECT_EQ(ok + failed, admitted.size());
  EXPECT_GT(ok, 0u);

  const ServeMetricsSnapshot snap = server.Metrics();
  EXPECT_EQ(snap.requests_served, ok);
  EXPECT_EQ(snap.health.failed_requests, failed);
}

}  // namespace
}  // namespace sgnn::serve
