#ifndef SGNN_COMMON_FAULT_H_
#define SGNN_COMMON_FAULT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace sgnn::common {

/// Environment variable consulted by `FaultInjector::ArmFromEnv`.
inline constexpr char kFaultsEnv[] = "SGNN_FAULTS";

/// Deterministic, seed-driven fault injection for robustness tests and
/// benchmarks. Faults are keyed by a string *site* name (e.g.
/// `"serve.admit"`, `"dist.frame.drop"`, `"pipeline.after_stage"`) so a
/// test can target one failure point without touching the others. Each
/// call names a *token*, an index of the operation that the call site
/// derives itself (a node id, a stage index, a frame sequence number), and
/// the verdict is a pure function of (seed, site, token): concurrent
/// callers reproduce the exact same per-token outcomes regardless of thread
/// interleaving, which is what makes multi-worker fault tests replayable.
///
/// Thread-safe; an unarmed site never fails.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0) : seed_(seed) {}

  /// Arms `site` to fail each token independently with probability `p`.
  void Arm(const std::string& site, double probability) SGNN_EXCLUDES(mu_);

  /// Arms `site` to fail on `token`, every time it is asked.
  void ArmAt(const std::string& site, int64_t token) SGNN_EXCLUDES(mu_);

  /// The verdict for `token` at `site`. The same (seed, site, token)
  /// always yields the same verdict.
  bool ShouldFail(const std::string& site, uint64_t token) SGNN_EXCLUDES(mu_);

  /// Convenience wrapper: `kUnavailable` ("injected fault at <site>") when
  /// `ShouldFail` fires, OK otherwise.
  SGNN_NODISCARD Status MaybeFail(const std::string& site, uint64_t token) SGNN_EXCLUDES(mu_);

  /// Arms sites from a `;`- or `,`-separated spec string, one entry per
  /// site: `site@token` arms a token trigger (`ArmAt`) and
  /// `site=probability` an independent-probability trigger (`Arm`).
  /// Example: `"dist.worker.kill@65537;dist.frame.corrupt=0.01"`. Empty
  /// entries are skipped; a malformed entry yields `kInvalidArgument`
  /// (entries before it stay armed).
  SGNN_NODISCARD Status ArmFromSpec(const std::string& spec) SGNN_EXCLUDES(mu_);

  /// Reads the `SGNN_FAULTS` environment variable and forwards a non-empty
  /// value to `ArmFromSpec`; OK when unset. This is how a forked worker or
  /// a CI job injects a deterministic kill schedule without code changes.
  SGNN_NODISCARD Status ArmFromEnv() SGNN_EXCLUDES(mu_);

 private:
  struct Site {
    double probability = 0.0;
    int64_t fail_at = -1;  ///< Token that always fails; -1 = none.
  };

  const uint64_t seed_;
  mutable Mutex mu_;
  std::map<std::string, Site> sites_ SGNN_GUARDED_BY(mu_);
};

/// An absolute time budget carried by a request. `Infinite()` never
/// expires; `After(micros)` expires that far from now, or never when that
/// is past the clock's range.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() : infinite_(true) {}

  static Deadline Infinite() { return Deadline(); }
  static Deadline After(int64_t micros) {
    const Clock::time_point now = Clock::now();
    // Any int64 may arrive from a request body; converting one past the
    // clock's range to its ticks would overflow.
    if (micros >= std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::time_point::max() - now)
                      .count()) {
      return Infinite();
    }
    return At(now + std::chrono::microseconds(micros));
  }
  static Deadline At(Clock::time_point at) {
    Deadline d;
    d.infinite_ = false;
    d.at_ = at;
    return d;
  }

  bool infinite() const { return infinite_; }
  bool expired() const { return !infinite_ && Clock::now() >= at_; }

  /// Microseconds until expiry; <= 0 when expired, INT64_MAX when infinite.
  int64_t remaining_micros() const;

  Clock::time_point at() const { return at_; }

 private:
  bool infinite_ = true;
  Clock::time_point at_{};
};

/// Bounded-attempt retry with exponential backoff and deterministic
/// jitter: the jitter for (attempt, token) is a pure hash, so retry
/// schedules reproduce exactly under a fixed seed even across threads.
struct RetryPolicy {
  int max_attempts = 3;               ///< Total attempts, including the first.
  int64_t base_backoff_micros = 100;  ///< Backoff before the first retry.
  double backoff_multiplier = 2.0;
  int64_t max_backoff_micros = 100000;
  double jitter = 0.2;  ///< Fraction of the backoff randomised (+/-).
  uint64_t seed = 0x5eedf001;

  /// Transient codes worth retrying; everything else is permanent.
  static bool Retryable(StatusCode code) {
    return code == StatusCode::kUnavailable || code == StatusCode::kAborted;
  }

  /// Backoff before retry number `attempt` (1-based: attempt 1 follows the
  /// first failure), jittered deterministically by `token`.
  int64_t BackoffMicros(int attempt, uint64_t token) const;
};

struct CircuitBreakerConfig {
  int failure_threshold = 8;
  int probe_interval = 16;
};

/// Consecutive-failure circuit breaker (closed -> open -> half-open).
///
/// Closed: every call is admitted; `failure_threshold` consecutive
/// failures trip the breaker. Open: calls fast-fail, except every
/// `probe_interval`-th rejected call is admitted as a half-open probe.
/// Half-open: further calls fast-fail until the probe resolves — success
/// closes the breaker, failure re-opens it. Counting-based (no wall
/// clock), so state transitions are deterministic given the call order.
/// Thread-safe.
class CircuitBreaker {
 public:
  using Config = CircuitBreakerConfig;
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(Config config = Config());

  /// True when the protected call may proceed; false = fast-fail.
  bool Allow() SGNN_EXCLUDES(mu_);

  void RecordSuccess() SGNN_EXCLUDES(mu_);
  void RecordFailure() SGNN_EXCLUDES(mu_);

  State state() const SGNN_EXCLUDES(mu_);
  /// Times the breaker transitioned closed/half-open -> open.
  int64_t trips() const SGNN_EXCLUDES(mu_);
  int64_t fast_fails() const SGNN_EXCLUDES(mu_);

  static const char* StateName(State s);

 private:
  const Config config_;
  mutable Mutex mu_;
  State state_ SGNN_GUARDED_BY(mu_) = State::kClosed;
  int consecutive_failures_ SGNN_GUARDED_BY(mu_) = 0;
  int64_t rejected_since_open_ SGNN_GUARDED_BY(mu_) = 0;
  int64_t trips_ SGNN_GUARDED_BY(mu_) = 0;
  int64_t fast_fails_ SGNN_GUARDED_BY(mu_) = 0;
};

}  // namespace sgnn::common

#endif  // SGNN_COMMON_FAULT_H_
