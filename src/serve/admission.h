#ifndef SGNN_SERVE_ADMISSION_H_
#define SGNN_SERVE_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "serve/batching_server.h"

namespace sgnn::serve {

/// Multi-tenant admission stage between a front door (in-process caller or
/// the `sgnn::net` HTTP server) and the `BatchingServer`: per-tenant
/// token-bucket quotas, deficit-weighted-fair dequeue over bounded
/// per-tenant FIFOs, and tiered load shedding driven by the server's
/// `CircuitBreaker` state.
///
/// Everything is counting-based — token buckets refill per *dispatch
/// event*, the shed policy reads breaker state and queue fill, and DWRR
/// deficits advance per pop — so the whole stage is deterministic given
/// the offer/dispatch sequence (no wall clock), which is what makes the
/// fairness and shedding tests exact instead of statistical.

/// Degradation ladder applied to an admitted request, in order of
/// increasing desperation: serve exactly, serve the cached row at any
/// staleness (`InferenceRequest::stale_only`), or reject outright.
enum class ShedTier { kExact = 0, kStale = 1, kReject = 2 };

const char* ShedTierName(ShedTier tier);

/// Per-tenant admission parameters.
struct TenantQuota {
  /// Relative fair share under saturation: a tenant with weight 2 drains
  /// twice as fast as one with weight 1 while both are backlogged. Each
  /// DWRR visit grants `weight` of deficit; one unit buys one request.
  /// Must be finite and positive; `AdmissionQueue`'s constructor checks.
  double weight = 1.0;
  /// Token-bucket burst size; each admitted request spends one token and
  /// an empty bucket rejects with `kResourceExhausted` (HTTP 429). The
  /// default is effectively unlimited — quotas are opt-in.
  double bucket_capacity = 1e18;
  /// Tokens granted back per dispatch event anywhere in the stage (a
  /// counting clock, not a wall clock): a tenant capped at
  /// `refill_per_dispatch = 0.5` can sustain at most half the total
  /// dispatch rate regardless of its weight.
  double refill_per_dispatch = 0.0;
};

/// Maps (breaker state, queue fill) to the shed tier. Counting-based and
/// pure, so the exact → stale → reject walk is reproducible in tests.
struct ShedPolicy {
  /// Queue fill fraction at or above which an open breaker escalates from
  /// stale serving to outright rejection.
  double reject_fill = 0.5;

  /// Breaker closed → `kExact`. Open or half-open (the embedder is
  /// presumed down) → `kStale`, so cached rows keep flowing without
  /// burning worker time. Open *and* the admission queues at least
  /// `reject_fill` full → `kReject`: the backlog cannot drain through a
  /// dead embedder, so new work is turned away at the door.
  ShedTier Decide(common::CircuitBreaker::State breaker, double fill) const;
};

struct AdmissionConfig {
  /// Known tenants and their quotas; tenants not listed here are created
  /// on first use with a default `TenantQuota`.
  std::map<std::string, TenantQuota> tenants;
  /// Bound of each tenant's FIFO; `Offer` rejects `kUnavailable` beyond it
  /// (per-tenant backpressure — one flooding tenant fills its own queue,
  /// not its neighbours').
  size_t per_tenant_capacity = 256;
  ShedPolicy shed;
  /// Record the tenant-id sequence of every dispatch (test/bench hook for
  /// exact fairness assertions; unbounded, so off by default).
  bool record_dispatch_log = false;
};

/// The admission queue itself. `Offer` applies shedding and quota, then
/// enqueues into the tenant's bounded queue; `PopDispatch` dequeues
/// deficit-weighted-fair across tenants without waiting. Both are
/// thread-safe; the HTTP front door calls both from its event loop.
/// The `cookie` travels with the request so a front door can route the
/// eventual response back to its connection.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(const AdmissionConfig& config);

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Admission decision for one request. On success returns the tier that
  /// was applied — `kExact`, or `kStale` (the request's `stale_only` flag
  /// is then set) — and the request is queued. Failures:
  /// `kUnavailable` (shed tier `kReject`, or the tenant queue is full),
  /// `kResourceExhausted` (token bucket empty), `kFailedPrecondition`
  /// (after `Close`). `breaker` is the serving breaker's current state,
  /// the shedding signal.
  common::StatusOr<ShedTier> Offer(InferenceRequest request, uint64_t cookie,
                                   common::CircuitBreaker::State breaker);

  /// Dequeues the next request by deficit-weighted round-robin over the
  /// backlogged tenants. False, without waiting, when paused or when no
  /// request is ready. Also advances the token-bucket refill clock by one
  /// dispatch event.
  bool PopDispatch(InferenceRequest* request, uint64_t* cookie);

  /// While paused, `PopDispatch` returns false (offers still queue): the
  /// saturation switch for fairness tests and the soak bench.
  void Pause();
  void Resume();

  /// Rejects future offers; queued requests remain poppable
  /// (drain-then-stop).
  void Close();

  size_t TotalQueued() const;
  /// Queue fill fraction over all currently known tenants, in [0, 1].
  double FillFraction() const;

  /// Tenant-id sequence of every dispatch so far (empty unless
  /// `record_dispatch_log`).
  std::vector<std::string> DispatchLog() const;

 private:
  struct Queued {
    InferenceRequest request;
    uint64_t cookie = 0;
  };

  struct Tenant {
    explicit Tenant(const TenantQuota& q)
        : quota(q), tokens(q.bucket_capacity) {}
    const TenantQuota quota;
    // sgnn-lint: allow(lock/unannotated-field): guarded by the owning
    // AdmissionQueue's mu_; the annotation cannot name an outer mutex.
    double tokens;
    // sgnn-lint: allow(lock/unannotated-field): guarded by the owning
    // AdmissionQueue's mu_; `Offer` bounds it at `per_tenant_capacity`.
    std::deque<Queued> queue;
    // sgnn-lint: allow(lock/unannotated-field): guarded by the owning
    // AdmissionQueue's mu_ (DWRR state).
    double deficit = 0.0;
  };

  Tenant& TenantFor(const std::string& id) SGNN_REQUIRES(mu_);
  /// One DWRR pop attempt over the current tenant map; false when every
  /// queue is empty.
  bool TryDwrrPop(Queued* out) SGNN_REQUIRES(mu_);
  void RefillAll() SGNN_REQUIRES(mu_);
  double FillFractionLocked() const SGNN_REQUIRES(mu_);

  const AdmissionConfig config_;

  mutable common::Mutex mu_;
  /// Sorted by tenant id: DWRR visits tenants in deterministic key order.
  std::map<std::string, std::unique_ptr<Tenant>> tenants_ SGNN_GUARDED_BY(mu_);
  /// DWRR cursor: id of the tenant the next visit starts at ("" = first).
  std::string cursor_ SGNN_GUARDED_BY(mu_);
  /// Whether the cursor's tenant already received its per-visit deficit
  /// grant (a grant happens once per arrival, not once per pop).
  bool cursor_granted_ SGNN_GUARDED_BY(mu_) = false;
  bool paused_ SGNN_GUARDED_BY(mu_) = false;
  bool closed_ SGNN_GUARDED_BY(mu_) = false;
  std::vector<std::string> dispatch_log_ SGNN_GUARDED_BY(mu_);
};

}  // namespace sgnn::serve

#endif  // SGNN_SERVE_ADMISSION_H_
