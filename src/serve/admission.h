#ifndef SGNN_SERVE_ADMISSION_H_
#define SGNN_SERVE_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "serve/batching_server.h"

namespace sgnn::serve {

/// Multi-tenant admission stage between a front door (in-process caller or
/// the `sgnn::net` HTTP server) and the `BatchingServer`: per-tenant
/// token-bucket quotas, deficit-weighted-fair dequeue over bounded
/// per-tenant FIFOs. It decides only who goes next; how a request is
/// served when the embedder fails is the server's business.
///
/// Everything is counting-based — token buckets refill per *dispatch
/// event* and DWRR deficits advance per pop — so the whole stage is
/// deterministic given the offer/dispatch sequence (no wall clock), which
/// is what makes the fairness tests exact instead of statistical.

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

struct AdmissionConfig {
  /// Known tenants and their quotas. A tenant not listed here is created
  /// on first use with a default `TenantQuota` and forgotten once its queue
  /// drains, so a client inventing tenant ids costs no lasting state.
  std::map<std::string, TenantQuota> tenants;
  /// Bound of each tenant's FIFO; `Offer` rejects `kUnavailable` beyond it
  /// (per-tenant backpressure — one flooding tenant fills its own queue,
  /// not its neighbours').
  size_t per_tenant_capacity = 256;
  /// Record the tenant-id sequence of every dispatch (test/bench hook for
  /// exact fairness assertions; unbounded, so off by default).
  bool record_dispatch_log = false;
};

/// The admission queue itself. `Offer` applies the quota, then enqueues
/// into the tenant's bounded queue; `PopDispatch` dequeues
/// deficit-weighted-fair across tenants without waiting. Both are
/// thread-safe; the HTTP front door calls both from its event loop.
/// The `cookie` travels with the request so a front door can route the
/// eventual response back to its connection.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(const AdmissionConfig& config);

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Admission decision for one request; on OK it is queued. Failures:
  /// `kUnavailable` (the tenant queue is full), `kResourceExhausted`
  /// (token bucket empty), `kFailedPrecondition` (after `Close`).
  SGNN_NODISCARD common::Status Offer(InferenceRequest request,
                                      uint64_t cookie);

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
  /// Queue fill fraction over the listed tenants and the unlisted ones
  /// with a backlog, in [0, 1].
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
    Tenant(const TenantQuota& q, bool listed_in)
        : quota(q), listed(listed_in), tokens(q.bucket_capacity) {}
    const TenantQuota quota;
    /// Named in `AdmissionConfig::tenants`; only these outlive a drain.
    const bool listed;
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
  /// queue is empty. Erases an unlisted tenant whose queue it drains.
  bool TryDwrrPop(Queued* out) SGNN_REQUIRES(mu_);
  void RefillAll() SGNN_REQUIRES(mu_);
  double FillFractionLocked() const SGNN_REQUIRES(mu_);

  const AdmissionConfig config_;

  mutable common::Mutex mu_;
  /// Sorted by tenant id: DWRR visits tenants in deterministic key order.
  std::map<std::string, Tenant> tenants_ SGNN_GUARDED_BY(mu_);
  /// DWRR cursor: the next visit starts at the first tenant whose id is not
  /// below it, wrapping to the first ("" = first). It may name a tenant
  /// that has since been forgotten.
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
