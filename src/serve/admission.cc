#include "serve/admission.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "common/check.h"

namespace sgnn::serve {

AdmissionQueue::AdmissionQueue(const AdmissionConfig& config)
    : config_(config) {
  SGNN_CHECK_GT(config_.per_tenant_capacity, 0u);
  common::MutexLock lock(mu_);
  for (const auto& [id, quota] : config_.tenants) {
    // DWRR grants `weight` per visit: a zero, negative or NaN weight never
    // earns a dispatch for the requests `Offer` admits, and an infinite
    // one starves every other tenant.
    SGNN_CHECK(std::isfinite(quota.weight) && quota.weight > 0.0);
    tenants_.try_emplace(id, quota, /*listed_in=*/true);
  }
}

AdmissionQueue::Tenant& AdmissionQueue::TenantFor(const std::string& id) {
  return tenants_.try_emplace(id, TenantQuota{}, /*listed_in=*/false)
      .first->second;
}

common::Status AdmissionQueue::Offer(InferenceRequest request,
                                     uint64_t cookie) {
  common::MutexLock lock(mu_);
  if (closed_) {
    return common::Status::FailedPrecondition("admission queue is closed");
  }
  Tenant& tenant = TenantFor(request.tenant_id);
  if (tenant.tokens < 1.0) {
    return common::Status::ResourceExhausted("tenant '" + request.tenant_id +
                                             "' is out of quota tokens");
  }
  if (tenant.queue.size() >= config_.per_tenant_capacity) {
    // Per-tenant backpressure: a flooding tenant fills only its own FIFO.
    return common::Status::Unavailable("queue is full");
  }
  tenant.queue.push_back(Queued{std::move(request), cookie});
  tenant.tokens -= 1.0;
  return common::Status::OK();
}

bool AdmissionQueue::PopDispatch(InferenceRequest* request, uint64_t* cookie) {
  SGNN_CHECK(request != nullptr);
  SGNN_CHECK(cookie != nullptr);
  common::MutexLock lock(mu_);
  Queued item;
  if (paused_ || !TryDwrrPop(&item)) return false;
  RefillAll();
  if (config_.record_dispatch_log) {
    dispatch_log_.push_back(item.request.tenant_id);
  }
  *request = std::move(item.request);
  *cookie = item.cookie;
  return true;
}

bool AdmissionQueue::TryDwrrPop(Queued* out) {
  if (tenants_.empty()) return false;
  // At most two sweeps over the tenant map: the first may spend visits
  // resetting deficits of empty queues; if any queue is non-empty, its
  // tenant accrues at least one grant within two sweeps (weights are
  // checked positive) unless weight < 1, in which case servicing
  // legitimately waits for enough full rounds — bounded here by giving
  // every non-empty tenant one grant per sweep and bailing once a full
  // double sweep produced nothing.
  const size_t max_visits = 2 * tenants_.size() + 2;
  bool any_nonempty = false;
  for (const auto& [id, tenant] : tenants_) {
    if (!tenant.queue.empty()) {
      any_nonempty = true;
      break;
    }
  }
  if (!any_nonempty) return false;
  auto it = tenants_.lower_bound(cursor_);
  if (it == tenants_.end()) it = tenants_.begin();
  for (size_t visits = 0; visits < max_visits; ++visits) {
    Tenant& tenant = it->second;
    const bool nonempty = !tenant.queue.empty();
    if (!cursor_granted_) {
      // Classic DRR: an idle tenant's deficit resets so it cannot hoard
      // service credit while it has nothing to send.
      if (nonempty) {
        tenant.deficit += tenant.quota.weight;
      } else {
        tenant.deficit = 0.0;
      }
      cursor_granted_ = true;
    }
    if (nonempty && tenant.deficit >= 1.0) {
      *out = std::move(tenant.queue.front());
      tenant.queue.pop_front();
      tenant.deficit -= 1.0;
      if (tenant.queue.empty()) {
        tenant.deficit = 0.0;
        auto next = std::next(it);
        if (next == tenants_.end()) next = tenants_.begin();
        cursor_ = next->first;
        cursor_granted_ = false;
        // An unlisted tenant with nothing queued is a default bucket with a
        // reset deficit, the same as one created on its next offer, so it
        // is forgotten rather than walked on every dispatch.
        if (!tenant.listed) tenants_.erase(it);
      } else {
        cursor_ = it->first;
      }
      return true;
    }
    ++it;
    if (it == tenants_.end()) it = tenants_.begin();
    cursor_ = it->first;
    cursor_granted_ = false;
  }
  // weight < 1 for every backlogged tenant: deficits accrued this
  // call; the next call continues accruing until one crosses 1.
  return false;
}

void AdmissionQueue::RefillAll() {
  for (auto& [id, tenant] : tenants_) {
    tenant.tokens = std::min(tenant.quota.bucket_capacity,
                             tenant.tokens + tenant.quota.refill_per_dispatch);
  }
}

void AdmissionQueue::Pause() {
  common::MutexLock lock(mu_);
  paused_ = true;
}

void AdmissionQueue::Resume() {
  common::MutexLock lock(mu_);
  paused_ = false;
}

void AdmissionQueue::Close() {
  common::MutexLock lock(mu_);
  closed_ = true;
}

size_t AdmissionQueue::TotalQueued() const {
  common::MutexLock lock(mu_);
  size_t total = 0;
  for (const auto& [id, tenant] : tenants_) total += tenant.queue.size();
  return total;
}

double AdmissionQueue::FillFraction() const {
  common::MutexLock lock(mu_);
  return FillFractionLocked();
}

double AdmissionQueue::FillFractionLocked() const {
  if (tenants_.empty()) return 0.0;
  size_t total = 0;
  for (const auto& [id, tenant] : tenants_) total += tenant.queue.size();
  const size_t capacity = tenants_.size() * config_.per_tenant_capacity;
  return static_cast<double>(total) / static_cast<double>(capacity);
}

std::vector<std::string> AdmissionQueue::DispatchLog() const {
  common::MutexLock lock(mu_);
  return dispatch_log_;
}

}  // namespace sgnn::serve
