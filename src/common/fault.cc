#include "common/fault.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/check.h"

namespace sgnn::common {

namespace {

/// SplitMix64-style mix used by the deterministic triggers and the retry
/// jitter.
uint64_t MixHash(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t x = a ^ (b * 0x9E3779B97F4A7C15ULL) ^ (c * 0xBF58476D1CE4E5B9ULL);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// Uniform double in [0, 1) from a hash value.
double HashToUnit(uint64_t h) {
  // Top 53 bits -> [0, 1), the standard double-from-bits construction.
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

uint64_t SiteHash(const std::string& site) {
  // FNV-1a over the site name: stable across runs and platforms.
  uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

void FaultInjector::Arm(const std::string& site, double probability) {
  SGNN_CHECK(probability >= 0.0 && probability <= 1.0);
  MutexLock lock(mu_);
  sites_[site].probability = probability;
}

void FaultInjector::ArmAt(const std::string& site, int64_t token) {
  SGNN_CHECK_GE(token, 0);
  MutexLock lock(mu_);
  sites_[site].fail_at = token;
}

bool FaultInjector::ShouldFail(const std::string& site, uint64_t token) {
  MutexLock lock(mu_);
  const auto it = sites_.find(site);
  if (it == sites_.end()) return false;
  const Site& s = it->second;
  if (s.fail_at >= 0 && static_cast<uint64_t>(s.fail_at) == token) {
    return true;
  }
  if (s.probability <= 0.0) return false;
  return HashToUnit(MixHash(seed_, SiteHash(site), token)) < s.probability;
}

Status FaultInjector::MaybeFail(const std::string& site, uint64_t token) {
  if (ShouldFail(site, token)) {
    return Status::Unavailable("injected fault at " + site);
  }
  return Status::OK();
}

Status FaultInjector::ArmFromSpec(const std::string& spec) {
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find_first_of(";,", start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    const std::size_t at = entry.find('@');
    const std::size_t eq = entry.find('=');
    const std::size_t sep = std::min(at, eq);
    if (sep == std::string::npos || sep == 0 || sep + 1 >= entry.size()) {
      return Status::InvalidArgument("malformed fault spec entry '" + entry +
                                     "' (want site@token or site=probability)");
    }
    const std::string site = entry.substr(0, sep);
    const std::string arg = entry.substr(sep + 1);
    errno = 0;
    char* parse_end = nullptr;
    if (at < eq) {
      const long long token = std::strtoll(arg.c_str(), &parse_end, 10);
      if (errno != 0 || parse_end == arg.c_str() || *parse_end != '\0' ||
          token < 0) {
        return Status::InvalidArgument("bad token in fault spec entry '" +
                                       entry + "'");
      }
      ArmAt(site, token);
    } else {
      const double p = std::strtod(arg.c_str(), &parse_end);
      if (errno != 0 || parse_end == arg.c_str() || *parse_end != '\0' ||
          p < 0.0 || p > 1.0) {
        return Status::InvalidArgument("bad probability in fault spec entry '" +
                                       entry + "'");
      }
      Arm(site, p);
    }
  }
  return Status::OK();
}

Status FaultInjector::ArmFromEnv() {
  const char* spec = std::getenv(kFaultsEnv);
  if (spec == nullptr || *spec == '\0') return Status::OK();
  return ArmFromSpec(spec);
}

int64_t Deadline::remaining_micros() const {
  if (infinite_) return std::numeric_limits<int64_t>::max();
  return std::chrono::duration_cast<std::chrono::microseconds>(at_ -
                                                               Clock::now())
      .count();
}

int64_t RetryPolicy::BackoffMicros(int attempt, uint64_t token) const {
  SGNN_CHECK_GE(attempt, 1);
  double backoff = static_cast<double>(base_backoff_micros);
  for (int i = 1; i < attempt; ++i) backoff *= backoff_multiplier;
  backoff = std::min(backoff, static_cast<double>(max_backoff_micros));
  if (jitter > 0.0) {
    const uint64_t h = MixHash(seed, static_cast<uint64_t>(attempt), token);
    // Uniform in [1 - jitter, 1 + jitter).
    backoff *= 1.0 + jitter * (2.0 * HashToUnit(h) - 1.0);
  }
  return static_cast<int64_t>(backoff);
}

CircuitBreaker::CircuitBreaker(Config config) : config_(config) {
  SGNN_CHECK_GE(config_.failure_threshold, 1);
  SGNN_CHECK_GE(config_.probe_interval, 1);
}

bool CircuitBreaker::Allow() {
  MutexLock lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      ++rejected_since_open_;
      if (rejected_since_open_ % config_.probe_interval == 0) {
        state_ = State::kHalfOpen;  // Admit one probe.
        return true;
      }
      ++fast_fails_;
      return false;
    case State::kHalfOpen:
      ++fast_fails_;  // One probe at a time.
      return false;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  MutexLock lock(mu_);
  state_ = State::kClosed;
  consecutive_failures_ = 0;
  rejected_since_open_ = 0;
}

void CircuitBreaker::RecordFailure() {
  MutexLock lock(mu_);
  ++consecutive_failures_;
  const bool trip = state_ == State::kHalfOpen ||
                    (state_ == State::kClosed &&
                     consecutive_failures_ >= config_.failure_threshold);
  if (trip) {
    state_ = State::kOpen;
    rejected_since_open_ = 0;
    ++trips_;
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  MutexLock lock(mu_);
  return state_;
}

int64_t CircuitBreaker::trips() const {
  MutexLock lock(mu_);
  return trips_;
}

int64_t CircuitBreaker::fast_fails() const {
  MutexLock lock(mu_);
  return fast_fails_;
}

const char* CircuitBreaker::StateName(State s) {
  switch (s) {
    case State::kClosed:
      return "closed";
    case State::kOpen:
      return "open";
    case State::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

}  // namespace sgnn::common
