#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace sgnnbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    if (getrusage(who, &usage) != 0) continue;
    for (const timeval& tv : {usage.ru_utime, usage.ru_stime}) {
      total += static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    }
  }
  return total;
}

double ThreadCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void SleepUntil(double t) {
  const double wait = t - Now();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return 0.0;
}

int64_t Tracer::Open(const char* name, int64_t parent, double start) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back({id, parent, name, start, start});
  return id;
}

void Tracer::Close(int64_t id, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = end;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self(spans_.size());
  for (const SpanRecord& s : spans_) {
    self[static_cast<size_t>(s.id)] += s.end - s.start;
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end - s.start;
  }
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans_) out[s.name] += self[static_cast<size_t>(s.id)];
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::map<std::string, double> self = SelfSeconds();
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  char buf[256];
  out << "{\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"id\":%lld,\"parent\":%lld,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"dur_us\":%.3f}",
                  i ? "," : "", static_cast<long long>(s.id),
                  static_cast<long long>(s.parent), s.name.c_str(),
                  (s.start - t0) * 1e6, (s.end - s.start) * 1e6);
    out << buf;
  }
  out << "],\"self_seconds\":{";
  bool first = true;
  for (const auto& [name, seconds] : self) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.9g", first ? "" : ",",
                  name.c_str(), seconds);
    out << buf;
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

Tracer& GlobalTracer() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

namespace {
thread_local std::vector<int64_t> open_spans;
}  // namespace

Span::Span(const char* name) : start_(Now()) {
  Tracer& tracer = GlobalTracer();
  if (!tracer.enabled()) return;
  parent_ = open_spans.empty() ? -1 : open_spans.back();
  id_ = tracer.Open(name, parent_, start_);
  open_spans.push_back(id_);
}

Span::~Span() {
  if (id_ < 0) return;
  GlobalTracer().Close(id_, Now());
  open_spans.pop_back();
}

void Checks::Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "sgnn-bench: check failed: %s\n", what.c_str());
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  items_.push_back({name, {value, unit}});
}

std::string Metrics::ResultJson(bool correct, int64_t attempted,
                                int64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char buf[512];
  for (size_t i = 0; i < items_.size(); ++i) {
    const auto& [name, value_unit] = items_[i];
    const double v = std::isfinite(value_unit.first) ? value_unit.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", name.c_str(), v, value_unit.second.c_str());
    out << buf;
  }
  out << "}}";
  return out.str();
}

}  // namespace sgnnbench
