// Shared harness of sgnn-bench: wall clock, order statistics, the span
// tracer, output checks and the result line.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into the library's public functions; the library itself is not
// instrumented. With tracing off a `Span` is just a stopwatch.

#ifndef SGNNBENCH_HARNESS_H_
#define SGNNBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sgnnbench {

/// Monotonic wall clock in seconds.
double Now();

/// CPU seconds (user + system) used so far by this process's threads and
/// by its children that have been waited for (the distributed path's
/// worker processes). On a shared host this counts the work a job does,
/// not the time other tenants keep the CPUs from it.
double CpuSeconds();

/// CPU seconds (user + system) used so far by the calling thread.
double ThreadCpuSeconds();

/// Sleeps until `Now() >= t`.
void SleepUntil(double t);

/// Quantile by linear interpolation between order statistics, q in [0, 1].
/// Empty input gives 0.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// One recorded span: `parent` is the id of the span open on the same
/// thread when this one started (-1 at top level).
struct SpanRecord {
  int64_t id = 0;
  int64_t parent = -1;
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span store. Disabled (the default) it records nothing.
class Tracer {
 public:
  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int64_t Open(const char* name, int64_t parent, double start);
  void Close(int64_t id, double end);

  /// Per span name: total duration minus the part covered by child spans.
  std::map<std::string, double> SelfSeconds() const;
  /// Writes spans (with parent links) and the self-time table as JSON.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

Tracer& GlobalTracer();

/// RAII span over a call into one layer. Always measures; records into
/// `GlobalTracer()` only while tracing is enabled. Nested spans on one
/// thread link to their parent.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Seconds since the span opened.
  double Seconds() const { return Now() - start_; }

 private:
  double start_;
  int64_t id_ = -1;
  int64_t parent_ = -1;
};

/// Output checks of one run. A failed check is printed to stderr and makes
/// the run report `"correct": false` and exit non-zero.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool all_passed() const { return failed_ == 0; }

 private:
  int failed_ = 0;
};

/// Ordered metric set printed as the result line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` with every
  /// value printed at full precision.
  std::string ResultJson(bool correct, int64_t attempted,
                         int64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Operations a run attempted and how many of them failed (a pipeline run,
/// a scale-out round, or one scheduled request).
struct OpTally {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Add(const OpTally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

}  // namespace sgnnbench

#endif  // SGNNBENCH_HARNESS_H_
