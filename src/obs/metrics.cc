#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/json.h"

namespace sgnn::obs {

namespace {

/// Shortest exact-looking rendering that is still deterministic: integers
/// print without a fraction (the bytes of `%.0f`, so -0 keeps its sign),
/// everything else with 9 significant digits (`%.9g`).
std::string FormatNumber(double v) {
  std::string out;
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.0e15) {
    if (std::signbit(v)) out.push_back('-');
    AppendNumber(&out, static_cast<uint64_t>(std::abs(v)));
  } else {
    AppendNumber(&out, v);
  }
  return out;
}

/// Prometheus label-value / help escaping (backslash, quote, newline).
std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

/// Serialized sorted label set, `k="v",k2="v2"`; the series key within a
/// family and the exact text spliced into the exposition line.
std::string SerializeLabels(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const auto& [key, value] : sorted) {
    SGNN_CHECK(ValidMetricName(key));
    if (!out.empty()) out.push_back(',');
    out += key + "=\"" + Escape(value) + "\"";
  }
  return out;
}

/// `name{labels}` or bare `name`; `extra` is appended inside the braces
/// (the histogram `le` label).
std::string SampleName(const std::string& name, const std::string& labels,
                       const std::string& extra = "") {
  std::string inside = labels;
  if (!extra.empty()) {
    if (!inside.empty()) inside.push_back(',');
    inside += extra;
  }
  if (inside.empty()) return name;
  return name + "{" + inside + "}";
}

/// Re-renders a serialized label key (`k="v",k2="v2"`, values escaped) as a
/// JSON object body (`"k":"v","k2":"v2"`). The input is machine-generated
/// by `SerializeLabels`, so the parse is exact: key up to '=', then a
/// quoted value honouring backslash escapes.
std::string PromLabelsToJson(const std::string& serialized) {
  std::string out;
  size_t i = 0;
  while (i < serialized.size()) {
    if (!out.empty()) out.push_back(',');
    const size_t eq = serialized.find('=', i);
    SGNN_CHECK(eq != std::string::npos);
    out.push_back('"');
    out.append(serialized, i, eq - i);
    out += "\":";
    SGNN_CHECK_EQ(serialized[eq + 1], '"');
    size_t j = eq + 2;
    bool escaped = false;
    while (j < serialized.size()) {
      const char c = serialized[j];
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        break;
      }
      ++j;
    }
    out += serialized.substr(eq + 1, j - eq);  // Includes both quotes.
    i = j + 1;
    if (i < serialized.size() && serialized[i] == ',') ++i;
  }
  return out;
}

}  // namespace

void Gauge::Add(double delta) {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void Gauge::SetMax(double v) {
  double current = value_.load(std::memory_order_relaxed);
  while (current < v && !value_.compare_exchange_weak(
                            current, v, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      counts_(upper_bounds_.size() + 1, 0) {
  SGNN_CHECK(!upper_bounds_.empty());
  for (size_t i = 1; i < upper_bounds_.size(); ++i) {
    SGNN_CHECK_LT(upper_bounds_[i - 1], upper_bounds_[i]);
  }
}

void Histogram::Record(double value) {
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value) -
      upper_bounds_.begin());
  common::MutexLock lock(mu_);
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++counts_[bucket];
  ++count_;
  sum_ += value;
}

HistogramSnapshot Histogram::Snapshot() const {
  common::MutexLock lock(mu_);
  HistogramSnapshot snap;
  snap.upper_bounds = upper_bounds_;
  snap.counts = counts_;
  snap.count = count_;
  snap.sum = sum_;
  snap.min = min_;
  snap.max = max_;
  return snap;
}

uint64_t Histogram::count() const {
  common::MutexLock lock(mu_);
  return count_;
}

double HistogramSnapshot::Percentile(double q) const {
  SGNN_CHECK(q >= 0.0 && q <= 1.0);
  if (count == 0) return 0.0;
  // Rank of the q-th sample (1-based, ceil), clamped into [1, count].
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count))));
  uint64_t seen = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    seen += counts[b];
    if (seen < rank) continue;
    if (b >= upper_bounds.size()) return max;  // Overflow (+Inf) bucket.
    const double lo = b == 0 ? 0.0 : upper_bounds[b - 1];
    const double hi = upper_bounds[b];
    const double mid = lo > 0.0 ? std::sqrt(lo * hi) : hi * 0.5;
    return std::clamp(mid, min, max);
  }
  return max;
}

std::vector<double> ExponentialBuckets(double first_upper, double growth,
                                       int count) {
  SGNN_CHECK_GT(first_upper, 0.0);
  SGNN_CHECK_GT(growth, 1.0);
  SGNN_CHECK_GE(count, 1);
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(count));
  double bound = first_upper;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= growth;
  }
  return bounds;
}

MetricsRegistry::Family& MetricsRegistry::FamilyFor(const std::string& name,
                                                   const std::string& help,
                                                   Type type,
                                                   Volatility volatility) {
  SGNN_CHECK(ValidMetricName(name));
  auto [it, inserted] = families_.try_emplace(name);
  Family& family = it->second;
  if (inserted) {
    family.type = type;
    family.help = help;
    family.volatility = volatility;
  } else {
    // A family's identity is fixed by its first registration.
    SGNN_CHECK(family.type == type);
    SGNN_CHECK(family.volatility == volatility);
  }
  return family;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const Labels& labels,
                                     Volatility volatility) {
  const std::string key = SerializeLabels(labels);
  common::MutexLock lock(mu_);
  Family& family = FamilyFor(name, help, Type::kCounter, volatility);
  auto& slot = family.counters[key];
  if (slot == nullptr) slot.reset(new Counter());
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help, const Labels& labels,
                                 Volatility volatility) {
  const std::string key = SerializeLabels(labels);
  common::MutexLock lock(mu_);
  Family& family = FamilyFor(name, help, Type::kGauge, volatility);
  auto& slot = family.gauges[key];
  if (slot == nullptr) slot.reset(new Gauge());
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> upper_bounds,
                                         const Labels& labels,
                                         Volatility volatility) {
  const std::string key = SerializeLabels(labels);
  common::MutexLock lock(mu_);
  Family& family = FamilyFor(name, help, Type::kHistogram, volatility);
  if (family.upper_bounds.empty()) {
    family.upper_bounds = std::move(upper_bounds);
  }
  auto& slot = family.histograms[key];
  if (slot == nullptr) slot.reset(new Histogram(family.upper_bounds));
  return slot.get();
}

void MetricsRegistry::SetOpCounterGauges(const std::string& prefix,
                                         const std::string& help,
                                         const Labels& labels,
                                         const common::OpCounters& counters,
                                         Volatility volatility) {
  GetGauge(prefix + "_edges_touched", help + " (edges touched)", labels,
           volatility)
      ->Set(static_cast<double>(counters.edges_touched));
  GetGauge(prefix + "_floats_moved", help + " (feature scalars moved)", labels,
           volatility)
      ->Set(static_cast<double>(counters.floats_moved));
  GetGauge(prefix + "_kernel_bytes_read", help + " (kernel bytes read)",
           labels, volatility)
      ->Set(static_cast<double>(counters.bytes_read));
  GetGauge(prefix + "_kernel_bytes_written", help + " (kernel bytes written)",
           labels, volatility)
      ->Set(static_cast<double>(counters.bytes_written));
  GetGauge(prefix + "_peak_resident_floats",
           help + " (peak resident feature scalars)", labels, volatility)
      ->Set(static_cast<double>(counters.peak_resident_floats));
  GetGauge(prefix + "_resident_floats", help + " (resident feature scalars)",
           labels, volatility)
      ->Set(static_cast<double>(counters.resident_floats));
}

std::string MetricsRegistry::PrometheusText(bool include_volatile) const {
  common::MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    if (!include_volatile && family.volatility == kVolatile) continue;
    out += "# HELP " + name + " " + Escape(family.help) + "\n";
    switch (family.type) {
      case Type::kCounter: {
        out += "# TYPE " + name + " counter\n";
        for (const auto& [labels, counter] : family.counters) {
          out += SampleName(name, labels) + " " +
                 NumberText(counter->value()) + "\n";
        }
        break;
      }
      case Type::kGauge: {
        out += "# TYPE " + name + " gauge\n";
        for (const auto& [labels, gauge] : family.gauges) {
          out +=
              SampleName(name, labels) + " " + FormatNumber(gauge->value()) +
              "\n";
        }
        break;
      }
      case Type::kHistogram: {
        out += "# TYPE " + name + " histogram\n";
        for (const auto& [labels, histogram] : family.histograms) {
          const HistogramSnapshot snap = histogram->Snapshot();
          uint64_t cumulative = 0;
          for (size_t b = 0; b < snap.upper_bounds.size(); ++b) {
            cumulative += snap.counts[b];
            out += SampleName(name + "_bucket", labels,
                              "le=\"" + FormatNumber(snap.upper_bounds[b]) +
                                  "\"") +
                   " " + NumberText(cumulative) + "\n";
          }
          out += SampleName(name + "_bucket", labels, "le=\"+Inf\"") + " " +
                 NumberText(snap.count) + "\n";
          out += SampleName(name + "_sum", labels) + " " +
                 FormatNumber(snap.sum) + "\n";
          out += SampleName(name + "_count", labels) + " " +
                 NumberText(snap.count) + "\n";
        }
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::JsonText(bool include_volatile) const {
  common::MutexLock lock(mu_);
  std::string counters, gauges, histograms;
  auto append = [](std::string* dst, const std::string& item) {
    if (!dst->empty()) dst->push_back(',');
    *dst += item;
  };
  for (const auto& [name, family] : families_) {
    if (!include_volatile && family.volatility == kVolatile) continue;
    // The serialized label key is already sorted; re-render it as JSON by
    // walking the per-series maps (sorted by that key).
    switch (family.type) {
      case Type::kCounter:
        for (const auto& [labels, counter] : family.counters) {
          append(&counters, "{\"name\":\"" + name + "\",\"labels\":{" +
                                PromLabelsToJson(labels) + "},\"value\":" +
                                NumberText(counter->value()) + "}");
        }
        break;
      case Type::kGauge:
        for (const auto& [labels, gauge] : family.gauges) {
          append(&gauges, "{\"name\":\"" + name + "\",\"labels\":{" +
                              PromLabelsToJson(labels) + "},\"value\":" +
                              FormatNumber(gauge->value()) + "}");
        }
        break;
      case Type::kHistogram:
        for (const auto& [labels, histogram] : family.histograms) {
          const HistogramSnapshot snap = histogram->Snapshot();
          std::string buckets;
          uint64_t cumulative = 0;
          for (size_t b = 0; b < snap.upper_bounds.size(); ++b) {
            cumulative += snap.counts[b];
            append(&buckets, "{\"le\":" + FormatNumber(snap.upper_bounds[b]) +
                                 ",\"count\":" + NumberText(cumulative) +
                                 "}");
          }
          append(&buckets, "{\"le\":\"+Inf\",\"count\":" +
                               NumberText(snap.count) + "}");
          append(&histograms,
                 "{\"name\":\"" + name + "\",\"labels\":{" +
                     PromLabelsToJson(labels) +
                     "},\"count\":" + NumberText(snap.count) +
                     ",\"sum\":" + FormatNumber(snap.sum) +
                     ",\"buckets\":[" + buckets + "]}");
        }
        break;
    }
  }
  return "{\"counters\":[" + counters + "],\"gauges\":[" + gauges +
         "],\"histograms\":[" + histograms + "]}";
}

size_t MetricsRegistry::NumSeries() const {
  common::MutexLock lock(mu_);
  size_t n = 0;
  for (const auto& [name, family] : families_) {
    (void)name;
    n += family.counters.size() + family.gauges.size() +
         family.histograms.size();
  }
  return n;
}

}  // namespace sgnn::obs
