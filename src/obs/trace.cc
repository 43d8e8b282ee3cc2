#include "obs/trace.h"

#include <algorithm>

#include "common/check.h"
#include "obs/json.h"

namespace sgnn::obs {

TraceSpan::TraceSpan(Tracer* tracer, std::string name, std::string category)
    : tracer_(tracer), name_(std::move(name)), category_(std::move(category)) {
  track_ = tracer_->TrackId();
  begin_tick_ = tracer_->Tick();
}

TraceSpan& TraceSpan::operator=(TraceSpan&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    name_ = std::move(other.name_);
    category_ = std::move(other.category_);
    begin_tick_ = other.begin_tick_;
    track_ = other.track_;
    other.tracer_ = nullptr;
  }
  return *this;
}

void TraceSpan::End() {
  if (tracer_ == nullptr) return;
  TraceEvent event;
  event.name = std::move(name_);
  event.category = std::move(category_);
  event.begin_tick = begin_tick_;
  event.end_tick = tracer_->Tick();
  event.track = track_;
  tracer_->Record(std::move(event));
  tracer_ = nullptr;
}

Tracer::Tracer(int num_shards) {
  SGNN_CHECK_GE(num_shards, 1);
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

TraceSpan Tracer::Span(std::string name, std::string category) {
  return TraceSpan(this, std::move(name), std::move(category));
}

int Tracer::TrackId() {
  // One-entry per-thread cache: the common case is one tracer per run, so
  // the mutex is touched once per (thread, tracer) pair. A thread that
  // alternates between tracers re-registers on each switch and gets a new
  // track each time — cosmetic (an extra viewer lane), never incorrect.
  thread_local const Tracer* cached_tracer = nullptr;
  thread_local int cached_track = 0;
  if (cached_tracer != this) {
    common::MutexLock lock(track_mu_);
    cached_track = next_track_++;
    cached_tracer = this;
  }
  return cached_track;
}

void Tracer::Record(TraceEvent event) {
  Shard& shard =
      *shards_[static_cast<size_t>(event.track) % shards_.size()];
  common::MutexLock lock(shard.mu);
  shard.events.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> merged;
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    merged.insert(merged.end(), shard->events.begin(), shard->events.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.begin_tick < b.begin_tick;
            });
  return merged;
}

uint64_t Tracer::NumEvents() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) {
    common::MutexLock lock(shard->mu);
    n += shard->events.size();
  }
  return n;
}

std::string Tracer::ChromeTraceJson() const {
  const std::vector<TraceEvent> events = Events();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out.push_back(',');
    first = false;
    out += "\n{\"name\":\"";
    AppendJsonEscaped(&out, event.name);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(&out, event.category.empty()
                                ? std::string_view("default")
                                : std::string_view(event.category));
    out += "\",\"ph\":\"X\",\"pid\":0,\"tid\":";
    AppendNumber(&out, event.track);
    out += ",\"ts\":";
    AppendNumber(&out, event.begin_tick);
    out += ",\"dur\":";
    AppendNumber(&out, event.end_tick - event.begin_tick);
    out += '}';
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace sgnn::obs
