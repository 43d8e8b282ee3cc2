#include "common/counters.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/thread_annotations.h"

namespace sgnn::common {

namespace {

/// Book-keeping shared by all threads' counter slots. Live slots are listed
/// so `AggregateThreadCounters` can read them; a thread's totals move into
/// `retired` when the thread exits so its work is never lost.
struct CounterRegistry {
  Mutex mu;
  std::vector<const OpCounters*> live SGNN_GUARDED_BY(mu);
  OpCounters retired SGNN_GUARDED_BY(mu);
};

CounterRegistry& Registry() {
  static CounterRegistry* registry = new CounterRegistry();  // Never freed:
  return *registry;  // thread slots may unregister during process teardown.
}

/// One thread's counter instance; registers on first use, retires its
/// totals on thread exit.
struct ThreadCounterSlot {
  OpCounters counters;

  ThreadCounterSlot() {
    CounterRegistry& registry = Registry();
    MutexLock lock(registry.mu);
    registry.live.push_back(&counters);
  }

  ~ThreadCounterSlot() {
    CounterRegistry& registry = Registry();
    MutexLock lock(registry.mu);
    registry.retired.MergeFrom(counters);
    auto it = std::find(registry.live.begin(), registry.live.end(), &counters);
    if (it != registry.live.end()) registry.live.erase(it);
  }
};

}  // namespace

OpCounters& GlobalCounters() {
  thread_local ThreadCounterSlot slot;
  return slot.counters;
}

OpCounters AggregateThreadCounters() {
  CounterRegistry& registry = Registry();
  MutexLock lock(registry.mu);
  OpCounters total = registry.retired;
  for (const OpCounters* c : registry.live) total.MergeFrom(*c);
  return total;
}

std::string OpCounters::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "edges_touched=%llu floats_moved=%llu peak_resident=%llu",
                static_cast<unsigned long long>(edges_touched),
                static_cast<unsigned long long>(floats_moved),
                static_cast<unsigned long long>(peak_resident_floats));
  std::string out(buf);
  // Byte accounting appears once any converted kernel billed it; runs that
  // never touch the simd-substrate kernels keep the historical shape.
  if (bytes_read != 0 || bytes_written != 0) {
    std::snprintf(buf, sizeof(buf), " bytes_read=%llu bytes_written=%llu",
                  static_cast<unsigned long long>(bytes_read),
                  static_cast<unsigned long long>(bytes_written));
    out += buf;
  }
  return out;
}

}  // namespace sgnn::common
