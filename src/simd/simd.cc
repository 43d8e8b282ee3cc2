#include "simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "simd/kernels.h"

namespace sgnn::simd {

namespace {

/// Process-wide dispatch state: the active table pointer, swapped whole so
/// a reader never sees a half-updated backend. First use resolves the
/// environment and the CPU probe exactly once.
struct SimdState {
  bool supported = false;
  std::atomic<const KernelTable*> active{nullptr};

  SimdState() {
    supported = internal::Avx2Table() != nullptr &&
                internal::CpuHasAvx2FmaPclmul();
    const bool want =
        SimdFromEnv(std::getenv("SGNN_SIMD"), /*fallback=*/true);
    active.store((want && supported) ? internal::Avx2Table()
                                     : &internal::ScalarTable(),
                 std::memory_order_release);
  }
};

SimdState& State() {
  static SimdState state;
  return state;
}

}  // namespace

bool SimdFromEnv(const char* value, bool fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  // Case-insensitive match against the disable spellings.
  char lower[8] = {0};
  size_t n = std::strlen(value);
  if (n >= sizeof(lower)) return true;
  for (size_t i = 0; i < n; ++i) {
    lower[i] = static_cast<char>(
        (value[i] >= 'A' && value[i] <= 'Z') ? value[i] - 'A' + 'a'
                                             : value[i]);
  }
  return std::strcmp(lower, "off") != 0 && std::strcmp(lower, "0") != 0 &&
         std::strcmp(lower, "false") != 0 && std::strcmp(lower, "scalar") != 0;
}

bool Supported() { return State().supported; }

bool Enabled() {
  SimdState& state = State();
  return state.active.load(std::memory_order_acquire) !=
         &internal::ScalarTable();
}

bool SetEnabled(bool on) {
  SimdState& state = State();
  const KernelTable* next = (on && state.supported)
                                ? internal::Avx2Table()
                                : &internal::ScalarTable();
  return state.active.exchange(next, std::memory_order_acq_rel) !=
         &internal::ScalarTable();
}

const KernelTable& Active() {
  return *State().active.load(std::memory_order_acquire);
}

}  // namespace sgnn::simd
