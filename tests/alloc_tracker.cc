#include "alloc_tracker.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<size_t> g_largest{0};

void* TrackedAlloc(size_t n, size_t align) {
  if (n > sgnn::alloc_tracker::kCap) throw std::bad_alloc();
  size_t seen = g_largest.load(std::memory_order_relaxed);
  while (n > seen &&
         !g_largest.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
  }
  const size_t bytes = std::max<size_t>(n, 1);
  void* p = align == 0 ? std::malloc(bytes)
                       : std::aligned_alloc(
                             align, (bytes + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* TrackedAllocNoThrow(size_t n, size_t align) noexcept {
  try {
    return TrackedAlloc(n, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

namespace sgnn::alloc_tracker {

void ResetLargest() { g_largest.store(0, std::memory_order_relaxed); }

size_t Largest() { return g_largest.load(std::memory_order_relaxed); }

}  // namespace sgnn::alloc_tracker

// Every replaceable form, so no allocation bypasses the tracker and every
// block returns to the allocator it came from.
void* operator new(size_t n) { return TrackedAlloc(n, 0); }
void* operator new[](size_t n) { return TrackedAlloc(n, 0); }
void* operator new(size_t n, std::align_val_t a) {
  return TrackedAlloc(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, std::align_val_t a) {
  return TrackedAlloc(n, static_cast<size_t>(a));
}
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return TrackedAllocNoThrow(n, 0);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return TrackedAllocNoThrow(n, 0);
}
void* operator new(size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return TrackedAllocNoThrow(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return TrackedAllocNoThrow(n, static_cast<size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
