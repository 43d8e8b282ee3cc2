// One counting replacement of every global operator new and delete form,
// for the test binaries that watch their allocations. A binary that links
// alloc_tracker.cc sends each request through it: a request above `kCap`
// throws std::bad_alloc, so a size forged past a decoder's checks fails
// its case instead of exhausting the machine, and the largest single
// request since the last `ResetLargest` is recorded, across all threads.

#ifndef SGNN_TESTS_ALLOC_TRACKER_H_
#define SGNN_TESTS_ALLOC_TRACKER_H_

#include <cstddef>

namespace sgnn::alloc_tracker {

/// Requests above this many bytes throw std::bad_alloc.
inline constexpr size_t kCap = size_t{1} << 30;

/// Forgets the largest request seen so far.
void ResetLargest();

/// The largest single request, in bytes, since the last `ResetLargest`.
size_t Largest();

}  // namespace sgnn::alloc_tracker

#endif  // SGNN_TESTS_ALLOC_TRACKER_H_
