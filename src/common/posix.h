#ifndef SGNN_COMMON_POSIX_H_
#define SGNN_COMMON_POSIX_H_

#include <cstddef>
#include <span>
#include <string>

#include "common/fault.h"
#include "common/status.h"

namespace sgnn::common {

/// Maps an errno value onto the library's `StatusCode` taxonomy and renders
/// `prefix + ": " + strerror(err)`. Every syscall failure in the tree goes
/// through this so that callers can branch on codes instead of parsing
/// platform-specific message strings:
///
///   ENOENT                      -> kNotFound
///   EPIPE/ECONNRESET/ECONNREFUSED -> kUnavailable (peer gone; retryable)
///   ETIMEDOUT                   -> kDeadlineExceeded
///   ENOSPC/ENOMEM/EMFILE/ENFILE -> kResourceExhausted
///   EACCES/EPERM                -> kFailedPrecondition
///   EINVAL/EBADF                -> kInvalidArgument
///   anything else               -> kIOError
SGNN_NODISCARD Status StatusFromErrno(const std::string& prefix, int err);

/// Overload reading the calling thread's current `errno`.
SGNN_NODISCARD Status StatusFromErrno(const std::string& prefix);

/// Reads exactly `n` bytes from `fd` into `buf`, retrying on `EINTR` and
/// continuing across short reads. Unless `deadline` is infinite, each
/// blocking wait is a `poll` bounded by what remains of it, and an expired
/// deadline is `kDeadlineExceeded`. On end-of-stream before `n` bytes the
/// status is `kDataLoss` ("unexpected EOF after X/N bytes"); other failures
/// map through `StatusFromErrno`. If `bytes_read` is non-null it receives
/// the number of bytes actually consumed (also on failure), which lets a
/// framing layer distinguish a clean close (0 bytes) from a torn frame.
SGNN_NODISCARD Status ReadFull(int fd, void* buf, std::size_t n,
                               const Deadline& deadline,
                               std::size_t* bytes_read = nullptr);

/// One buffer of a gathering write; `data` may be null when `size` is 0.
struct ConstBuffer {
  const void* data = nullptr;
  std::size_t size = 0;
};

/// Writes every byte of `bufs` to `fd`, in order, as if they were one
/// buffer, with `writev`: no copy joins them. Retries on `EINTR`, resumes
/// after a short write, also one that ends inside a buffer, and on a
/// non-blocking `fd` waits for room instead of failing with `EAGAIN`.
/// `EPIPE` surfaces as `kUnavailable` via `StatusFromErrno` (callers must
/// have SIGPIPE ignored or blocked).
SGNN_NODISCARD Status WriteFullV(int fd, std::span<const ConstBuffer> bufs);

/// `WriteFullV` of the one buffer of `n` bytes at `buf`.
SGNN_NODISCARD Status WriteFull(int fd, const void* buf, std::size_t n);

}  // namespace sgnn::common

#endif  // SGNN_COMMON_POSIX_H_
