#include "common/posix.h"

#include <poll.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>

namespace sgnn::common {

Status StatusFromErrno(const std::string& prefix, int err) {
  // std::system_category().message() is thread-safe, unlike strerror().
  std::string msg = prefix + ": " + std::system_category().message(err);
  switch (err) {
    case ENOENT:
      return Status::NotFound(std::move(msg));
    case EPIPE:
    case ECONNRESET:
    case ECONNREFUSED:
      return Status::Unavailable(std::move(msg));
    case ETIMEDOUT:
      return Status::DeadlineExceeded(std::move(msg));
    case ENOSPC:
    case ENOMEM:
    case EMFILE:
    case ENFILE:
      return Status::ResourceExhausted(std::move(msg));
    case EACCES:
    case EPERM:
      return Status::FailedPrecondition(std::move(msg));
    case EINVAL:
    case EBADF:
      return Status::InvalidArgument(std::move(msg));
    default:
      return Status::IOError(std::move(msg));
  }
}

Status StatusFromErrno(const std::string& prefix) {
  return StatusFromErrno(prefix, errno);
}

Status ReadFull(int fd, void* buf, std::size_t n, const Deadline& deadline,
                std::size_t* bytes_read) {
  char* p = static_cast<char*>(buf);
  std::size_t done = 0;
  auto stop = [&done, bytes_read](Status status) {
    if (bytes_read != nullptr) *bytes_read = done;
    return status;
  };
  while (done < n) {
    if (!deadline.infinite()) {
      const int64_t remaining = deadline.remaining_micros();
      if (remaining <= 0) {
        return stop(Status::DeadlineExceeded(
            "read deadline expired after " + std::to_string(done) + "/" +
            std::to_string(n) + " bytes"));
      }
      pollfd pfd{fd, POLLIN, 0};
      const int timeout_ms = static_cast<int>(
          std::min<int64_t>((remaining + 999) / 1000, 60'000));
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return stop(StatusFromErrno("poll failed"));
      }
      if (ready == 0) continue;  // Re-check the deadline, poll again.
    }
    const ssize_t got = ::read(fd, p + done, n - done);
    if (got < 0) {
      if (errno == EINTR) continue;
      return stop(StatusFromErrno("read failed"));
    }
    if (got == 0) {
      return stop(Status::DataLoss("unexpected EOF after " +
                                   std::to_string(done) + "/" +
                                   std::to_string(n) + " bytes"));
    }
    done += static_cast<std::size_t>(got);
  }
  return stop(Status::OK());
}

Status WriteFullV(int fd, std::span<const ConstBuffer> bufs) {
  // bufs[i] is the first buffer with bytes left, `skip` of them written.
  std::size_t i = 0;
  std::size_t skip = 0;
  for (;;) {
    while (i < bufs.size() && skip == bufs[i].size) {
      ++i;
      skip = 0;
    }
    if (i == bufs.size()) return Status::OK();
    constexpr int kMaxIov = 16;
    iovec iov[kMaxIov];
    int count = 0;
    for (std::size_t j = i; j < bufs.size() && count < kMaxIov; ++j) {
      const std::size_t from = j == i ? skip : 0;
      if (bufs[j].size == from) continue;
      iov[count].iov_base =
          const_cast<char*>(static_cast<const char*>(bufs[j].data) + from);
      iov[count].iov_len = bufs[j].size - from;
      ++count;
    }
    const ssize_t put = ::writev(fd, iov, count);
    if (put < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // A non-blocking descriptor is full: wait for room, then resume.
        pollfd pfd{fd, POLLOUT, 0};
        if (::poll(&pfd, 1, -1) >= 0 || errno == EINTR) continue;
      }
      return StatusFromErrno("write failed");
    }
    for (auto left = static_cast<std::size_t>(put); left > 0;) {
      const std::size_t step = std::min(left, bufs[i].size - skip);
      left -= step;
      skip += step;
      if (skip == bufs[i].size) {
        ++i;
        skip = 0;
      }
    }
  }
}

Status WriteFull(int fd, const void* buf, std::size_t n) {
  const ConstBuffer one{buf, n};
  return WriteFullV(fd, {&one, 1});
}

}  // namespace sgnn::common
