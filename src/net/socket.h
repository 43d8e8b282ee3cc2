#ifndef SGNN_NET_SOCKET_H_
#define SGNN_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sgnn::net {

/// `sgnn::net` socket substrate: every socket, accept, connect, and epoll
/// syscall in the tree lives in this module (lint-enforced, the same
/// confinement `src/dist/` has for fork/pipe). Errors map through
/// `common::StatusFromErrno`, so callers branch on `StatusCode` — a reset
/// peer is `kUnavailable`, an exhausted fd table `kResourceExhausted` —
/// never on platform errno values.

/// Move-only owner of a file descriptor; closes on destruction. `-1` =
/// empty. The serving tier passes these instead of raw ints so an early
/// return can never leak a connection.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  OwnedFd(OwnedFd&& other) noexcept : fd_(other.release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.release();
    }
    return *this;
  }
  ~OwnedFd() { Close(); }

  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Relinquishes ownership without closing.
  int release() { return std::exchange(fd_, -1); }

  /// Closes now (idempotent; the destructor calls it too).
  void Close();

 private:
  int fd_ = -1;
};

/// Creates a TCP listening socket bound to `host:*port` (IPv4 dotted quad
/// or "localhost"), `SO_REUSEADDR` set, non-blocking, backlog applied.
/// `*port == 0` picks an ephemeral port and writes the chosen one back —
/// how tests and benches avoid port collisions.
SGNN_NODISCARD common::StatusOr<OwnedFd> ListenTcp(const std::string& host,
                                                   uint16_t* port,
                                                   int backlog = 128);

/// Blocking TCP connect to `host:port`. The returned socket stays blocking
/// (the client side reads whole responses; only the server multiplexes).
SGNN_NODISCARD common::StatusOr<OwnedFd> ConnectTcp(const std::string& host,
                                                    uint16_t port);

/// Accepts one pending connection from a non-blocking listener. The
/// accepted socket is left blocking. `kUnavailable` when no connection is
/// pending (`EAGAIN`) — the accept loop's "drained" signal.
SGNN_NODISCARD common::StatusOr<OwnedFd> AcceptConn(int listen_fd);

/// Reads whatever is available on `fd` (up to `capacity`) without
/// blocking. Returns the byte count — 0 means the peer closed its end —
/// or `kUnavailable` when nothing is ready (`EAGAIN` on a spurious epoll
/// wakeup).
SGNN_NODISCARD common::StatusOr<size_t> RecvSome(int fd, void* buf,
                                                 size_t capacity);

/// Writes all `n` bytes to a socket, retrying on `EINTR` and short sends.
/// Uses `MSG_NOSIGNAL`, so a dead peer is `kUnavailable` via `EPIPE`
/// rather than a process-wide `SIGPIPE`.
SGNN_NODISCARD common::Status SendAll(int fd, const void* buf, size_t n);

/// Writes as much of the `n` bytes as the socket takes now, without
/// blocking. Returns the byte count — 0 when the send buffer is full
/// (`EAGAIN`) — or, like `SendAll`, `kUnavailable` for a dead peer.
SGNN_NODISCARD common::StatusOr<size_t> SendSome(int fd, const void* buf,
                                                 size_t n);

/// Thin epoll wrappers; `data` round-trips through
/// `epoll_event.data.u64` (the front door stores connection cookies
/// there).
SGNN_NODISCARD common::StatusOr<OwnedFd> EpollCreate();
SGNN_NODISCARD common::Status EpollAdd(int epoll_fd, int fd, uint32_t events,
                                       uint64_t data);
/// Replaces the event mask and data of an fd already added.
SGNN_NODISCARD common::Status EpollMod(int epoll_fd, int fd, uint32_t events,
                                       uint64_t data);
SGNN_NODISCARD common::Status EpollDel(int epoll_fd, int fd);

/// A non-blocking eventfd that lets another thread wake a `WaitEvents`
/// caller: add it to the epoll set with EPOLLIN, `Wake` it from any
/// thread, and `DrainWake` it on the waiting side once it fires.
SGNN_NODISCARD common::StatusOr<OwnedFd> WakeFdCreate();
/// Makes `wake_fd` readable. Never blocks; a saturated counter is already
/// readable.
void Wake(int wake_fd);
/// Resets `wake_fd`'s counter, so it stops reporting readable.
void DrainWake(int wake_fd);

/// One ready event out of `WaitEvents`.
struct ReadyEvent {
  uint64_t data = 0;
  uint32_t events = 0;
};

/// Waits up to `timeout_ms` for readiness, appending up to `max_events`
/// entries to `out` (cleared first). Returns the event count; 0 on
/// timeout. `EINTR` is absorbed as a 0-event wait.
SGNN_NODISCARD common::StatusOr<int> WaitEvents(int epoll_fd,
                                                std::vector<ReadyEvent>* out,
                                                int max_events,
                                                int timeout_ms);

}  // namespace sgnn::net

#endif  // SGNN_NET_SOCKET_H_
