#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/check.h"
#include "common/posix.h"
#include "obs/json.h"

namespace sgnn::net {

namespace {

/// "localhost" and the dotted-quad loopback are the only names the serving
/// tier binds or dials — no resolver, no DNS dependency, no blocking
/// lookups on the event loop.
common::StatusOr<in_addr> ParseHost(const std::string& host) {
  std::string dotted = (host == "localhost" || host.empty())
                           ? std::string("127.0.0.1")
                           : host;
  in_addr addr{};
  if (::inet_pton(AF_INET, dotted.c_str(), &addr) != 1) {
    return common::Status::InvalidArgument("unparseable IPv4 host '" + host +
                                           "'");
  }
  return addr;
}

/// Nagle off. The tier always writes whole HTTP messages, so coalescing
/// buys nothing — but against delayed ACKs it stalls pipelined small
/// requests ~40ms apiece (the E24 pipeline bench sees the cliff).
common::Status SetNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return common::StatusFromErrno("setsockopt(TCP_NODELAY)");
  }
  return common::Status::OK();
}

common::Status EpollCtl(int epoll_fd, int op, int fd, uint32_t events,
                        uint64_t data, const char* what) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = data;
  if (::epoll_ctl(epoll_fd, op, fd, &ev) < 0) {
    return common::StatusFromErrno(what);
  }
  return common::Status::OK();
}

common::Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return common::StatusFromErrno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return common::StatusFromErrno("fcntl(F_SETFL, O_NONBLOCK)");
  }
  return common::Status::OK();
}

}  // namespace

void OwnedFd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

common::StatusOr<OwnedFd> ListenTcp(const std::string& host, uint16_t* port,
                                    int backlog) {
  SGNN_CHECK(port != nullptr);
  auto addr = ParseHost(host);
  if (!addr.ok()) return addr.status();

  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return common::StatusFromErrno("socket");
  const int one = 1;
  if (::setsockopt(fd.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
      0) {
    return common::StatusFromErrno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr = addr.value();
  sa.sin_port = htons(*port);
  if (::bind(fd.fd(), reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) <
      0) {
    return common::StatusFromErrno("bind " + host);
  }
  if (::listen(fd.fd(), backlog) < 0) {
    return common::StatusFromErrno("listen");
  }
  if (*port == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.fd(), reinterpret_cast<sockaddr*>(&bound), &len) <
        0) {
      return common::StatusFromErrno("getsockname");
    }
    *port = ntohs(bound.sin_port);
  }
  common::Status nb = SetNonBlocking(fd.fd());
  if (!nb.ok()) return nb;
  return fd;
}

common::StatusOr<OwnedFd> ConnectTcp(const std::string& host, uint16_t port) {
  auto addr = ParseHost(host);
  if (!addr.ok()) return addr.status();

  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return common::StatusFromErrno("socket");
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr = addr.value();
  sa.sin_port = htons(port);
  int rc;
  do {
    rc = ::connect(fd.fd(), reinterpret_cast<const sockaddr*>(&sa),
                   sizeof(sa));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    return common::StatusFromErrno("connect " + host + ":" +
                                   obs::NumberText(port));
  }
  common::Status nodelay = SetNoDelay(fd.fd());
  if (!nodelay.ok()) return nodelay;
  return fd;
}

common::StatusOr<OwnedFd> AcceptConn(int listen_fd) {
  int rc;
  do {
    rc = ::accept(listen_fd, nullptr, nullptr);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return common::Status::Unavailable("no pending connection");
    }
    return common::StatusFromErrno("accept");
  }
  OwnedFd fd(rc);
  common::Status nodelay = SetNoDelay(fd.fd());
  if (!nodelay.ok()) return nodelay;
  return fd;
}

common::StatusOr<size_t> RecvSome(int fd, void* buf, size_t capacity) {
  ssize_t n;
  do {
    n = ::recv(fd, buf, capacity, MSG_DONTWAIT);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return common::Status::Unavailable("no bytes ready");
    }
    return common::StatusFromErrno("recv");
  }
  return static_cast<size_t>(n);
}

common::Status SendAll(int fd, const void* buf, size_t n) {
  const char* p = static_cast<const char*>(buf);
  size_t sent = 0;
  while (sent < n) {
    const ssize_t rc = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return common::StatusFromErrno("send");
    }
    sent += static_cast<size_t>(rc);
  }
  return common::Status::OK();
}

common::StatusOr<size_t> SendSome(int fd, const void* buf, size_t n) {
  ssize_t rc;
  do {
    rc = ::send(fd, buf, n, MSG_DONTWAIT | MSG_NOSIGNAL);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return common::StatusFromErrno("send");
  }
  return static_cast<size_t>(rc);
}

common::StatusOr<OwnedFd> EpollCreate() {
  OwnedFd fd(::epoll_create1(0));
  if (!fd.valid()) return common::StatusFromErrno("epoll_create1");
  return fd;
}

common::Status EpollAdd(int epoll_fd, int fd, uint32_t events,
                        uint64_t data) {
  return EpollCtl(epoll_fd, EPOLL_CTL_ADD, fd, events, data, "epoll_ctl(ADD)");
}

common::Status EpollMod(int epoll_fd, int fd, uint32_t events,
                        uint64_t data) {
  return EpollCtl(epoll_fd, EPOLL_CTL_MOD, fd, events, data, "epoll_ctl(MOD)");
}

common::Status EpollDel(int epoll_fd, int fd) {
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr) < 0) {
    return common::StatusFromErrno("epoll_ctl(DEL)");
  }
  return common::Status::OK();
}

common::StatusOr<OwnedFd> WakeFdCreate() {
  OwnedFd fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!fd.valid()) return common::StatusFromErrno("eventfd");
  return fd;
}

void Wake(int wake_fd) {
  while (::eventfd_write(wake_fd, 1) < 0 && errno == EINTR) {
  }
}

void DrainWake(int wake_fd) {
  eventfd_t count = 0;
  while (::eventfd_read(wake_fd, &count) < 0 && errno == EINTR) {
  }
}

common::StatusOr<int> WaitEvents(int epoll_fd, std::vector<ReadyEvent>* out,
                                 int max_events, int timeout_ms) {
  SGNN_CHECK(out != nullptr);
  SGNN_CHECK_GT(max_events, 0);
  out->clear();
  std::vector<epoll_event> events(static_cast<size_t>(max_events));
  const int n = ::epoll_wait(epoll_fd, events.data(), max_events, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return 0;
    return common::StatusFromErrno("epoll_wait");
  }
  out->reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out->push_back(ReadyEvent{events[static_cast<size_t>(i)].data.u64,
                              events[static_cast<size_t>(i)].events});
  }
  return n;
}

}  // namespace sgnn::net
