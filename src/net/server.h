#ifndef SGNN_NET_SERVER_H_
#define SGNN_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "common/fault.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/run_context.h"
#include "net/http.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/batching_server.h"

namespace sgnn::net {

/// Fault-injection sites observed by the front door (deterministic token
/// triggers, the replayable style `dist/frame.h` uses):
///  - `net.accept.fail` (token = 0-based accept sequence number): the
///    accepted connection is dropped on the floor, as a listener hitting
///    fd exhaustion would.
///  - `net.read.trunc` (token = `ReadToken(conn, read)`): the connection's
///    stream is torn mid-read — half the received bytes are delivered,
///    then the connection closes as if the peer died. Feeds the
///    `/healthz` torn-read counter.
inline constexpr char kSiteAcceptFail[] = "net.accept.fail";
inline constexpr char kSiteReadTrunc[] = "net.read.trunc";

/// Order-independent fault token for read number `read_seq` (0-based) on
/// connection `conn_id` (0-based accept order).
constexpr uint64_t ReadToken(uint64_t conn_id, uint64_t read_seq) {
  return (conn_id << 20) | (read_seq & ((uint64_t{1} << 20) - 1));
}

/// Tuning of the HTTP front door.
struct HttpFrontDoorConfig {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; `Start` writes the chosen port into `port()`.
  uint16_t port = 0;
  /// Multi-tenant admission: quotas, DWRR weights, shed policy.
  serve::AdmissionConfig admission;
  HttpLimits http_limits;
  /// `/healthz` turns 503 after this many consecutive torn reads
  /// (`kDataLoss` stream endings); any successfully parsed request resets
  /// the streak.
  int torn_read_threshold = 3;
};

/// The epoll HTTP/1.1 front door of the serving tier. Three endpoints:
///
///   POST /v1/infer   {"node":N,"tenant":"t","deadline_micros":D}
///   GET  /metrics    Prometheus text exposition of the shared registry
///   GET  /healthz    "ok" (200) or the reason it is not (503)
///
/// One event-loop thread is the tier's only I/O thread: it accepts, reads,
/// parses, `Offer`s each infer to the `serve::AdmissionQueue` (token-bucket
/// quota, shed tier), and at the end of every iteration drains admission
/// deficit-weighted-fair into `BatchingServer::Submit`. The serving worker
/// that resolves a request renders its JSON into the connection's response
/// slot and, when that slot is the connection's oldest, arms EPOLLOUT. The
/// loop then writes the ready slots *in request order per connection*
/// (HTTP/1.1 pipelining) with non-blocking sends, so a slow infer holds
/// back only the slots behind it on its own connection, and a peer that
/// stops reading is closed once 4 MiB of answers wait for it.
/// Load shedding degrades exact → stale → reject as the serving breaker
/// opens and the admission queues fill.
///
/// The front door owns only the sockets; the model, cache, and breaker
/// stay in the `BatchingServer` it fronts. Shut down the front door
/// before the server: `Shutdown` drains admission and answers every
/// accepted request.
class HttpFrontDoor {
 public:
  /// `server` must outlive the front door. `ctx.metrics` is where the
  /// `sgnn_net_*` series land and what `/metrics` serves (falls back to a
  /// private registry); `ctx.tracer` receives `net:` spans; `ctx.faults`
  /// is consulted at the `net.*` sites above.
  HttpFrontDoor(serve::BatchingServer* server, HttpFrontDoorConfig config,
                const core::RunContext& ctx = core::RunContext());
  ~HttpFrontDoor();

  HttpFrontDoor(const HttpFrontDoor&) = delete;
  HttpFrontDoor& operator=(const HttpFrontDoor&) = delete;

  /// Binds, listens, and starts the event loop. Errors (port in use, fd
  /// exhaustion) surface here.
  SGNN_NODISCARD common::Status Start();

  /// Closes admission, waits until every admitted request is answered,
  /// stops the event loop after a last pass that writes what each socket
  /// takes without blocking, and closes all connections. Idempotent; the
  /// destructor calls it.
  void Shutdown();

  /// The bound port (valid after `Start`).
  uint16_t port() const { return port_; }

  /// The admission stage, exposed for tests and benches (pause/resume,
  /// dispatch log).
  serve::AdmissionQueue& admission() { return admission_; }

  /// The `/healthz` verdict: true while the shed tier is `kExact` and the
  /// torn-read streak is under threshold.
  bool Healthy() const;

 private:
  /// One pipelined response slot; responses are written strictly in
  /// request order per connection.
  struct Slot {
    uint64_t seq = 0;
    bool ready = false;
    std::string bytes;
  };

  struct Conn {
    Conn(uint64_t id_in, const HttpLimits& limits)
        : id(id_in), parser(limits) {}
    const uint64_t id;
    /// The socket. Only the event loop reads, writes or closes it (it
    /// closes it under `mu`; `Shutdown` closes what is left once the loop
    /// has stopped). `FillSlot` arms EPOLLOUT under `mu` only while it is
    /// still open, so a late answer never arms an fd number that a newer
    /// connection now holds.
    // sgnn-lint: allow(lock/unannotated-field): closed only by the event
    // loop, under mu; other threads touch it only under mu.
    OwnedFd fd;
    // sgnn-lint: allow(lock/unannotated-field): fed and drained only by
    // the event-loop thread.
    HttpRequestParser parser;
    /// Per-conn read counter feeding `ReadToken`.
    // sgnn-lint: allow(lock/unannotated-field): event-loop thread only.
    uint64_t reads = 0;
    /// Ready answers taken from `slots` that the socket has not taken yet.
    // sgnn-lint: allow(lock/unannotated-field): event-loop thread only.
    std::string out;
    common::Mutex mu;
    std::deque<Slot> slots SGNN_GUARDED_BY(mu);
    uint64_t next_seq SGNN_GUARDED_BY(mu) = 0;
    /// Bytes of filled slots and of `out` not yet sent.
    std::atomic<size_t> unsent{0};
    /// Whether EPOLLOUT is armed on `fd`.
    bool out_armed SGNN_GUARDED_BY(mu) = false;
  };

  /// The connection registry; its own lock scope so lookups from serving
  /// workers never contend with anything but accept/close.
  struct ConnTable {
    mutable common::Mutex mu;
    std::map<uint64_t, std::shared_ptr<Conn>> map SGNN_GUARDED_BY(mu);
  };

  void EventLoop();
  /// Drains admission into `BatchingServer::Submit`, deficit-weighted-fair.
  void Dispatch();

  void HandleAcceptable();
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  /// Moves the ready in-order prefix of `conn->slots` into `conn->out`,
  /// sends what the socket takes, and disarms EPOLLOUT once nothing is
  /// left.
  void HandleWritable(const std::shared_ptr<Conn>& conn);
  void HandleRequest(const std::shared_ptr<Conn>& conn, HttpRequest request);
  void HandleInfer(uint64_t cookie, const HttpRequest& request);
  std::string MetricsBody();
  std::string HealthzBody(int* http_status);

  /// Reserves the next in-order response slot on `conn`; returns the
  /// cookie that routes the response back to it.
  uint64_t ReserveSlot(const std::shared_ptr<Conn>& conn);
  /// Serialises one answer into the slot `cookie` names, counting codes
  /// >= 400 in `sgnn_net_http_errors_total`. Safe from any thread.
  void Answer(uint64_t cookie, int code, std::string_view body,
              std::string_view content_type);
  /// Fills the slot `cookie` names and, when that makes the connection's
  /// oldest slot ready, arms EPOLLOUT. Safe from any thread; a vanished
  /// connection drops the bytes.
  void FillSlot(uint64_t cookie, std::string bytes);
  /// Closes and forgets a connection; `torn` feeds the healthz streak.
  /// Event-loop thread only.
  void CloseConn(const std::shared_ptr<Conn>& conn, bool torn);

  serve::BatchingServer* const server_;
  const HttpFrontDoorConfig config_;
  obs::Tracer* const tracer_;
  common::FaultInjector* const faults_;
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* const registry_;

  serve::AdmissionQueue admission_;

  OwnedFd listen_fd_;
  OwnedFd epoll_fd_;
  /// In the epoll set; written by `Shutdown` and by answers after it.
  OwnedFd wake_fd_;
  uint16_t port_ = 0;

  ConnTable conns_;
  std::atomic<uint64_t> next_conn_id_{0};

  /// Infers counted in before their `Offer` and out once their slot is
  /// filled or the offer is refused. Once `Shutdown` begins, the loop runs
  /// until it reads zero here.
  std::atomic<int64_t> unanswered_{0};

  std::atomic<uint64_t> accepts_{0};
  std::atomic<int> torn_streak_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};

  obs::Counter* accepted_total_;
  obs::Counter* accept_faults_total_;
  obs::Counter* requests_total_;
  obs::Counter* responses_total_;
  obs::Counter* http_errors_total_;
  obs::Counter* admitted_total_;
  obs::Counter* admitted_stale_total_;
  obs::Counter* shed_rejected_total_;
  obs::Counter* quota_rejected_total_;
  obs::Counter* torn_reads_total_;
  obs::Counter* dispatches_total_;
  obs::Gauge* open_connections_;
  obs::Gauge* shed_tier_;

  // sgnn-lint: allow(lock/unannotated-field): started in Start() before
  // any concurrent access, joined in Shutdown(); not touched in between.
  std::thread event_thread_;
};

}  // namespace sgnn::net

#endif  // SGNN_NET_SERVER_H_
