#ifndef SGNN_NET_SERVER_H_
#define SGNN_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

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
  /// Multi-tenant admission: quotas, DWRR weights, per-tenant bounds.
  serve::AdmissionConfig admission;
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
/// One event-loop thread is the tier's only I/O thread, and the only thread
/// that touches connection state: it accepts, reads, parses, `Offer`s each
/// infer to the `serve::AdmissionQueue` (token-bucket quota, per-tenant
/// bound), and at the end of every iteration moves deficit-weighted-fair
/// from admission into `BatchingServer::Submit` as many requests as the
/// server's queue has room for, so the backlog waits in admission, one
/// bounded queue per tenant. The serving worker that resolves a request
/// renders its HTTP answer and appends it to one answer list; the loop
/// takes the whole list each iteration, places every answer in its
/// connection's response slot and writes the ready slots *in request order
/// per connection* (HTTP/1.1 pipelining) with non-blocking sends, so a slow
/// infer holds back only the slots behind it on its own connection, and a
/// peer that stops reading is closed once 4 MiB of answers wait for it.
/// While the serving breaker is open and admission is at least half full,
/// new infers are shed with a 503 (the backlog cannot drain through a dead
/// embedder); every other infer is admitted, and the `BatchingServer`
/// answers a miss under an open breaker from its cached row, flagged
/// degraded, while its probes find out whether the embedder is back.
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

  /// The `/healthz` verdict: true while the serving breaker is closed and
  /// the torn-read streak is under threshold.
  bool Healthy() const;

 private:
  /// One accepted connection. Only the event loop touches it.
  struct Conn {
    explicit Conn(uint64_t id_in) : id(id_in) {}
    const uint64_t id;
    OwnedFd fd;
    HttpRequestParser parser;
    /// Read counter feeding `ReadToken`.
    uint64_t reads = 0;
    /// One response slot per request whose answer has not moved to `out`,
    /// in request order; empty until its answer arrives.
    std::deque<std::optional<std::string>> slots;
    /// Sequence number of the next request's slot.
    uint64_t next_seq = 0;
    /// Ready answers taken from `slots` that the socket has not taken yet.
    /// EPOLLOUT is armed on `fd` exactly while it is non-empty.
    std::string out;
    /// Bytes of filled slots and of `out` not yet sent.
    size_t unsent = 0;
  };

  /// An answer a serving worker rendered for the slot `cookie` names.
  struct Answer {
    uint64_t cookie = 0;
    std::string bytes;
  };

  /// Answers from serving workers, in the order they were rendered; the
  /// event loop takes the whole list at once. The first answer into an
  /// empty list writes the wake fd.
  struct AnswerList {
    common::Mutex mu;
    std::vector<Answer> answers SGNN_GUARDED_BY(mu);
  };

  void EventLoop();
  /// Moves admission's requests into `BatchingServer::Submit`,
  /// deficit-weighted-fair, up to the free room in the server's queue.
  void Dispatch();
  /// Swaps the answer list into `*taken`, places every answer and sends
  /// what each connection can send.
  void PlaceAnswers(std::vector<Answer>* taken);

  void HandleAcceptable();
  /// Reads and answers what `conn` sent. False once it closed `conn`.
  bool HandleReadable(Conn& conn);
  /// Moves the ready in-order prefix of `conn.slots` into `conn.out`, sends
  /// what the socket takes, and arms EPOLLOUT only while a send would
  /// block. False once it closed `conn`.
  bool Flush(Conn& conn);
  void HandleRequest(Conn& conn, HttpRequest request);
  void HandleInfer(Conn& conn, uint64_t cookie, const HttpRequest& request);
  std::string MetricsBody();
  std::string HealthzBody(int* http_status);

  /// The open connection with this id, or null once it closed.
  Conn* FindConn(uint64_t id);
  /// Reserves the next in-order response slot on `conn`; returns the
  /// cookie that routes the response back to it.
  static uint64_t ReserveSlot(Conn& conn);
  /// Serialises one answer, counting codes >= 400 in
  /// `sgnn_net_http_errors_total`. Safe from any thread.
  std::string Render(int code, std::string_view body,
                     std::string_view content_type);
  /// Fills the slot `cookie` names on `conn`.
  void Fill(Conn& conn, uint64_t cookie, std::string bytes);
  /// Renders an answer of the event loop's own into its slot.
  void Respond(Conn& conn, uint64_t cookie, int code, std::string_view body,
               std::string_view content_type);
  /// Closes and forgets a connection; `torn` feeds the healthz streak.
  void CloseConn(Conn& conn, bool torn);

  serve::BatchingServer* const server_;
  const HttpFrontDoorConfig config_;
  obs::Tracer* const tracer_;
  common::FaultInjector* const faults_;
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* const registry_;

  serve::AdmissionQueue admission_;

  OwnedFd listen_fd_;
  OwnedFd epoll_fd_;
  /// In the epoll set; written by `Shutdown` and by the answer that makes
  /// the answer list non-empty.
  OwnedFd wake_fd_;
  uint16_t port_ = 0;

  AnswerList answer_list_;

  /// Event-loop state: the open connections by id (ids are never reused,
  /// so an answer for a closed connection finds nothing), the accept and
  /// connection counters, and the infers counted in once admitted and out
  /// once their answer is taken or their submit fails. Once `Shutdown`
  /// begins, the loop runs until `unanswered_` reads zero.
  std::map<uint64_t, Conn> conns_;
  uint64_t next_conn_id_ = 0;
  uint64_t accepts_ = 0;
  int64_t unanswered_ = 0;

  std::atomic<int> torn_streak_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};

  obs::Counter* accepted_total_;
  obs::Counter* accept_faults_total_;
  obs::Counter* requests_total_;
  obs::Counter* responses_total_;
  obs::Counter* http_errors_total_;
  obs::Counter* admitted_total_;
  obs::Counter* shed_rejected_total_;
  obs::Counter* quota_rejected_total_;
  obs::Counter* torn_reads_total_;
  obs::Counter* dispatches_total_;
  obs::Gauge* open_connections_;

  std::thread event_thread_;
};

}  // namespace sgnn::net

#endif  // SGNN_NET_SERVER_H_
