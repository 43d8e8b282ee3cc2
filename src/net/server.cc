#include "net/server.h"

#include <sys/epoll.h>

#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "net/json.h"
#include "obs/json.h"

namespace sgnn::net {

namespace {

/// epoll user-data values marking the listening socket and the wake fd;
/// connection events carry the connection id instead.
constexpr uint64_t kListenCookie = ~uint64_t{0};
constexpr uint64_t kWakeCookie = ~uint64_t{1};

/// Slot seq occupies the low bits of a routing cookie, conn id the rest.
constexpr int kSeqBits = 24;
constexpr uint64_t kSeqMask = (uint64_t{1} << kSeqBits) - 1;

constexpr uint64_t MakeCookie(uint64_t conn_id, uint64_t seq) {
  return (conn_id << kSeqBits) | (seq & kSeqMask);
}

/// epoll wait granularity. `Shutdown` and the first answer into an empty
/// answer list wake the loop through its wake fd, so room a worker frees
/// in the server's queue is seen by the pass that places its answer; a
/// resumed admission queue (`Resume`, which only tests and `bench_net`
/// call) still waits for the next pass when no socket is ready.
constexpr int kPollMillis = 20;

/// A connection holding more answered-but-unsent bytes than this is closed,
/// so a peer that stops reading costs bounded memory.
constexpr size_t kMaxUnsentBytes = size_t{4} << 20;

/// Admission fill fraction at or above which an open breaker sheds new
/// infers: the backlog cannot drain through a dead embedder. A half-open
/// breaker sheds nothing, so its probe can reach the embedder.
constexpr double kShedFill = 0.5;

constexpr std::string_view kJson = "application/json";
constexpr std::string_view kText = "text/plain; version=0.0.4";

}  // namespace

HttpFrontDoor::HttpFrontDoor(serve::BatchingServer* server,
                             HttpFrontDoorConfig config,
                             const core::RunContext& ctx)
    : server_(server),
      config_(std::move(config)),
      tracer_(ctx.tracer),
      faults_(ctx.faults),
      owned_registry_(ctx.metrics == nullptr
                          ? std::make_unique<obs::MetricsRegistry>()
                          : nullptr),
      registry_(ctx.metrics == nullptr ? owned_registry_.get() : ctx.metrics),
      admission_(config_.admission) {
  SGNN_CHECK(server_ != nullptr);
  obs::MetricsRegistry& r = *registry_;
  accepted_total_ =
      r.GetCounter("sgnn_net_accepted_total",
                   "TCP connections accepted by the front door.", {},
                   obs::kVolatile);
  accept_faults_total_ = r.GetCounter(
      "sgnn_net_accept_faults_total",
      "Accepted connections dropped by the net.accept.fail fault site.", {},
      obs::kVolatile);
  requests_total_ =
      r.GetCounter("sgnn_net_http_requests_total", "HTTP requests parsed.",
                   {}, obs::kVolatile);
  responses_total_ =
      r.GetCounter("sgnn_net_http_responses_total", "HTTP responses written.",
                   {}, obs::kVolatile);
  http_errors_total_ =
      r.GetCounter("sgnn_net_http_errors_total",
                   "HTTP error (4xx/5xx) responses.", {}, obs::kVolatile);
  admitted_total_ = r.GetCounter(
      "sgnn_net_infer_admitted_total",
      "Infer requests admitted past quota and shedding.", {}, obs::kVolatile);
  shed_rejected_total_ = r.GetCounter(
      "sgnn_net_infer_shed_total",
      "Infer requests rejected by load shedding or a full tenant queue.", {},
      obs::kVolatile);
  quota_rejected_total_ =
      r.GetCounter("sgnn_net_infer_quota_rejected_total",
                   "Infer requests rejected by a tenant token bucket.", {},
                   obs::kVolatile);
  torn_reads_total_ = r.GetCounter(
      "sgnn_net_torn_reads_total",
      "Connections that ended mid-message (torn stream, kDataLoss).", {},
      obs::kVolatile);
  dispatches_total_ = r.GetCounter(
      "sgnn_net_dispatches_total",
      "Requests dispatched weighted-fair to the batching server.", {},
      obs::kVolatile);
  open_connections_ =
      r.GetGauge("sgnn_net_open_connections", "Currently open connections.",
                 {}, obs::kVolatile);
}

HttpFrontDoor::~HttpFrontDoor() { Shutdown(); }

common::Status HttpFrontDoor::Start() {
  if (started_.load()) {
    return common::Status::FailedPrecondition("front door already started");
  }
  uint16_t port = config_.port;
  auto listener = ListenTcp(config_.host, &port);
  if (!listener.ok()) return listener.status();
  listen_fd_ = std::move(listener).value();
  port_ = port;
  auto epoll = EpollCreate();
  if (!epoll.ok()) return epoll.status();
  epoll_fd_ = std::move(epoll).value();
  SGNN_RETURN_IF_ERROR(
      EpollAdd(epoll_fd_.fd(), listen_fd_.fd(), EPOLLIN, kListenCookie));
  auto wake = WakeFdCreate();
  if (!wake.ok()) return wake.status();
  wake_fd_ = std::move(wake).value();
  SGNN_RETURN_IF_ERROR(
      EpollAdd(epoll_fd_.fd(), wake_fd_.fd(), EPOLLIN, kWakeCookie));
  started_.store(true);
  event_thread_ = std::thread([this] { EventLoop(); });
  return common::Status::OK();
}

void HttpFrontDoor::Shutdown() {
  if (!started_.load() || stop_.exchange(true)) return;
  // New infers are refused from here on; the loop keeps dispatching what
  // admission holds and placing answers until every one is in its slot.
  admission_.Close();
  Wake(wake_fd_.fd());
  event_thread_.join();
  conns_.clear();  // Each Conn's OwnedFd closes.
  open_connections_->Set(0.0);
  listen_fd_.Close();
  epoll_fd_.Close();
  wake_fd_.Close();
}

bool HttpFrontDoor::Healthy() const {
  return server_->breaker_state() == common::CircuitBreaker::State::kClosed &&
         torn_streak_.load() < config_.torn_read_threshold;
}

void HttpFrontDoor::EventLoop() {
  std::vector<ReadyEvent> events;
  std::vector<Answer> taken;
  while (!stop_.load() || unanswered_ > 0) {
    auto n = WaitEvents(epoll_fd_.fd(), &events, 64, kPollMillis);
    if (!n.ok()) break;  // Only fails when the epoll fd itself is gone.
    for (const ReadyEvent& ev : events) {
      if (ev.data == kListenCookie) {
        HandleAcceptable();
        continue;
      }
      if (ev.data == kWakeCookie) {
        // Drained before the list is taken below, so an answer appended
        // after that take finds the list empty and wakes the loop again.
        DrainWake(wake_fd_.fd());
        continue;
      }
      Conn* conn = FindConn(ev.data);
      if (conn == nullptr) continue;  // Closed earlier in this pass.
      if ((ev.events & ~uint32_t{EPOLLOUT}) != 0 && !HandleReadable(*conn)) {
        continue;
      }
      if ((ev.events & EPOLLOUT) != 0) Flush(*conn);
    }
    PlaceAnswers(&taken);
    Dispatch();
  }
  // Last pass: every admitted request is answered by now; write what each
  // socket takes without blocking. The iterator moves on before `Flush`,
  // which may close (erase) the connection it is given.
  for (auto it = conns_.begin(); it != conns_.end();) Flush((it++)->second);
}

void HttpFrontDoor::Dispatch() {
  // Pop no more than the server's queue has room for: the backlog stays in
  // admission, where each tenant queues apart and is drained fairly.
  const size_t capacity = server_->config().queue_capacity;
  const size_t depth = server_->QueueDepth();
  size_t room = depth < capacity ? capacity - depth : 0;
  serve::InferenceRequest request;
  uint64_t cookie = 0;
  while (room > 0 && admission_.PopDispatch(&request, &cookie)) {
    --room;
    obs::TraceSpan span = obs::StartSpan(tracer_, "net:dispatch", "net");
    dispatches_total_->Increment();
    common::Status submitted = server_->Submit(
        request, [this, cookie](serve::InferenceResponse response) {
          const int code = response.status.ok()
                               ? 200
                               : HttpStatusForCode(response.status.code());
          std::string bytes =
              Render(code, RenderInferResponse(response), kJson);
          common::MutexLock lock(answer_list_.mu);
          // Waking under the lock keeps the wake fd open for it: the loop
          // takes this answer only once the lock is released, and
          // `Shutdown` closes the fd only after the loop took every answer.
          if (answer_list_.answers.empty()) Wake(wake_fd_.fd());
          answer_list_.answers.push_back(Answer{cookie, std::move(bytes)});
        });
    if (!submitted.ok()) {
      --unanswered_;
      if (Conn* conn = FindConn(cookie >> kSeqBits)) {
        Respond(*conn, cookie, HttpStatusForCode(submitted.code()),
                RenderError(submitted), kJson);
        Flush(*conn);
      }
    }
  }
}

void HttpFrontDoor::PlaceAnswers(std::vector<Answer>* taken) {
  {
    common::MutexLock lock(answer_list_.mu);
    taken->swap(answer_list_.answers);
  }
  unanswered_ -= static_cast<int64_t>(taken->size());
  for (Answer& answer : *taken) {
    if (Conn* conn = FindConn(answer.cookie >> kSeqBits)) {
      Fill(*conn, answer.cookie, std::move(answer.bytes));
    }
  }
  // The first flush of a connection sends every answer it has ready; a
  // later one for the same connection finds nothing new.
  for (const Answer& answer : *taken) {
    if (Conn* conn = FindConn(answer.cookie >> kSeqBits)) Flush(*conn);
  }
  taken->clear();
}

void HttpFrontDoor::HandleAcceptable() {
  for (;;) {
    auto accepted = AcceptConn(listen_fd_.fd());
    if (!accepted.ok()) return;  // kUnavailable: drained the backlog.
    const uint64_t accept_index = accepts_++;
    accepted_total_->Increment();
    if (faults_ != nullptr &&
        faults_->ShouldFail(kSiteAcceptFail, accept_index)) {
      accept_faults_total_->Increment();
      continue;  // The OwnedFd closes; the client sees a reset.
    }
    const uint64_t id = next_conn_id_++;
    Conn& conn = conns_.try_emplace(id, id).first->second;
    conn.fd = std::move(accepted).value();
    if (!EpollAdd(epoll_fd_.fd(), conn.fd.fd(), EPOLLIN, id).ok()) {
      conns_.erase(id);
      continue;
    }
    open_connections_->Set(static_cast<double>(conns_.size()));
  }
}

bool HttpFrontDoor::HandleReadable(Conn& conn) {
  char buf[16384];
  for (;;) {
    auto n = RecvSome(conn.fd.fd(), buf, sizeof(buf));
    if (!n.ok()) {
      if (n.status().code() == common::StatusCode::kUnavailable) return true;
      CloseConn(conn, !conn.parser.at_boundary());
      return false;
    }
    if (n.value() == 0) {  // EOF: clean at a boundary, torn otherwise.
      CloseConn(conn, !conn.parser.OnEof().ok());
      return false;
    }
    const uint64_t read_seq = conn.reads++;
    std::string_view data(buf, n.value());
    if (faults_ != nullptr &&
        faults_->ShouldFail(kSiteReadTrunc, ReadToken(conn.id, read_seq))) {
      // Deliver half the bytes, then tear the stream as a mid-read peer
      // death would. The parse outcome is irrelevant: the connection dies
      // either way, and OnEof() below classifies the tear.
      // sgnn-lint: allow(status/void-cast): injected tear discards the
      // half-fed parse result by design; OnEof() is the observed verdict.
      (void)conn.parser.Feed(data.substr(0, data.size() / 2));
      CloseConn(conn, !conn.parser.OnEof().ok());
      return false;
    }
    common::Status fed = conn.parser.Feed(data);
    if (!fed.ok()) {
      const int code =
          fed.code() == common::StatusCode::kResourceExhausted ? 431 : 400;
      Respond(conn, ReserveSlot(conn), code, RenderError(fed), kJson);
      // Framing is gone; write what the socket takes, then close.
      if (Flush(conn)) CloseConn(conn, false);
      return false;
    }
    HttpRequest request;
    while (conn.parser.TakeRequest(&request)) {
      HandleRequest(conn, std::move(request));
      request = HttpRequest();
    }
    if (!Flush(conn)) return false;
    if (conn.unsent > kMaxUnsentBytes) {
      CloseConn(conn, false);  // The peer stopped reading its answers.
      return false;
    }
    if (n.value() < sizeof(buf)) return true;  // Drained what was ready.
  }
}

bool HttpFrontDoor::Flush(Conn& conn) {
  const bool armed = !conn.out.empty();
  while (!conn.slots.empty() && conn.slots.front().has_value()) {
    if (conn.out.empty()) {
      conn.out = std::move(*conn.slots.front());
    } else {
      conn.out += *conn.slots.front();
    }
    conn.slots.pop_front();
  }
  size_t sent = 0;
  while (sent < conn.out.size()) {
    auto n = SendSome(conn.fd.fd(), conn.out.data() + sent,
                      conn.out.size() - sent);
    if (!n.ok()) {
      CloseConn(conn, false);  // The peer is gone.
      return false;
    }
    if (n.value() == 0) break;  // Send buffer full: wait for EPOLLOUT.
    sent += n.value();
  }
  conn.out.erase(0, sent);
  conn.unsent -= sent;
  const bool blocked = !conn.out.empty();
  if (blocked != armed &&
      !EpollMod(epoll_fd_.fd(), conn.fd.fd(),
                blocked ? EPOLLIN | EPOLLOUT : EPOLLIN, conn.id)
           .ok()) {
    CloseConn(conn, false);  // A socket the loop cannot watch is lost.
    return false;
  }
  return true;
}

void HttpFrontDoor::HandleRequest(Conn& conn, HttpRequest request) {
  obs::TraceSpan span = obs::StartSpan(tracer_, "net:request", "net");
  requests_total_->Increment();
  // A successfully parsed request proves the stream is healthy again;
  // health probes themselves stay observers so a 503 remains visible.
  if (request.target != "/healthz") torn_streak_.store(0);
  const uint64_t cookie = ReserveSlot(conn);

  auto refuse = [&](int code, const common::Status& status) {
    Respond(conn, cookie, code, RenderError(status), kJson);
  };
  auto wrong_method = [&](const char* only) {
    refuse(405, common::Status::InvalidArgument(request.target + " accepts " +
                                                only + " only"));
  };

  if (request.target == "/healthz") {
    if (request.method != "GET") return wrong_method("GET");
    int code = 200;
    const std::string body = HealthzBody(&code);
    Respond(conn, cookie, code, body, kText);
    return;
  }
  if (request.target == "/metrics") {
    if (request.method != "GET") return wrong_method("GET");
    Respond(conn, cookie, 200, MetricsBody(), kText);
    return;
  }
  if (request.target == "/v1/infer") {
    if (request.method != "POST") return wrong_method("POST");
    HandleInfer(conn, cookie, request);
    return;
  }
  refuse(404, common::Status::NotFound("no route for '" + request.target +
                                       "'"));
}

void HttpFrontDoor::HandleInfer(Conn& conn, uint64_t cookie,
                                const HttpRequest& request) {
  auto fail = [&](const common::Status& status) {
    Respond(conn, cookie, HttpStatusForCode(status.code()),
            RenderError(status), kJson);
  };

  auto parsed = ParseInferRequest(request.body);
  if (!parsed.ok()) {
    fail(parsed.status());
    return;
  }
  const InferRequestBody& body = parsed.value();
  if (body.node < 0 ||
      body.node > static_cast<int64_t>(
                      std::numeric_limits<graph::NodeId>::max())) {
    fail(common::Status::InvalidArgument("node id out of range"));
    return;
  }
  serve::InferenceRequest infer;
  infer.node = static_cast<graph::NodeId>(body.node);
  infer.tenant_id = body.tenant;
  infer.deadline_micros = body.deadline_micros;

  const bool shed =
      server_->breaker_state() == common::CircuitBreaker::State::kOpen &&
      admission_.FillFraction() >= kShedFill;
  const common::Status admitted =
      shed ? common::Status::Unavailable(
                 "load shed: breaker open and admission queues saturated")
           : admission_.Offer(std::move(infer), cookie);
  if (!admitted.ok()) {
    if (admitted.code() == common::StatusCode::kResourceExhausted) {
      quota_rejected_total_->Increment();
    } else {
      shed_rejected_total_->Increment();
    }
    fail(admitted);
    return;
  }
  ++unanswered_;
  admitted_total_->Increment();
}

std::string HttpFrontDoor::MetricsBody() {
  // Metrics() refreshes the registry-side breaker/ops gauges, so a scrape
  // through the front door sees the same numbers a snapshot does.
  (void)server_->Metrics();
  return registry_->PrometheusText(true);
}

std::string HttpFrontDoor::HealthzBody(int* http_status) {
  if (Healthy()) {
    *http_status = 200;
    return "ok\n";
  }
  *http_status = 503;
  std::string body = "unhealthy: breaker=";
  body += common::CircuitBreaker::StateName(server_->breaker_state());
  body += " torn_streak=";
  obs::AppendNumber(&body, torn_streak_.load());
  body += "\n";
  return body;
}

HttpFrontDoor::Conn* HttpFrontDoor::FindConn(uint64_t id) {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : &it->second;
}

uint64_t HttpFrontDoor::ReserveSlot(Conn& conn) {
  conn.slots.emplace_back();
  return MakeCookie(conn.id, conn.next_seq++);
}

std::string HttpFrontDoor::Render(int code, std::string_view body,
                                  std::string_view content_type) {
  if (code >= 400) http_errors_total_->Increment();
  return SerializeResponse(code, ReasonPhrase(code), body, content_type);
}

void HttpFrontDoor::Fill(Conn& conn, uint64_t cookie, std::string bytes) {
  // The slots hold sequence numbers next_seq - size .. next_seq - 1.
  const uint64_t oldest = conn.next_seq - conn.slots.size();
  const uint64_t index = ((cookie & kSeqMask) - oldest) & kSeqMask;
  SGNN_CHECK_LT(index, conn.slots.size());
  responses_total_->Increment();
  conn.unsent += bytes.size();
  conn.slots[index] = std::move(bytes);
}

void HttpFrontDoor::Respond(Conn& conn, uint64_t cookie, int code,
                            std::string_view body,
                            std::string_view content_type) {
  Fill(conn, cookie, Render(code, body, content_type));
}

void HttpFrontDoor::CloseConn(Conn& conn, bool torn) {
  // sgnn-lint: allow(status/void-cast): best-effort deregistration on the
  // close path; the fd is closed next, which detaches it anyway.
  (void)EpollDel(epoll_fd_.fd(), conn.fd.fd());
  const uint64_t id = conn.id;
  conns_.erase(id);  // Closes the socket.
  if (torn) {
    torn_reads_total_->Increment();
    torn_streak_.fetch_add(1);
  }
  open_connections_->Set(static_cast<double>(conns_.size()));
}

}  // namespace sgnn::net
