#include "net/server.h"

#include <sys/epoll.h>

#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "net/json.h"

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

/// epoll wait granularity. `Shutdown` and the last answer after it wake the
/// loop through its wake fd; a resumed admission queue (`Resume`, which
/// only tests and `bench_net` call) still waits for the next pass when no
/// socket is ready.
constexpr int kPollMillis = 20;

/// A connection holding more answered-but-unsent bytes than this is closed,
/// so a peer that stops reading costs bounded memory.
constexpr size_t kMaxUnsentBytes = size_t{4} << 20;

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
  admitted_stale_total_ =
      r.GetCounter("sgnn_net_infer_admitted_stale_total",
                   "Infer requests admitted into the stale tier.", {},
                   obs::kVolatile);
  shed_rejected_total_ = r.GetCounter(
      "sgnn_net_infer_shed_total",
      "Infer requests rejected by the shed policy or a full tenant queue.",
      {}, obs::kVolatile);
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
  shed_tier_ = r.GetGauge(
      "sgnn_net_shed_tier",
      "Shed tier at the last admission decision (0 exact, 1 stale, 2 reject).",
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
  // admission holds and writing answers until every one is in its slot.
  admission_.Close();
  Wake(wake_fd_.fd());
  event_thread_.join();
  {
    // No worker holds a connection any more: clearing the registry drops
    // the last owners, and each Conn's OwnedFd closes.
    common::MutexLock lock(conns_.mu);
    conns_.map.clear();
  }
  open_connections_->Set(0.0);
  listen_fd_.Close();
  epoll_fd_.Close();
  wake_fd_.Close();
}

bool HttpFrontDoor::Healthy() const {
  const serve::ShedTier tier = config_.admission.shed.Decide(
      server_->breaker_state(), admission_.FillFraction());
  return tier == serve::ShedTier::kExact &&
         torn_streak_.load() < config_.torn_read_threshold;
}

void HttpFrontDoor::EventLoop() {
  std::vector<ReadyEvent> events;
  while (!stop_.load() || unanswered_.load() > 0) {
    auto n = WaitEvents(epoll_fd_.fd(), &events, 64, kPollMillis);
    if (!n.ok()) break;  // Only fails when the epoll fd itself is gone.
    for (const ReadyEvent& ev : events) {
      if (ev.data == kListenCookie) {
        HandleAcceptable();
        continue;
      }
      if (ev.data == kWakeCookie) {
        DrainWake(wake_fd_.fd());
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        common::MutexLock lock(conns_.mu);
        auto it = conns_.map.find(ev.data);
        if (it == conns_.map.end()) continue;  // Closed while queued.
        conn = it->second;
      }
      if ((ev.events & ~uint32_t{EPOLLOUT}) != 0) HandleReadable(conn);
      if ((ev.events & EPOLLOUT) != 0 && conn->fd.valid()) {
        HandleWritable(conn);
      }
    }
    Dispatch();
  }
  // Last pass: every admitted request is answered by now; write what each
  // socket takes without blocking.
  std::vector<std::shared_ptr<Conn>> open;
  {
    common::MutexLock lock(conns_.mu);
    for (const auto& [id, conn] : conns_.map) open.push_back(conn);
  }
  for (const std::shared_ptr<Conn>& conn : open) HandleWritable(conn);
}

void HttpFrontDoor::Dispatch() {
  serve::InferenceRequest request;
  uint64_t cookie = 0;
  while (admission_.PopDispatch(&request, &cookie)) {
    obs::TraceSpan span = obs::StartSpan(tracer_, "net:dispatch", "net");
    dispatches_total_->Increment();
    common::Status submitted = server_->Submit(
        request, [this, cookie](serve::InferenceResponse response) {
          const int code = response.status.ok()
                               ? 200
                               : HttpStatusForCode(response.status.code());
          Answer(cookie, code, RenderInferResponse(response), kJson);
          // Once Shutdown began, each answer wakes the loop to recount;
          // waking before the decrement keeps the wake fd open for it.
          if (stop_.load()) Wake(wake_fd_.fd());
          unanswered_.fetch_sub(1);  // The last touch of *this.
        });
    if (!submitted.ok()) {
      Answer(cookie, HttpStatusForCode(submitted.code()),
             RenderError(submitted), kJson);
      unanswered_.fetch_sub(1);
    }
  }
}

void HttpFrontDoor::HandleAcceptable() {
  for (;;) {
    auto accepted = AcceptConn(listen_fd_.fd());
    if (!accepted.ok()) return;  // kUnavailable: drained the backlog.
    const uint64_t accept_index = accepts_.fetch_add(1);
    accepted_total_->Increment();
    if (faults_ != nullptr &&
        faults_->ShouldFail(kSiteAcceptFail, accept_index)) {
      accept_faults_total_->Increment();
      continue;  // The OwnedFd closes; the client sees a reset.
    }
    auto conn = std::make_shared<Conn>(next_conn_id_.fetch_add(1),
                                       config_.http_limits);
    conn->fd = std::move(accepted).value();
    size_t open = 0;
    {
      common::MutexLock lock(conns_.mu);
      conns_.map.emplace(conn->id, conn);
      open = conns_.map.size();
    }
    common::Status added =
        EpollAdd(epoll_fd_.fd(), conn->fd.fd(), EPOLLIN, conn->id);
    if (!added.ok()) {
      CloseConn(conn, false);
      continue;
    }
    open_connections_->Set(static_cast<double>(open));
  }
}

void HttpFrontDoor::HandleReadable(const std::shared_ptr<Conn>& conn) {
  char buf[16384];
  for (;;) {
    auto n = RecvSome(conn->fd.fd(), buf, sizeof(buf));
    if (!n.ok()) {
      if (n.status().code() == common::StatusCode::kUnavailable) return;
      CloseConn(conn, !conn->parser.at_boundary());
      return;
    }
    if (n.value() == 0) {  // EOF: clean at a boundary, torn otherwise.
      CloseConn(conn, !conn->parser.OnEof().ok());
      return;
    }
    const uint64_t read_seq = conn->reads++;
    std::string_view data(buf, n.value());
    if (faults_ != nullptr &&
        faults_->ShouldFail(kSiteReadTrunc, ReadToken(conn->id, read_seq))) {
      // Deliver half the bytes, then tear the stream as a mid-read peer
      // death would. The parse outcome is irrelevant: the connection dies
      // either way, and OnEof() below classifies the tear.
      // sgnn-lint: allow(status/void-cast): injected tear discards the
      // half-fed parse result by design; OnEof() is the observed verdict.
      (void)conn->parser.Feed(data.substr(0, data.size() / 2));
      CloseConn(conn, !conn->parser.OnEof().ok());
      return;
    }
    common::Status fed = conn->parser.Feed(data);
    if (!fed.ok()) {
      const int code =
          fed.code() == common::StatusCode::kResourceExhausted ? 431 : 400;
      Answer(ReserveSlot(conn), code, RenderError(fed), kJson);
      // Framing is gone; the loop writes what the socket takes, then closes.
      HandleWritable(conn);
      CloseConn(conn, false);
      return;
    }
    HttpRequest request;
    while (conn->parser.TakeRequest(&request)) {
      HandleRequest(conn, std::move(request));
      request = HttpRequest();
    }
    if (conn->unsent.load() > kMaxUnsentBytes) {
      CloseConn(conn, false);  // The peer stopped reading its answers.
      return;
    }
    if (n.value() < sizeof(buf)) return;  // Drained what was ready.
  }
}

void HttpFrontDoor::HandleWritable(const std::shared_ptr<Conn>& conn) {
  {
    common::MutexLock lock(conn->mu);
    while (!conn->slots.empty() && conn->slots.front().ready) {
      conn->out += conn->slots.front().bytes;
      conn->slots.pop_front();
    }
  }
  size_t sent = 0;
  while (sent < conn->out.size()) {
    auto n = SendSome(conn->fd.fd(), conn->out.data() + sent,
                      conn->out.size() - sent);
    if (!n.ok()) {
      CloseConn(conn, false);  // The peer is gone.
      return;
    }
    if (n.value() == 0) break;  // Send buffer full: wait for EPOLLOUT.
    sent += n.value();
  }
  conn->out.erase(0, sent);
  conn->unsent.fetch_sub(sent);
  common::MutexLock lock(conn->mu);
  const bool more = !conn->out.empty() ||
                    (!conn->slots.empty() && conn->slots.front().ready);
  if (conn->out_armed && !more) {
    conn->out_armed =
        !EpollMod(epoll_fd_.fd(), conn->fd.fd(), EPOLLIN, conn->id).ok();
  }
}

void HttpFrontDoor::HandleRequest(const std::shared_ptr<Conn>& conn,
                                  HttpRequest request) {
  obs::TraceSpan span = obs::StartSpan(tracer_, "net:request", "net");
  requests_total_->Increment();
  // A successfully parsed request proves the stream is healthy again;
  // health probes themselves stay observers so a 503 remains visible.
  if (request.target != "/healthz") torn_streak_.store(0);
  const uint64_t cookie = ReserveSlot(conn);

  auto refuse = [&](int code, const common::Status& status) {
    Answer(cookie, code, RenderError(status), kJson);
  };
  auto wrong_method = [&](const char* only) {
    refuse(405, common::Status::InvalidArgument(request.target + " accepts " +
                                                only + " only"));
  };

  if (request.target == "/healthz") {
    if (request.method != "GET") return wrong_method("GET");
    int code = 200;
    const std::string body = HealthzBody(&code);
    Answer(cookie, code, body, kText);
    return;
  }
  if (request.target == "/metrics") {
    if (request.method != "GET") return wrong_method("GET");
    Answer(cookie, 200, MetricsBody(), kText);
    return;
  }
  if (request.target == "/v1/infer") {
    if (request.method != "POST") return wrong_method("POST");
    HandleInfer(cookie, request);
    return;
  }
  refuse(404, common::Status::NotFound("no route for '" + request.target +
                                       "'"));
}

void HttpFrontDoor::HandleInfer(uint64_t cookie, const HttpRequest& request) {
  auto fail = [&](const common::Status& status) {
    Answer(cookie, HttpStatusForCode(status.code()), RenderError(status),
           kJson);
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

  // Counted before the offer, so Shutdown cannot miss an admitted one.
  unanswered_.fetch_add(1);
  auto admitted =
      admission_.Offer(std::move(infer), cookie, server_->breaker_state());
  if (!admitted.ok()) {
    shed_tier_->Set(static_cast<double>(serve::ShedTier::kReject));
    if (admitted.status().code() == common::StatusCode::kResourceExhausted) {
      quota_rejected_total_->Increment();
    } else {
      shed_rejected_total_->Increment();
    }
    fail(admitted.status());
    unanswered_.fetch_sub(1);
    return;
  }
  shed_tier_->Set(static_cast<double>(admitted.value()));
  admitted_total_->Increment();
  if (admitted.value() == serve::ShedTier::kStale) {
    admitted_stale_total_->Increment();
  }
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
  const serve::ShedTier tier = config_.admission.shed.Decide(
      server_->breaker_state(), admission_.FillFraction());
  std::string body = "unhealthy: shed_tier=";
  body += serve::ShedTierName(tier);
  body += " breaker=";
  body += common::CircuitBreaker::StateName(server_->breaker_state());
  body += " torn_streak=" + std::to_string(torn_streak_.load()) + "\n";
  return body;
}

uint64_t HttpFrontDoor::ReserveSlot(const std::shared_ptr<Conn>& conn) {
  common::MutexLock lock(conn->mu);
  const uint64_t seq = conn->next_seq++;
  conn->slots.push_back(Slot{seq, false, std::string()});
  return MakeCookie(conn->id, seq);
}

void HttpFrontDoor::Answer(uint64_t cookie, int code, std::string_view body,
                           std::string_view content_type) {
  if (code >= 400) http_errors_total_->Increment();
  FillSlot(cookie,
           SerializeResponse(code, ReasonPhrase(code), body, content_type));
}

void HttpFrontDoor::FillSlot(uint64_t cookie, std::string bytes) {
  const uint64_t conn_id = cookie >> kSeqBits;
  const uint64_t seq = cookie & kSeqMask;
  std::shared_ptr<Conn> conn;
  {
    common::MutexLock lock(conns_.mu);
    auto it = conns_.map.find(conn_id);
    if (it == conns_.map.end()) return;  // Conn died; response dropped.
    conn = it->second;
  }
  responses_total_->Increment();
  common::MutexLock lock(conn->mu);
  for (Slot& slot : conn->slots) {
    if ((slot.seq & kSeqMask) == seq) {
      conn->unsent.fetch_add(bytes.size());
      slot.ready = true;
      slot.bytes = std::move(bytes);
      break;
    }
  }
  // The loop closes the fd under this lock, so a valid fd here is still
  // this connection's.
  if (!conn->out_armed && conn->fd.valid() && !conn->slots.empty() &&
      conn->slots.front().ready) {
    conn->out_armed = EpollMod(epoll_fd_.fd(), conn->fd.fd(),
                               EPOLLIN | EPOLLOUT, conn->id)
                          .ok();
  }
}

void HttpFrontDoor::CloseConn(const std::shared_ptr<Conn>& conn, bool torn) {
  size_t open = 0;
  {
    common::MutexLock lock(conns_.mu);
    conns_.map.erase(conn->id);
    open = conns_.map.size();
  }
  {
    common::MutexLock lock(conn->mu);
    if (conn->fd.valid()) {
      // sgnn-lint: allow(status/void-cast): best-effort deregistration on
      // the close path; the fd is closed next, which detaches it anyway.
      (void)EpollDel(epoll_fd_.fd(), conn->fd.fd());
      conn->fd.Close();
    }
  }
  if (torn) {
    torn_reads_total_->Increment();
    torn_streak_.fetch_add(1);
  }
  open_connections_->Set(static_cast<double>(open));
}

}  // namespace sgnn::net
