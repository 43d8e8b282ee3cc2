#include "serving.h"

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>

#include "common/rng.h"
#include "common/status.h"
#include "net/client.h"
#include "net/http.h"
#include "net/json.h"
#include "serve/khop_embedder.h"

namespace sgnnbench {

namespace serve = sgnn::serve;
namespace net = sgnn::net;
using sgnn::graph::NodeId;

namespace {

constexpr double kFailedLatencyMs = 1e9;  // A failure misses any limit.
constexpr int kConnections = 2;
/// Node popularity exponent, the one the repository's own serving
/// experiment (E24, bench/bench_net.cc) drives its Zipf soak with.
constexpr double kZipfS = 1.1;
constexpr double kWarmupShare = 0.1;
constexpr double kLowShare = 0.2;
constexpr double kHighShare = 0.3;
constexpr double kLadderShare = 0.4;
constexpr size_t kIdentitySample = 32;
/// Closed-loop bulk job: requests outstanding per connection, requests
/// per second of `--seconds` (about the 4-vCPU capacity), and how often the
/// CPU clock and the answered count are sampled.
constexpr int64_t kBulkDepth = 256;
constexpr double kBulkRequestsPerSecond = 50000;
constexpr double kBulkSampleSeconds = 0.1;
/// A phase's p50 is the median of the p50s of this many equal windows of
/// scheduled time, so a host stall that hits one window moves it little.
constexpr int kP50Windows = 10;

/// Zipf(s) popularity over all nodes; rank r maps to a seeded random node,
/// so popularity is independent of node id and degree.
class Popularity {
 public:
  Popularity(NodeId n, double s, uint64_t seed) : cdf_(n), node_of_rank_(n) {
    double total = 0.0;
    for (NodeId i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
      node_of_rank_[i] = i;
    }
    for (double& c : cdf_) c /= total;
    sgnn::common::Rng rng(seed);
    for (NodeId i = n; i > 1; --i) {
      std::swap(node_of_rank_[i - 1], node_of_rank_[rng.UniformInt(i)]);
    }
  }

  NodeId Sample(sgnn::common::Rng& rng) const {
    const double u = rng.Uniform();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return node_of_rank_[std::min(rank, node_of_rank_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<NodeId> node_of_rank_;
};

struct Arrival {
  double t = 0.0;  ///< Seconds after the phase start.
  NodeId node = 0;
};
/// One Poisson arrival list per connection.
using Schedule = std::vector<std::vector<Arrival>>;

Schedule MakeSchedule(const Popularity& pop, double rate, double duration,
                      int connections, uint64_t seed) {
  Schedule schedule(static_cast<size_t>(connections));
  const double per_conn = rate / connections;
  for (int c = 0; c < connections; ++c) {
    sgnn::common::Rng rng(sgnn::common::MixSeed(seed, static_cast<uint64_t>(c)));
    double t = 0.0;
    while (true) {
      t += -std::log1p(-rng.Uniform()) / per_conn;
      if (t >= duration) break;
      schedule[static_cast<size_t>(c)].push_back({t, pop.Sample(rng)});
    }
  }
  return schedule;
}

std::string TenantName(int c) { return "tenant" + std::to_string(c); }

std::string InferBody(NodeId node, const std::string& tenant) {
  return "{\"node\":" + std::to_string(node) + ",\"tenant\":\"" + tenant + "\"}";
}

/// How requests reach the server. `Send` and `Receive` for one connection
/// run on two different threads; responses arrive in send order.
class Transport {
 public:
  virtual ~Transport() = default;
  /// False when the request could not be sent.
  virtual bool Send(int conn, NodeId node) = 0;
  /// Blocks for the next response; false when the stream broke. `*ok` is
  /// whether the request succeeded.
  virtual bool Receive(int conn, bool* ok) = 0;
};

class HttpTransport : public Transport {
 public:
  HttpTransport(uint16_t port, int connections) {
    for (int c = 0; c < connections; ++c) {
      auto client = net::HttpClient::Connect("127.0.0.1", port);
      if (!client.ok()) return;
      clients_.push_back(std::move(client).value());
    }
  }
  bool connected(int connections) const {
    return static_cast<int>(clients_.size()) == connections;
  }
  bool Send(int conn, NodeId node) override {
    return clients_[static_cast<size_t>(conn)]
        .SendRequest("POST", "/v1/infer", InferBody(node, TenantName(conn)),
                     "application/json")
        .ok();
  }
  bool Receive(int conn, bool* ok) override {
    auto response = clients_[static_cast<size_t>(conn)].ReadResponse();
    if (!response.ok()) return false;
    *ok = response.value().status_code == 200;
    return true;
  }

 private:
  std::vector<net::HttpClient> clients_;
};

class InprocTransport : public Transport {
 public:
  InprocTransport(serve::BatchingServer* server, int connections)
      : server_(server), queues_(static_cast<size_t>(connections)) {}
  bool Send(int conn, NodeId node) override {
    serve::InferenceRequest request(node);
    request.tenant_id = TenantName(conn);
    auto submitted = server_->Submit(request);
    Queue& q = queues_[static_cast<size_t>(conn)];
    std::lock_guard<std::mutex> lock(q.mu);
    if (submitted.ok()) {
      q.pending.push_back(std::move(submitted).value());
    } else {
      q.pending.push_back(std::nullopt);  // Refused at admission.
    }
    return true;
  }
  bool Receive(int conn, bool* ok) override {
    Queue& q = queues_[static_cast<size_t>(conn)];
    std::optional<std::future<serve::InferenceResponse>> next;
    {
      std::lock_guard<std::mutex> lock(q.mu);
      if (q.pending.empty()) return false;
      next = std::move(q.pending.front());
      q.pending.pop_front();
    }
    *ok = next.has_value() && next->get().status.ok();
    return true;
  }

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::optional<std::future<serve::InferenceResponse>>> pending;
  };
  serve::BatchingServer* server_;
  std::vector<Queue> queues_;
};

struct PhaseResult {
  int64_t scheduled = 0, succeeded = 0, failed = 0, never_sent = 0;
  std::vector<double> latency_ms;  ///< Per scheduled request.
  std::vector<int> window;         ///< Per scheduled request.
  std::vector<double> lag_ms;      ///< Per sent request.
  double drain_s = 0.0;  ///< Last response after the last scheduled send.

  double P99() const { return Quantile(latency_ms, 0.99); }
  double P50() const {
    std::vector<std::vector<double>> by_window(kP50Windows);
    for (size_t i = 0; i < latency_ms.size(); ++i) {
      by_window[static_cast<size_t>(window[i])].push_back(latency_ms[i]);
    }
    std::vector<double> p50s;
    for (const std::vector<double>& w : by_window) {
      if (!w.empty()) p50s.push_back(Median(w));
    }
    return Median(std::move(p50s));
  }
  bool clean() const { return failed == 0 && never_sent == 0; }
};

/// Plays `schedule` open loop: one sender and one receiver thread per
/// connection. Latency runs from each request's scheduled send time.
PhaseResult RunPhase(Transport& transport, const Schedule& schedule,
                     double duration, const char* span_name) {
  struct Conn {
    std::mutex mu;
    std::condition_variable cv;
    size_t sent = 0;
    bool sender_done = false;
    std::vector<double> done;  ///< Completion time, <0 = no response.
    std::vector<char> ok;
    std::vector<double> lag;
  };
  Span span(span_name);
  const size_t conns = schedule.size();
  std::vector<Conn> state(conns);
  const double t0 = Now() + 0.005;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    const std::vector<Arrival>& arrivals = schedule[c];
    Conn& conn = state[c];
    conn.done.assign(arrivals.size(), -1.0);
    conn.ok.assign(arrivals.size(), 0);
    threads.emplace_back([&, c] {
      for (size_t i = 0; i < arrivals.size(); ++i) {
        SleepUntil(t0 + arrivals[i].t);
        conn.lag.push_back((Now() - t0 - arrivals[i].t) * 1e3);
        if (!transport.Send(static_cast<int>(c), arrivals[i].node)) break;
        std::lock_guard<std::mutex> lock(conn.mu);
        conn.sent = i + 1;
        conn.cv.notify_one();
      }
      std::lock_guard<std::mutex> lock(conn.mu);
      conn.sender_done = true;
      conn.cv.notify_one();
    });
    threads.emplace_back([&, c] {
      for (size_t i = 0; i < arrivals.size(); ++i) {
        {
          std::unique_lock<std::mutex> lock(conn.mu);
          conn.cv.wait(lock, [&] { return conn.sent > i || conn.sender_done; });
          if (conn.sent <= i) return;
        }
        bool ok = false;
        if (!transport.Receive(static_cast<int>(c), &ok)) return;
        conn.done[i] = Now();
        conn.ok[i] = ok ? 1 : 0;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  PhaseResult result;
  double last = t0;
  for (size_t c = 0; c < conns; ++c) {
    const Conn& conn = state[c];
    for (size_t i = 0; i < schedule[c].size(); ++i) {
      ++result.scheduled;
      const double due = t0 + schedule[c][i].t;
      result.window.push_back(std::min(
          kP50Windows - 1,
          static_cast<int>(schedule[c][i].t / duration * kP50Windows)));
      if (i >= conn.sent) {
        ++result.never_sent;
        result.latency_ms.push_back(kFailedLatencyMs);
      } else if (conn.done[i] < 0 || !conn.ok[i]) {
        ++result.failed;
        result.latency_ms.push_back(kFailedLatencyMs);
      } else {
        ++result.succeeded;
        result.latency_ms.push_back((conn.done[i] - due) * 1e3);
      }
      last = std::max(last, conn.done[i]);
    }
    result.lag_ms.insert(result.lag_ms.end(), conn.lag.begin(), conn.lag.end());
  }
  result.drain_s = std::max(0.0, last - (t0 + duration));
  return result;
}

SessionResult RunSession(Transport& transport, const TrafficPlan& plan,
                         NodeId num_nodes, double seconds, uint64_t seed,
                         bool ladder) {
  const Popularity pop(num_nodes, kZipfS, seed);
  SessionResult session;
  uint64_t phase_seed = 0;
  auto run = [&](double rate, double share, const char* name) {
    const double duration = share * seconds;
    const Schedule schedule = MakeSchedule(
        pop, rate, duration, kConnections,
        sgnn::common::MixSeed(seed, ++phase_seed));
    PhaseResult phase = RunPhase(transport, schedule, duration, name);
    session.tally.attempted += phase.scheduled;
    session.tally.failed += phase.failed + phase.never_sent;
    session.succeeded += phase.succeeded;
    if (session.sample_nodes.empty()) {
      std::unordered_set<NodeId> seen;
      for (const Arrival& a : schedule.front()) {
        if (seen.insert(a.node).second) session.sample_nodes.push_back(a.node);
        if (session.sample_nodes.size() == kIdentitySample) break;
      }
    }
    return phase;
  };

  const PhaseResult warm = run(plan.high_rps, kWarmupShare, "serve.phase_warmup");
  const PhaseResult low = run(plan.low_rps, kLowShare, "serve.phase_low");
  const PhaseResult high = run(plan.high_rps, kHighShare, "serve.phase_high");
  session.fixed_phases_clean = warm.clean() && low.clean() && high.clean();
  session.low_p50_ms = low.P50();
  session.low_p99_ms = low.P99();
  session.high_p50_ms = high.P50();
  session.high_p99_ms = high.P99();
  session.lag_p99_ms = Quantile(high.lag_ms, 0.99);
  if (ladder && !plan.ladder_rps.empty()) {
    const double share = kLadderShare / static_cast<double>(plan.ladder_rps.size());
    for (const double rate : plan.ladder_rps) {
      const PhaseResult step = run(rate, share, "serve.phase_ladder");
      const bool met = step.clean() && step.P99() <= plan.p99_limit_ms &&
                       step.drain_s * 1e3 <= plan.p99_limit_ms;
      if (!met) break;
      session.max_rps = rate;
    }
  }
  return session;
}

/// CPU seconds used by the load generator's own threads, readable from the
/// sampling thread while they run. Each thread records its last reading as
/// it ends, so no clock is read after its thread is gone.
class GeneratorCpu {
 public:
  explicit GeneratorCpu(size_t threads) : slots_(threads) {}

  /// Called first by generator thread `slot`.
  void Start(size_t slot) {
    std::lock_guard<std::mutex> lock(mu_);
    Slot& s = slots_[slot];
    s.running = pthread_getcpuclockid(pthread_self(), &s.clock) == 0;
  }
  /// Called last by generator thread `slot`.
  void Stop(size_t slot) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_[slot].final_s = ThreadCpuSeconds();
    slots_[slot].running = false;
  }
  double Seconds() {
    std::lock_guard<std::mutex> lock(mu_);
    double total = 0.0;
    for (const Slot& s : slots_) {
      timespec ts{};
      if (s.running && clock_gettime(s.clock, &ts) == 0) {
        total += static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
      } else {
        total += s.final_s;
      }
    }
    return total;
  }

 private:
  struct Slot {
    clockid_t clock{};
    bool running = false;
    double final_s = 0.0;
  };
  std::mutex mu_;
  std::vector<Slot> slots_;
};

/// Sum of every sample of series `name` (any labels) in a Prometheus text
/// exposition.
double Scrape(const std::string& text, const std::string& name) {
  double total = 0.0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos || line.compare(0, name_end, name) != 0 ||
        name_end != name.size()) {
      continue;
    }
    const size_t value_at = line.rfind(' ');
    total += std::strtod(line.c_str() + value_at + 1, nullptr);
  }
  return total;
}

}  // namespace

serve::ServeConfig BenchServeConfig() {
  serve::ServeConfig config;
  config.max_batch = 32;
  config.max_delay_micros = 2000;
  config.queue_capacity = 1 << 16;
  config.num_workers = 2;
  return config;
}

ServerFactory KHopServerFactory(const sgnn::core::Dataset& data,
                                serve::FrozenModel model, int hops,
                                int64_t node_budget) {
  return [&data, model = std::move(model), hops,
          node_budget](const sgnn::core::RunContext& ctx) {
    auto embedder = std::make_shared<const serve::KHopEmbedder>(
        data.graph, data.features, hops, node_budget);
    serve::EmbeddingFn embed = [embedder](NodeId u, std::span<float> out) {
      embedder->Embed(u, out);
      return sgnn::common::Status::OK();
    };
    return std::make_unique<serve::BatchingServer>(
        model, std::move(embed), data.num_nodes(), BenchServeConfig(), ctx);
  };
}

ServeStack::ServeStack(const ServerFactory& factory)
    : registry_(std::make_unique<sgnn::obs::MetricsRegistry>()) {
  sgnn::core::RunContext ctx;
  ctx.metrics = registry_.get();
  server_ = factory(ctx);
  if (server_ == nullptr) return;
  net::HttpFrontDoorConfig config;
  config.admission.per_tenant_capacity = 1 << 16;
  door_ = std::make_unique<net::HttpFrontDoor>(server_.get(), config, ctx);
  const sgnn::common::Status started = door_->Start();
  ok_ = started.ok();
  if (!ok_) {
    std::fprintf(stderr, "sgnn-bench: front door: %s\n",
                 started.ToString().c_str());
  }
}

ServeStack::~ServeStack() {
  if (door_ != nullptr) door_->Shutdown();
  if (server_ != nullptr) server_->Shutdown();
}

SessionResult RunHttpSession(ServeStack& stack, const TrafficPlan& plan,
                             NodeId num_nodes, double seconds, uint64_t seed,
                             bool ladder) {
  HttpTransport transport(stack.port(), kConnections);
  if (!transport.connected(kConnections)) {
    std::fprintf(stderr, "sgnn-bench: could not connect to the front door\n");
    return SessionResult();
  }
  return RunSession(transport, plan, num_nodes, seconds, seed, ladder);
}

SessionResult RunInprocSession(serve::BatchingServer& server,
                               const TrafficPlan& plan, NodeId num_nodes,
                               double seconds, uint64_t seed) {
  InprocTransport transport(&server, kConnections);
  return RunSession(transport, plan, num_nodes, seconds, seed, /*ladder=*/false);
}

BulkResult RunHttpBulk(ServeStack& stack, NodeId num_nodes, double seconds,
                       uint64_t seed) {
  BulkResult result;
  HttpTransport transport(stack.port(), kConnections);
  if (!transport.connected(kConnections)) {
    std::fprintf(stderr, "sgnn-bench: could not connect to the front door\n");
    return result;
  }
  struct Conn {
    std::mutex mu;
    std::condition_variable cv;
    int64_t sent = 0, received = 0, failed = 0;
    bool sender_done = false;
    bool broken = false;  ///< The response stream ended early.
  };
  const Popularity pop(num_nodes, kZipfS, seed);
  std::vector<Conn> state(static_cast<size_t>(kConnections));
  // A fixed request count, not a deadline: the cache then warms along the
  // same request sequence however fast the host runs.
  const int64_t quota =
      static_cast<int64_t>(seconds * kBulkRequestsPerSecond) / kConnections;
  const int64_t total = quota * kConnections;
  GeneratorCpu generator(2 * static_cast<size_t>(kConnections));
  std::atomic<int> receivers_done{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    Conn& conn = state[static_cast<size_t>(c)];
    const size_t sender_slot = 2 * static_cast<size_t>(c);
    threads.emplace_back([&, c, sender_slot] {
      generator.Start(sender_slot);
      sgnn::common::Rng rng(sgnn::common::MixSeed(seed, static_cast<uint64_t>(c)));
      std::unordered_set<NodeId> seen;
      for (int64_t i = 0; i < quota; ++i) {
        {
          std::unique_lock<std::mutex> lock(conn.mu);
          conn.cv.wait(lock, [&] {
            return conn.sent - conn.received < kBulkDepth || conn.broken;
          });
          if (conn.broken) break;
        }
        const NodeId node = pop.Sample(rng);
        if (c == 0 && result.sample_nodes.size() < kIdentitySample &&
            seen.insert(node).second) {
          result.sample_nodes.push_back(node);
        }
        if (!transport.Send(c, node)) break;
        std::lock_guard<std::mutex> lock(conn.mu);
        ++conn.sent;
        conn.cv.notify_all();
      }
      {
        std::lock_guard<std::mutex> lock(conn.mu);
        conn.sender_done = true;
        conn.cv.notify_all();
      }
      generator.Stop(sender_slot);
    });
    threads.emplace_back([&, c, sender_slot] {
      generator.Start(sender_slot + 1);
      while (true) {
        {
          std::unique_lock<std::mutex> lock(conn.mu);
          conn.cv.wait(lock, [&] {
            return conn.sent > conn.received || conn.sender_done;
          });
          if (conn.sent == conn.received) break;
        }
        bool ok = false;
        const bool received = transport.Receive(c, &ok);
        std::lock_guard<std::mutex> lock(conn.mu);
        if (!received) {
          conn.broken = true;
          conn.cv.notify_all();
          break;
        }
        if (!ok) ++conn.failed;
        ++conn.received;
        conn.cv.notify_all();
      }
      generator.Stop(sender_slot + 1);
      ++receivers_done;
    });
  }
  // Sample (server CPU seconds, answered requests) while the loop runs. The
  // server's CPU is the process's minus the load generator's threads and
  // this sampling thread.
  std::vector<std::pair<double, int64_t>> samples;
  for (double next = Now(); receivers_done.load() < kConnections;
       next += kBulkSampleSeconds) {
    SleepUntil(next);
    int64_t answered = 0;
    for (Conn& conn : state) {
      std::lock_guard<std::mutex> lock(conn.mu);
      answered += conn.received;
    }
    const double harness_cpu = generator.Seconds() + ThreadCpuSeconds();
    samples.push_back({CpuSeconds() - harness_cpu, answered});
  }
  for (std::thread& t : threads) t.join();

  // Every request of the quota counts: one never sent, sent but never
  // answered, or answered with an error is a failure.
  result.tally.attempted = total;
  for (const Conn& conn : state) {
    result.tally.failed += (quota - conn.sent) + (conn.sent - conn.received) +
                           conn.failed;
    result.succeeded += conn.received - conn.failed;
  }
  // Server CPU seconds per answered request in each sampling interval after
  // the first fifth of the requests, which warm the cache.
  std::vector<double> per_request;
  for (size_t i = 1; i < samples.size(); ++i) {
    const int64_t n = samples[i].second - samples[i - 1].second;
    if (samples[i - 1].second >= total / 5 && n > 0) {
      per_request.push_back((samples[i].first - samples[i - 1].first) /
                            static_cast<double>(n));
    }
  }
  result.request_cpu_s = Median(std::move(per_request));
  result.clean = result.tally.failed == 0 && result.succeeded > 0;
  return result;
}

void CheckServedCount(const serve::BatchingServer& server, int64_t succeeded,
                      const char* transport, Checks* checks) {
  const uint64_t served = server.Metrics().requests_served;
  checks->Expect(served == static_cast<uint64_t>(succeeded),
                 std::string("the server served ") + std::to_string(served) +
                     " requests and the " + transport + " client saw " +
                     std::to_string(succeeded) + " succeed");
}

void CheckHttpIdentity(ServeStack& stack, const std::vector<NodeId>& nodes,
                       Checks* checks) {
  auto client = net::HttpClient::Connect("127.0.0.1", stack.port());
  bool identical = client.ok() && !nodes.empty();
  for (size_t i = 0; identical && i < nodes.size(); ++i) {
    const std::string tenant = TenantName(0);
    auto http = client.value().Post("/v1/infer", InferBody(nodes[i], tenant));
    serve::InferenceRequest request(nodes[i]);
    request.tenant_id = tenant;
    auto future = stack.server().Submit(request);
    identical = http.ok() && http.value().status_code == 200 && future.ok() &&
                http.value().body ==
                    net::RenderInferResponse(std::move(future).value().get());
  }
  checks->Expect(identical,
                 "HTTP responses are byte-identical to in-process Submit");
}

void ProbeServing(const ServerFactory& factory, const sgnn::core::Dataset& data,
                  const serve::FrozenModel& model, int hops,
                  int64_t node_budget, const TrafficPlan& plan, double seconds,
                  uint64_t seed,
                  Metrics* out, Checks* checks, OpTally* tally) {
  const NodeId n = data.num_nodes();
  SessionResult http, inproc;
  std::string exposition;
  {
    ServeStack stack(factory);
    checks->Expect(stack.ok(), "front door starts");
    if (!stack.ok()) return;
    http = RunHttpSession(stack, plan, n, seconds, seed, /*ladder=*/true);
    CheckServedCount(stack.server(), http.succeeded, "HTTP", checks);
    CheckHttpIdentity(stack, http.sample_nodes, checks);
    auto client = net::HttpClient::Connect("127.0.0.1", stack.port());
    if (client.ok()) {
      auto scraped = client.value().Get("/metrics");
      if (scraped.ok()) exposition = scraped.value().body;
    }
  }
  checks->Expect(!exposition.empty(), "GET /metrics answers");
  checks->Expect(http.fixed_phases_clean,
                 "the fixed-rate HTTP phases answer every scheduled request");
  tally->Add(http.tally);
  {
    sgnn::obs::MetricsRegistry registry;
    sgnn::core::RunContext ctx;
    ctx.metrics = &registry;
    std::unique_ptr<serve::BatchingServer> server = factory(ctx);
    inproc = RunInprocSession(*server, plan, n, seconds, seed);
    server->Shutdown();
    CheckServedCount(*server, inproc.succeeded, "in-process", checks);
  }
  checks->Expect(inproc.fixed_phases_clean,
                 "the fixed-rate in-process phases answer every scheduled "
                 "request");
  tally->Add(inproc.tally);

  out->Set("serve_low_p50_ms", http.low_p50_ms, "ms");
  out->Set("serve_low_p99_ms", http.low_p99_ms, "ms");
  out->Set("serve_high_p50_ms", http.high_p50_ms, "ms");
  out->Set("serve_high_p99_ms", http.high_p99_ms, "ms");
  out->Set("serve_max_rps", http.max_rps, "1/s");
  out->Set("gen.lag_p99_ms", http.lag_p99_ms, "ms");
  out->Set("serve.inproc_p50_ms", inproc.high_p50_ms, "ms");
  out->Set("serve.inproc_p99_ms", inproc.high_p99_ms, "ms");
  out->Set("net.overhead_p50_ms", http.low_p50_ms - inproc.low_p50_ms, "ms");

  const double hits = Scrape(exposition, "sgnn_serve_cache_hits_total");
  const double misses = Scrape(exposition, "sgnn_serve_cache_misses_total");
  const double batches = Scrape(exposition, "sgnn_serve_batch_size_count");
  out->Set("serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
           "fraction");
  out->Set("serve.mean_batch",
           batches > 0 ? Scrape(exposition, "sgnn_serve_batch_size_sum") / batches
                       : 0.0,
           "count");
  out->Set("serve.max_queue_depth",
           Scrape(exposition, "sgnn_serve_max_queue_depth"), "count");
  out->Set("serve.rejected",
           Scrape(exposition, "sgnn_serve_requests_rejected_total"), "count");
  out->Set("net.http_errors", Scrape(exposition, "sgnn_net_http_errors_total"),
           "count");

  // Single-layer timings on the workload's node stream.
  const Popularity pop(n, kZipfS, seed);
  sgnn::common::Rng rng(seed);
  std::vector<NodeId> stream(2000);
  for (NodeId& u : stream) u = pop.Sample(rng);
  const serve::KHopEmbedder embedder(data.graph, data.features, hops, node_budget);
  std::vector<float> row(static_cast<size_t>(embedder.dim()));
  {
    Span span("serve.embed");
    for (const NodeId u : stream) embedder.Embed(u, row);
    out->Set("serve.embed_us", span.Seconds() * 1e6 / stream.size(), "us");
  }
  const int batch = BenchServeConfig().max_batch;
  sgnn::tensor::Matrix x(batch, model.in_dim());
  for (int r = 0; r < batch; ++r) {
    embedder.Embed(stream[static_cast<size_t>(r)], x.Row(r));
  }
  sgnn::tensor::Matrix logits;
  constexpr int kReps = 500;
  {
    Span span("serve.forward");
    for (int i = 0; i < kReps; ++i) model.Forward(x, &logits);
    out->Set("serve.forward_us", span.Seconds() * 1e6 / kReps, "us");
  }
  const std::string wire = net::SerializeRequest(
      "POST", "/v1/infer", InferBody(stream[0], TenantName(0)),
      "application/json");
  {
    Span span("net.parse");
    int parsed = 0;
    for (int i = 0; i < kReps; ++i) {
      net::HttpRequestParser parser;
      net::HttpRequest request;
      if (parser.Feed(wire).ok() && parser.TakeRequest(&request)) ++parsed;
    }
    out->Set("net.parse_us", span.Seconds() * 1e6 / kReps, "us");
    checks->Expect(parsed == kReps, "HttpRequestParser parses the infer request");
  }
  serve::InferenceResponse response;
  response.node = stream[0];
  response.tenant_id = TenantName(0);
  response.logits.assign(logits.Row(0).begin(), logits.Row(0).end());
  {
    Span span("net.render");
    size_t bytes = 0;
    for (int i = 0; i < kReps; ++i) bytes += net::RenderInferResponse(response).size();
    out->Set("net.render_us", span.Seconds() * 1e6 / kReps, "us");
    checks->Expect(bytes > 0, "RenderInferResponse renders");
  }
}

}  // namespace sgnnbench
