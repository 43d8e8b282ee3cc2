// Serving path of sgnn-bench: an open-loop Poisson load generator driving
// `POST /v1/infer` through `HttpFrontDoor` -> `BatchingServer` (or the same
// schedule through in-process `BatchingServer::Submit`), fixed-rate
// phases, a fixed-rate ladder for the highest sustainable rate, and the
// serve/net layer probes.

#ifndef SGNNBENCH_SERVING_H_
#define SGNNBENCH_SERVING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/dataset.h"
#include "core/run_context.h"
#include "harness.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/batching_server.h"
#include "serve/frozen_model.h"

namespace sgnnbench {

/// The committed traffic plan. Rates are absolute requests per second.
/// A session runs warm-up (at the high rate), low, high and the ladder for
/// 10%, 20%, 30% and 40% of its length, over two keep-alive connections
/// (one per tenant) with Zipf(1.1) node popularity.
struct TrafficPlan {
  double low_rps = 0;
  double high_rps = 0;
  std::vector<double> ladder_rps;
  /// p99 limit a ladder step must meet (failed or refused requests count
  /// as missing it), and the longest a step's backlog may take to drain.
  double p99_limit_ms = 0;
};

/// Builds the served `BatchingServer` under the given context.
using ServerFactory = std::function<std::unique_ptr<sgnn::serve::BatchingServer>(
    const sgnn::core::RunContext&)>;

/// Serving configuration every server in the benchmark uses.
sgnn::serve::ServeConfig BenchServeConfig();

/// Server factory for a frozen head over `data` whose cache misses run the
/// `hops`-hop `KHopEmbedder` with `node_budget` (0 = exact); `data` must
/// outlive the server.
ServerFactory KHopServerFactory(const sgnn::core::Dataset& data,
                                sgnn::serve::FrozenModel model, int hops,
                                int64_t node_budget);

/// One running HTTP serving stack: registry, server and front door.
class ServeStack {
 public:
  /// Starts the stack; `ok()` is false when the front door failed.
  explicit ServeStack(const ServerFactory& factory);
  ~ServeStack();
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  bool ok() const { return ok_; }
  uint16_t port() const { return door_->port(); }
  sgnn::serve::BatchingServer& server() { return *server_; }

 private:
  // Destroyed door first, registry last.
  std::unique_ptr<sgnn::obs::MetricsRegistry> registry_;
  std::unique_ptr<sgnn::serve::BatchingServer> server_;
  std::unique_ptr<sgnn::net::HttpFrontDoor> door_;
  bool ok_ = false;
};

/// Results of one serving session over one transport.
struct SessionResult {
  double low_p50_ms = 0, low_p99_ms = 0;
  double high_p50_ms = 0, high_p99_ms = 0;
  double max_rps = 0;
  double lag_p99_ms = 0;  ///< How late the generator sent, high phase.
  OpTally tally;          ///< Every scheduled request; failed includes
                          ///< refused and never-sent ones.
  int64_t succeeded = 0;  ///< Answered OK, as the client counted them.
  bool fixed_phases_clean = false;  ///< Warm-up/low/high: all answered OK.
  std::vector<sgnn::graph::NodeId> sample_nodes;  ///< Served early on.
};

/// Runs warm-up, low, high and (when `ladder`) the ladder over HTTP. Phase
/// lengths are the plan's shares of `seconds`.
SessionResult RunHttpSession(ServeStack& stack, const TrafficPlan& plan,
                             sgnn::graph::NodeId num_nodes, double seconds,
                             uint64_t seed, bool ladder);

/// Closed-loop capacity run over HTTP.
struct BulkResult {
  /// Median, over 100 ms intervals, of the server's CPU seconds per
  /// answered request: the process's CPU minus the load generator's threads.
  double request_cpu_s = 0;
  OpTally tally;          ///< The whole quota; failed includes requests
                          ///< never sent or never answered.
  int64_t succeeded = 0;  ///< Answered OK, as the client counted them.
  bool clean = false;     ///< Every request of the quota answered OK.
  std::vector<sgnn::graph::NodeId> sample_nodes;  ///< Served early on.
};

/// Sends the first 50000 x `seconds` requests of the workload's stream
/// (about `seconds` at 4-vCPU capacity) over the session's connections,
/// each keeping a fixed number of requests outstanding (so the server, not
/// a schedule, sets the pace). The first fifth of the requests warm the
/// cache and are not measured.
BulkResult RunHttpBulk(ServeStack& stack, sgnn::graph::NodeId num_nodes,
                       double seconds, uint64_t seed);

/// The same schedule without the ladder through in-process `Submit`.
SessionResult RunInprocSession(sgnn::serve::BatchingServer& server,
                               const TrafficPlan& plan,
                               sgnn::graph::NodeId num_nodes, double seconds,
                               uint64_t seed);

/// The server's own count of requests served OK equals `succeeded`, the
/// client's count over everything sent to it so far.
void CheckServedCount(const sgnn::serve::BatchingServer& server,
                      int64_t succeeded, const char* transport, Checks* checks);

/// HTTP responses for `nodes` are byte-identical to in-process `Submit`
/// on the same (warm) server.
void CheckHttpIdentity(ServeStack& stack,
                       const std::vector<sgnn::graph::NodeId>& nodes,
                       Checks* checks);

/// serve.*, net.* and gen.* metrics plus the serve_* session figures:
/// runs an HTTP session (with the ladder) and an in-process session on a
/// second server from `factory`, scrapes `/metrics`, and times the
/// embedder (`hops`, `node_budget` as the server's), the head, the request
/// parser and the response renderer.
void ProbeServing(const ServerFactory& factory, const sgnn::core::Dataset& data,
                  const sgnn::serve::FrozenModel& model, int hops,
                  int64_t node_budget,
                  const TrafficPlan& plan, double seconds, uint64_t seed,
                  Metrics* out, Checks* checks, OpTally* tally);

}  // namespace sgnnbench

#endif  // SGNNBENCH_SERVING_H_
