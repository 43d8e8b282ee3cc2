// E24 — Network serving over loopback: the epoll HTTP front door in
// front of the E17 batching server. The in-process Submit path (E17)
// prices the model and the cache; this soak prices everything the wire
// adds — accept, HTTP parse, multi-tenant admission (token buckets +
// DWRR), JSON render, and ordered pipelined writes — and shows the two
// knobs that matter: pipelining depth amortises the per-round-trip
// syscalls, and under a Zipf tenant mix the weighted-fair dequeue keeps
// heavy hitters from starving the tail while quotas convert overload
// into fast 429s instead of queue bloat.
// Series: req/s vs pipeline depth; req/s + per-status counts vs tenant
// count under a Zipf tenant mix.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "net/client.h"
#include "net/json.h"
#include "net/server.h"
#include "nn/mlp.h"
#include "serve/admission.h"
#include "serve/batching_server.h"
#include "serve/frozen_model.h"

namespace {

using sgnn::graph::NodeId;
using sgnn::net::HttpClient;
using sgnn::net::HttpFrontDoor;
using sgnn::net::HttpFrontDoorConfig;
using sgnn::net::HttpResponse;
using sgnn::serve::BatchingServer;
using sgnn::serve::FrozenModel;
using sgnn::serve::InferenceRequest;
using sgnn::serve::ServeConfig;
using sgnn::serve::TenantQuota;

constexpr int64_t kEmbedDim = 16;
constexpr int kClasses = 4;
constexpr NodeId kNodes = 4096;

FrozenModel BenchModel() {
  sgnn::common::Rng rng(17);
  sgnn::nn::Mlp mlp({kEmbedDim, kClasses}, /*dropout=*/0.0, &rng);
  return FrozenModel::FromMlp(mlp);
}

/// Synthetic embedder: the bench prices the network tier, not k-hop
/// propagation, so embeddings are a cheap pure function of the node id.
void FillEmbedding(NodeId node, std::span<float> out) {
  for (size_t j = 0; j < out.size(); ++j) {
    out[j] = 0.01f * static_cast<float>(node) + static_cast<float>(j);
  }
}

ServeConfig BenchServeConfig() {
  ServeConfig config;
  config.max_batch = 32;
  config.max_delay_micros = 100;
  config.queue_capacity = 1 << 16;
  config.num_workers = 2;
  return config;
}

std::string TenantName(size_t t) {
  std::string name = "t";
  name += std::to_string(t);
  return name;
}

std::string InferBody(NodeId node, const std::string& tenant = "") {
  std::string body = "{\"node\":" + std::to_string(node);
  if (!tenant.empty()) body += ",\"tenant\":\"" + tenant + "\"";
  return body + "}";
}

/// One server + front door pair on an ephemeral loopback port.
struct Loopback {
  explicit Loopback(HttpFrontDoorConfig door_config = HttpFrontDoorConfig())
      : server(
            BenchModel(),
            [](NodeId node, std::span<float> out) {
              FillEmbedding(node, out);
              return sgnn::common::Status::OK();
            },
            kNodes, BenchServeConfig()),
        door(&server, std::move(door_config)) {
    ok = door.Start().ok();
  }
  ~Loopback() {
    door.Shutdown();
    server.Shutdown();
  }

  BatchingServer server;
  HttpFrontDoor door;
  bool ok = false;
};

/// Zipf(s) sampler over ranks [0, n) via the precomputed CDF.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Sample(sgnn::common::Rng& rng) const {
    const double u = rng.Uniform();
    size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
};

// ------------------------------------------------------------ benchmarks

/// Full-stack round trips through one keep-alive connection at pipeline
/// depth `state.range(0)`. Depth 1 is the classic request/response ping;
/// deeper pipelines amortise the write/read syscalls and let the serving
/// workers actually form batches.
void BM_HttpPipelineDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  Loopback loop;
  if (!loop.ok) {
    state.SkipWithError("front door failed to start");
    return;
  }
  auto client_or = HttpClient::Connect("127.0.0.1", loop.door.port());
  if (!client_or.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  HttpClient client = std::move(client_or).value();

  sgnn::common::Rng rng(7);
  const Zipf nodes(kNodes, 1.1);
  int64_t served = 0, errors = 0;
  for (auto _ : state) {
    for (int i = 0; i < depth; ++i) {
      const NodeId node = static_cast<NodeId>(nodes.Sample(rng));
      if (!client
               .SendRequest("POST", "/v1/infer", InferBody(node),
                            "application/json")
               .ok()) {
        state.SkipWithError("send failed");
        return;
      }
    }
    for (int i = 0; i < depth; ++i) {
      auto response = client.ReadResponse();
      if (!response.ok()) {
        state.SkipWithError("read failed");
        return;
      }
      response.value().status_code == 200 ? ++served : ++errors;
    }
  }
  state.SetItemsProcessed(served);  // items_per_second == req/s.
  state.counters["depth"] = depth;
  state.counters["errors"] = static_cast<double>(errors);
}
// Wall-clock rates: the server's work happens on its own threads, so
// main-thread CPU time would overstate req/s wildly.
BENCHMARK(BM_HttpPipelineDepth)->Arg(1)->Arg(8)->Arg(64)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

/// Zipf-distributed multi-tenant soak: `state.range(0)` tenants whose
/// traffic shares follow Zipf(1.1) rank order, each on its own keep-alive
/// connection, weights ascending (the busiest tenant has the *lowest*
/// weight, the adversarial case for fairness). Tenant 0 additionally
/// carries a token-bucket quota, so the hottest stream sheds into 429s
/// instead of monopolising the queue.
void BM_ZipfTenantSoak(benchmark::State& state) {
  const int num_tenants = static_cast<int>(state.range(0));
  HttpFrontDoorConfig door_config;
  for (int t = 0; t < num_tenants; ++t) {
    TenantQuota quota;
    quota.weight = static_cast<double>(t + 1);
    if (t == 0) {
      // The hottest tenant is capped at roughly a third of the dispatch
      // rate: bursts above the bucket turn into immediate 429s.
      quota.bucket_capacity = 64;
      quota.refill_per_dispatch = 0.35;
    }
    door_config.admission.tenants[TenantName(static_cast<size_t>(t))] = quota;
  }
  door_config.admission.per_tenant_capacity = 1 << 12;

  Loopback loop(door_config);
  if (!loop.ok) {
    state.SkipWithError("front door failed to start");
    return;
  }

  std::vector<HttpClient> clients;
  for (int t = 0; t < num_tenants; ++t) {
    auto client_or = HttpClient::Connect("127.0.0.1", loop.door.port());
    if (!client_or.ok()) {
      state.SkipWithError("connect failed");
      return;
    }
    clients.push_back(std::move(client_or).value());
  }

  sgnn::common::Rng rng(31);
  const Zipf tenant_pick(static_cast<size_t>(num_tenants), 1.1);
  const Zipf nodes(kNodes, 1.1);
  constexpr int kRequestsPerIter = 256;
  int64_t served = 0, quota_rejected = 0, other = 0;
  std::vector<int> outstanding(static_cast<size_t>(num_tenants));
  for (auto _ : state) {
    std::fill(outstanding.begin(), outstanding.end(), 0);
    for (int i = 0; i < kRequestsPerIter; ++i) {
      const size_t t = tenant_pick.Sample(rng);
      const NodeId node = static_cast<NodeId>(nodes.Sample(rng));
      if (!clients[t]
               .SendRequest("POST", "/v1/infer",
                            InferBody(node, TenantName(t)),
                            "application/json")
               .ok()) {
        state.SkipWithError("send failed");
        return;
      }
      ++outstanding[t];
    }
    for (size_t t = 0; t < outstanding.size(); ++t) {
      for (int i = 0; i < outstanding[t]; ++i) {
        auto response = clients[t].ReadResponse();
        if (!response.ok()) {
          state.SkipWithError("read failed");
          return;
        }
        switch (response.value().status_code) {
          case 200: ++served; break;
          case 429: ++quota_rejected; break;
          default: ++other; break;
        }
      }
    }
  }
  state.SetItemsProcessed(served);
  state.counters["tenants"] = num_tenants;
  state.counters["quota_429"] = static_cast<double>(quota_rejected);
  state.counters["other_errors"] = static_cast<double>(other);
}
BENCHMARK(BM_ZipfTenantSoak)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// -------------------------------------------------------------------- smoke

bool WaitFor(const std::function<bool()>& predicate) {
  for (int i = 0; i < 2000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

/// Seconds-scale CI pass. Returns 0 on success.
int RunSmoke() {
  int failures = 0;
  auto check = [&failures](const char* name, bool ok) {
    std::printf("%-32s %s\n", name, ok ? "OK" : "MISMATCH");
    if (!ok) ++failures;
  };

  // 1. Responses through the socket are bit-identical to in-process
  //    Submit against an identically seeded server.
  {
    Loopback loop;
    BatchingServer in_process(
        BenchModel(),
        [](NodeId node, std::span<float> out) {
          FillEmbedding(node, out);
          return sgnn::common::Status::OK();
        },
        kNodes, BenchServeConfig());
    bool started = loop.ok;
    bool identical = started;
    if (started) {
      auto client_or = HttpClient::Connect("127.0.0.1", loop.door.port());
      identical = client_or.ok();
      if (identical) {
        HttpClient client = std::move(client_or).value();
        for (const NodeId node : {NodeId(0), NodeId(7), NodeId(13), NodeId(7),
                                  NodeId(4095), NodeId(0)}) {
          auto http = client.Post("/v1/infer", InferBody(node));
          auto future_or = in_process.Submit(InferenceRequest(node));
          if (!http.ok() || http.value().status_code != 200 ||
              !future_or.ok()) {
            identical = false;
            break;
          }
          const std::string want =
              sgnn::net::RenderInferResponse(future_or.value().get());
          identical = identical && http.value().body == want;
        }
      }
    }
    check("net.bit_identity_vs_submit", identical);
    in_process.Shutdown();
  }

  // 2. Exact weighted-fair shares: three backlogged tenants with weights
  //    1:2:4 drain 5/10/20 in the first 35 dispatches (five full DWRR
  //    cycles), the same arithmetic the E24 acceptance bound quotes.
  {
    HttpFrontDoorConfig door_config;
    door_config.admission.tenants["a"].weight = 1.0;
    door_config.admission.tenants["b"].weight = 2.0;
    door_config.admission.tenants["c"].weight = 4.0;
    door_config.admission.record_dispatch_log = true;
    Loopback loop(door_config);
    bool fair = loop.ok;
    bool all_served = loop.ok;
    if (loop.ok) {
      loop.door.admission().Pause();
      std::map<std::string, HttpClient> clients;
      for (const std::string tenant : {"a", "b", "c"}) {
        auto client_or = HttpClient::Connect("127.0.0.1", loop.door.port());
        if (!client_or.ok()) {
          fair = all_served = false;
          break;
        }
        clients.emplace(tenant, std::move(client_or).value());
        for (int i = 0; i < 20; ++i) {
          if (!clients[tenant]
                   .SendRequest("POST", "/v1/infer",
                                InferBody(static_cast<NodeId>(i), tenant),
                                "application/json")
                   .ok()) {
            fair = all_served = false;
          }
        }
      }
      fair = fair && WaitFor([&loop] {
               return loop.door.admission().TotalQueued() == 60;
             });
      loop.door.admission().Resume();
      for (auto& [tenant, client] : clients) {
        for (int i = 0; i < 20; ++i) {
          auto response = client.ReadResponse();
          all_served = all_served && response.ok() &&
                       response.value().status_code == 200;
        }
      }
      std::map<std::string, int> first35;
      const std::vector<std::string> log = loop.door.admission().DispatchLog();
      for (size_t i = 0; i < log.size() && i < 35; ++i) ++first35[log[i]];
      fair = fair && first35["a"] == 5 && first35["b"] == 10 &&
             first35["c"] == 20;
      std::printf("dispatch shares (first 35): a=%d b=%d c=%d (want 5/10/20)\n",
                  first35["a"], first35["b"], first35["c"]);
    }
    check("net.dwrr_shares_exact", fair);
    check("net.saturated_all_served", all_served);
  }

  // 3. A Zipf burst across four tenants comes back fully answered with
  //    only 200s (no quotas, breaker closed — nothing may shed).
  {
    HttpFrontDoorConfig door_config;
    door_config.admission.per_tenant_capacity = 1 << 12;
    Loopback loop(door_config);
    bool all_ok = loop.ok;
    if (loop.ok) {
      std::vector<HttpClient> clients;
      for (int t = 0; t < 4 && all_ok; ++t) {
        auto client_or = HttpClient::Connect("127.0.0.1", loop.door.port());
        all_ok = client_or.ok();
        if (all_ok) clients.push_back(std::move(client_or).value());
      }
      if (all_ok) {
        sgnn::common::Rng rng(11);
        const Zipf tenant_pick(4, 1.1);
        const Zipf nodes(kNodes, 1.1);
        std::vector<int> outstanding(4);
        for (int i = 0; i < 400; ++i) {
          const size_t t = tenant_pick.Sample(rng);
          all_ok = all_ok &&
                   clients[t]
                       .SendRequest(
                           "POST", "/v1/infer",
                           InferBody(static_cast<NodeId>(nodes.Sample(rng)),
                                     TenantName(t)),
                           "application/json")
                       .ok();
          ++outstanding[t];
        }
        for (size_t t = 0; t < clients.size(); ++t) {
          for (int i = 0; i < outstanding[t]; ++i) {
            auto response = clients[t].ReadResponse();
            all_ok = all_ok && response.ok() &&
                     response.value().status_code == 200;
          }
        }
      }
    }
    check("net.zipf_burst_all_200", all_ok);
  }

  std::printf("smoke: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") return RunSmoke();
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
