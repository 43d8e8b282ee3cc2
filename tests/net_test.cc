#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/run_context.h"
#include "net/client.h"
#include "net/http.h"
#include "net/json.h"
#include "net/server.h"
#include "nn/mlp.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/batching_server.h"
#include "serve/frozen_model.h"
#include "tensor/matrix.h"

namespace sgnn::net {
namespace {

using common::Status;
using common::StatusCode;
using graph::NodeId;
using serve::AdmissionConfig;
using serve::AdmissionQueue;
using serve::BatchingServer;
using serve::FrozenModel;
using serve::InferenceRequest;
using serve::InferenceResponse;
using serve::ServeConfig;
using serve::TenantQuota;

// ----------------------------------------------------------- HTTP parsing

TEST(HttpRequestParserTest, ParsesSimpleGetAndPostWithBody) {
  HttpRequestParser parser;
  ASSERT_TRUE(parser
                  .Feed("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                        "POST /v1/infer HTTP/1.1\r\nContent-Length: 10\r\n"
                        "\r\n{\"node\":1}")
                  .ok());
  HttpRequest request;
  ASSERT_TRUE(parser.TakeRequest(&request));
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/healthz");
  EXPECT_EQ(request.version, "HTTP/1.1");
  ASSERT_TRUE(parser.TakeRequest(&request));
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.body, "{\"node\":1}");
  EXPECT_FALSE(parser.TakeRequest(&request));
  EXPECT_TRUE(parser.at_boundary());
  EXPECT_TRUE(parser.OnEof().ok());
}

TEST(HttpRequestParserTest, TruncatedRequestLineIsTornAtEof) {
  HttpRequestParser parser;
  ASSERT_TRUE(parser.Feed("GET /v1/inf").ok());  // No CRLF yet: incomplete.
  HttpRequest request;
  EXPECT_FALSE(parser.TakeRequest(&request));
  EXPECT_FALSE(parser.at_boundary());
  // A peer dying here tore the stream mid-message: kDataLoss, the same
  // taxonomy dist/frame.h applies to torn length-prefixed frames.
  EXPECT_EQ(parser.OnEof().code(), StatusCode::kDataLoss);
}

TEST(HttpRequestParserTest, OversizedStartLineIsResourceExhausted) {
  HttpLimits limits;
  limits.max_start_line_bytes = 32;
  HttpRequestParser parser(limits);
  // The limit must be policed while the line is still forming — a peer
  // that never sends CRLF cannot balloon the buffer.
  const std::string long_target(128, 'a');
  EXPECT_EQ(parser.Feed("GET /" + long_target).code(),
            StatusCode::kResourceExhausted);
  // Sticky: the framing is unrecoverable.
  EXPECT_EQ(parser.Feed("\r\n\r\n").code(), StatusCode::kResourceExhausted);
}

TEST(HttpRequestParserTest, OversizedHeaderBlockIsResourceExhausted) {
  HttpLimits limits;
  limits.max_header_bytes = 64;
  HttpRequestParser parser(limits);
  const std::string big_header = "X-Padding: " + std::string(128, 'p');
  EXPECT_EQ(parser.Feed("GET / HTTP/1.1\r\n" + big_header).code(),
            StatusCode::kResourceExhausted);
}

TEST(HttpRequestParserTest, OversizedBodyIsResourceExhausted) {
  HttpLimits limits;
  limits.max_body_bytes = 8;
  HttpRequestParser parser(limits);
  EXPECT_EQ(
      parser.Feed("POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n").code(),
      StatusCode::kResourceExhausted);
}

TEST(HttpRequestParserTest, PipelinedRequestsSplitAcrossFeeds) {
  HttpRequestParser parser;
  // Three pipelined requests, fed in fragments that split mid-line and
  // mid-body — the incremental parser must reassemble all of them.
  const std::string wire =
      "POST /v1/infer HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"node\":1}"
      "POST /v1/infer HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"node\":2}"
      "GET /metrics HTTP/1.1\r\n\r\n";
  for (size_t i = 0; i < wire.size(); i += 7) {
    ASSERT_TRUE(parser.Feed(wire.substr(i, 7)).ok());
  }
  HttpRequest request;
  ASSERT_TRUE(parser.TakeRequest(&request));
  EXPECT_EQ(request.body, "{\"node\":1}");
  ASSERT_TRUE(parser.TakeRequest(&request));
  EXPECT_EQ(request.body, "{\"node\":2}");
  ASSERT_TRUE(parser.TakeRequest(&request));
  EXPECT_EQ(request.target, "/metrics");
  EXPECT_FALSE(parser.TakeRequest(&request));
  EXPECT_TRUE(parser.OnEof().ok());
}

TEST(HttpRequestParserTest, MidBodyEofIsDataLoss) {
  HttpRequestParser parser;
  ASSERT_TRUE(
      parser.Feed("POST /v1/infer HTTP/1.1\r\nContent-Length: 10\r\n\r\n12345")
          .ok());
  HttpRequest request;
  EXPECT_FALSE(parser.TakeRequest(&request));  // Body still short 5 bytes.
  EXPECT_EQ(parser.OnEof().code(), StatusCode::kDataLoss);
}

TEST(HttpRequestParserTest, MalformedStartLineIsInvalidArgumentAndSticky) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Feed("BOGUS\r\n\r\n").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(parser.Feed("GET / HTTP/1.1\r\n\r\n").code(),
            StatusCode::kInvalidArgument);
}

TEST(HttpRequestParserTest, ChunkedTransferCodingIsRejected) {
  HttpRequestParser parser;
  EXPECT_EQ(
      parser
          .Feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(HttpResponseParserTest, EofTaxonomyMatchesRequestSide) {
  HttpResponseParser clean;
  ASSERT_TRUE(
      clean.Feed("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok").ok());
  HttpResponse response;
  ASSERT_TRUE(clean.TakeResponse(&response));
  EXPECT_EQ(response.status_code, 200);
  EXPECT_EQ(response.body, "ok");
  EXPECT_TRUE(clean.OnEof().ok());  // Closed at a boundary: clean goodbye.

  HttpResponseParser torn;
  ASSERT_TRUE(torn.Feed("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhal").ok());
  EXPECT_EQ(torn.OnEof().code(), StatusCode::kDataLoss);
}

// ------------------------------------------------------------------- JSON

TEST(JsonTest, ParsesInferRequestWithAllFields) {
  auto body = ParseInferRequest(
      R"({"node": 7, "tenant": "team-a", "deadline_micros": 5000})");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(body.value().node, 7);
  EXPECT_EQ(body.value().tenant, "team-a");
  EXPECT_EQ(body.value().deadline_micros, 5000);
}

TEST(JsonTest, RejectsUnknownKeysMissingNodeAndBadValues) {
  EXPECT_EQ(ParseInferRequest(R"({"node":1,"nodez":2})").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInferRequest(R"({"tenant":"x"})").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ParseInferRequest(R"({"node":1,"deadline_micros":-5})").status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseInferRequest("not json").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(JsonTest, RenderedResponsesAreByteStable) {
  InferenceResponse ok;
  ok.status = Status::OK();
  ok.node = 7;
  ok.tenant_id = "t";
  ok.predicted_class = 1;
  ok.cache_hit = true;
  ok.degraded = false;
  ok.logits = {0.5f, 0.25f};
  ok.latency_ticks = 123;  // Deliberately excluded from the rendering.
  EXPECT_EQ(RenderInferResponse(ok),
            "{\"status\":\"ok\",\"node\":7,\"tenant\":\"t\","
            "\"predicted_class\":1,\"cache_hit\":true,\"degraded\":false,"
            "\"logits\":[0.5,0.25]}");

  InferenceResponse failed;
  failed.status = Status::Unavailable("embedder down");
  failed.node = 3;
  EXPECT_EQ(RenderInferResponse(failed),
            "{\"status\":\"unavailable\",\"node\":3,"
            "\"error\":\"embedder down\"}");

  // Logits that print in exponent form, a -0 logit, the float extremes,
  // and strings holding quotes and control characters; each expected
  // string is what the printf-based renderer wrote.
  InferenceResponse edge;
  edge.status = Status::OK();
  edge.node = 4294967295u;
  edge.tenant_id = std::string("q\"t\x01") + "\x1f";
  edge.predicted_class = -1;
  edge.cache_hit = false;
  edge.degraded = true;
  edge.logits = {1e-8f, 1e20f,           -0.0f,    0.1f, -3.4028235e38f,
                 1.17549435e-38f, 1.4e-45f, 123456789.0f};
  EXPECT_EQ(RenderInferResponse(edge),
            "{\"status\":\"ok\",\"node\":4294967295,"
            "\"tenant\":\"q\\\"t\\u0001\\u001f\",\"predicted_class\":-1,"
            "\"cache_hit\":false,\"degraded\":true,"
            "\"logits\":[9.99999994e-09,1.00000002e+20,-0,0.100000001,"
            "-3.40282347e+38,1.17549435e-38,1.40129846e-45,123456792]}");

  InferenceResponse late;
  late.status = Status::DeadlineExceeded("late \"x\"\n\t\x02");
  late.node = 0;
  EXPECT_EQ(RenderInferResponse(late),
            "{\"status\":\"deadline_exceeded\",\"node\":0,"
            "\"error\":\"late \\\"x\\\"\\n\\t\\u0002\"}");
  EXPECT_EQ(RenderError(Status::InvalidArgument("bad\x7f\\")),
            "{\"status\":\"invalid_argument\",\"error\":\"bad\x7f\\\\\"}");
}

TEST(HttpSerializeTest, ResponseAndRequestBytesAreStable) {
  EXPECT_EQ(SerializeResponse(200, "OK", "{}", "application/json"),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            "Content-Length: 2\r\n\r\n{}");
  EXPECT_EQ(SerializeResponse(503, "Service Unavailable", "", "text/plain"),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n"
            "Content-Length: 0\r\n\r\n");
  EXPECT_EQ(SerializeRequest("POST", "/v1/infer", "{\"node\":1}",
                             "application/json"),
            "POST /v1/infer HTTP/1.1\r\nHost: sgnn\r\n"
            "Content-Type: application/json\r\nContent-Length: 10\r\n"
            "\r\n{\"node\":1}");
  EXPECT_EQ(SerializeRequest("GET", "/metrics", "", "application/json"),
            "GET /metrics HTTP/1.1\r\nHost: sgnn\r\n\r\n");
}

// -------------------------------------------------------------- admission

TEST(AdmissionQueueTest, DwrrDispatchSharesMatchWeightsExactly) {
  AdmissionConfig config;
  config.tenants["a"] = TenantQuota{1.0, 1e18, 0.0};
  config.tenants["b"] = TenantQuota{2.0, 1e18, 0.0};
  config.tenants["c"] = TenantQuota{4.0, 1e18, 0.0};
  config.record_dispatch_log = true;
  AdmissionQueue queue(config);

  queue.Pause();  // Saturate: offers queue, nothing drains.
  constexpr int kPerTenant = 20;
  for (const std::string tenant : {"a", "b", "c"}) {
    for (int i = 0; i < kPerTenant; ++i) {
      InferenceRequest request(static_cast<NodeId>(i));
      request.tenant_id = tenant;
      ASSERT_TRUE(queue.Offer(std::move(request), /*cookie=*/0).ok());
    }
  }
  ASSERT_EQ(queue.TotalQueued(), 3u * kPerTenant);
  queue.Resume();

  InferenceRequest request;
  uint64_t cookie = 0;
  for (int i = 0; i < 3 * kPerTenant; ++i) {
    ASSERT_TRUE(queue.PopDispatch(&request, &cookie));
  }
  // While every tenant is backlogged, DWRR with quantum 1 serves exactly
  // weight-many requests per cycle: 5 cycles of (1 a, 2 b, 4 c) cover the
  // first 35 dispatches. Counting-based, so the shares are exact, not
  // statistical.
  const std::vector<std::string> log = queue.DispatchLog();
  ASSERT_EQ(log.size(), 3u * kPerTenant);
  std::map<std::string, int> first35;
  for (int i = 0; i < 35; ++i) ++first35[log[static_cast<size_t>(i)]];
  EXPECT_EQ(first35["a"], 5);
  EXPECT_EQ(first35["b"], 10);
  EXPECT_EQ(first35["c"], 20);
}

TEST(AdmissionQueueTest, TokenBucketRejectsWhenEmptyAndRefillsPerDispatch) {
  AdmissionConfig config;
  config.tenants["capped"] = TenantQuota{1.0, /*bucket_capacity=*/2.0,
                                         /*refill_per_dispatch=*/1.0};
  AdmissionQueue queue(config);

  auto offer = [&] {
    InferenceRequest request(0);
    request.tenant_id = "capped";
    return queue.Offer(std::move(request), 0);
  };
  EXPECT_TRUE(offer().ok());
  EXPECT_TRUE(offer().ok());
  EXPECT_EQ(offer().code(), StatusCode::kResourceExhausted);

  // One dispatch event grants refill_per_dispatch tokens back — the
  // bucket clock counts dispatches, not wall time.
  InferenceRequest request;
  uint64_t cookie = 0;
  ASSERT_TRUE(queue.PopDispatch(&request, &cookie));
  EXPECT_TRUE(offer().ok());
  EXPECT_EQ(offer().code(), StatusCode::kResourceExhausted);
}

TEST(AdmissionQueueTest, PerTenantQueueBoundIsolatesNeighbours) {
  AdmissionConfig config;
  config.per_tenant_capacity = 2;
  AdmissionQueue queue(config);
  queue.Pause();

  auto offer = [&](const std::string& tenant) {
    InferenceRequest request(0);
    request.tenant_id = tenant;
    return queue.Offer(std::move(request), 0);
  };
  EXPECT_TRUE(offer("flood").ok());
  EXPECT_TRUE(offer("flood").ok());
  // The flooding tenant fills its own bounded FIFO...
  EXPECT_EQ(offer("flood").code(), StatusCode::kUnavailable);
  // ...without consuming its neighbour's admission capacity.
  EXPECT_TRUE(offer("quiet").ok());
}

// An unlisted tenant is forgotten once its queue drains, so ids a client
// made up cost neither memory nor a longer walk on every dispatch, and
// they do not dilute the fill fraction the load-shed check reads.
TEST(AdmissionQueueTest, DrainedUnlistedTenantsLeaveNoTrace) {
  AdmissionConfig config;
  config.per_tenant_capacity = 4;
  AdmissionQueue queue(config);
  constexpr int kTenants = 1000;
  InferenceRequest popped;
  uint64_t cookie = 0;
  for (int t = 0; t < kTenants; ++t) {
    InferenceRequest request(1);
    request.tenant_id = "drive-by-" + std::to_string(t);
    ASSERT_TRUE(queue.Offer(std::move(request), 0).ok());
    ASSERT_TRUE(queue.PopDispatch(&popped, &cookie));
  }
  EXPECT_EQ(queue.FillFraction(), 0.0);

  queue.Pause();
  for (int i = 0; i < 2; ++i) {
    InferenceRequest request(1);
    request.tenant_id = "held";
    ASSERT_TRUE(queue.Offer(std::move(request), 0).ok());
  }
  // Half of the one backlogged tenant's capacity, not 2 / (4 * 1001).
  EXPECT_EQ(queue.FillFraction(), 0.5);

  // A drive-by id that comes back is a new tenant with its own queue, and
  // every queued request is still dispatched once.
  InferenceRequest again(2);
  again.tenant_id = "drive-by-7";
  ASSERT_TRUE(queue.Offer(std::move(again), 0).ok());
  EXPECT_EQ(queue.FillFraction(), 3.0 / 8.0);
  queue.Resume();
  std::vector<NodeId> dispatched;
  while (queue.PopDispatch(&popped, &cookie)) {
    dispatched.push_back(popped.node);
  }
  std::sort(dispatched.begin(), dispatched.end());
  EXPECT_EQ(dispatched, (std::vector<NodeId>{1, 1, 2}));
  EXPECT_EQ(queue.FillFraction(), 0.0);
}

// A weight DWRR can never serve would leave admitted requests queued
// forever (and a front door's shutdown waiting on them), so the
// constructor refuses it.
TEST(AdmissionQueueDeathTest, WeightThatCanNeverDispatchIsRefused) {
  for (const double weight :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    AdmissionConfig config;
    config.tenants["t"] = TenantQuota{weight, 1e18, 0.0};
    EXPECT_DEATH(AdmissionQueue queue(config), "quota.weight")
        << "weight " << weight;
  }
}

TEST(AdmissionQueueTest, CloseDrainsQueuedRequestsThenStops) {
  AdmissionQueue queue(AdmissionConfig{});
  ASSERT_TRUE(queue.Offer(InferenceRequest(1), 11).ok());
  ASSERT_TRUE(queue.Offer(InferenceRequest(2), 22).ok());
  queue.Close();
  EXPECT_EQ(queue.Offer(InferenceRequest(3), 33).code(),
            StatusCode::kFailedPrecondition);
  InferenceRequest request;
  uint64_t cookie = 0;
  ASSERT_TRUE(queue.PopDispatch(&request, &cookie));
  EXPECT_EQ(cookie, 11u);
  ASSERT_TRUE(queue.PopDispatch(&request, &cookie));
  EXPECT_EQ(cookie, 22u);
  EXPECT_FALSE(queue.PopDispatch(&request, &cookie));
}

// ------------------------------------------------------- loopback harness

constexpr int64_t kEmbedDim = 8;
constexpr int kClasses = 3;
constexpr NodeId kNodes = 64;

FrozenModel TestModel() {
  common::Rng rng(17);
  nn::Mlp mlp({kEmbedDim, kClasses}, /*dropout=*/0.0, &rng);
  return FrozenModel::FromMlp(mlp);
}

void FillEmbedding(NodeId node, std::span<float> out) {
  for (size_t j = 0; j < out.size(); ++j) {
    out[j] = 0.01f * static_cast<float>(node) + static_cast<float>(j);
  }
}

ServeConfig QuickServeConfig() {
  ServeConfig config;
  config.max_batch = 1;
  config.max_delay_micros = 0;
  config.queue_capacity = 1024;
  config.num_workers = 1;
  return config;
}

std::string InferBody(NodeId node, const std::string& tenant = "") {
  std::string body = "{\"node\":" + std::to_string(node);
  if (!tenant.empty()) body += ",\"tenant\":\"" + tenant + "\"";
  return body + "}";
}

HttpClient Dial(uint16_t port) {
  auto client = HttpClient::Connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

/// Polls `predicate` for up to ~2 seconds.
bool WaitFor(const std::function<bool()>& predicate) {
  for (int i = 0; i < 2000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

// --------------------------------------------------------- front door e2e

TEST(HttpFrontDoorTest, ServesInferMetricsHealthzAndErrors) {
  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());
  HttpFrontDoor door(&server, HttpFrontDoorConfig{});
  ASSERT_TRUE(door.Start().ok());
  HttpClient client = Dial(door.port());

  auto infer = client.Post("/v1/infer", InferBody(3));
  ASSERT_TRUE(infer.ok()) << infer.status().ToString();
  EXPECT_EQ(infer.value().status_code, 200);
  EXPECT_NE(infer.value().body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(infer.value().body.find("\"node\":3"), std::string::npos);
  EXPECT_NE(infer.value().body.find("\"logits\":["), std::string::npos);

  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().status_code, 200);
  EXPECT_NE(metrics.value().body.find("sgnn_net_http_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics.value().body.find("sgnn_net_infer_admitted_total 1"),
            std::string::npos);

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status_code, 200);
  EXPECT_EQ(health.value().body, "ok\n");

  auto missing = client.Get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status_code, 404);
  auto wrong_method = client.Post("/healthz", "{}");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method.value().status_code, 405);
  auto bad_json = client.Post("/v1/infer", "{\"node\":");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json.value().status_code, 400);
  auto bad_node = client.Post("/v1/infer", InferBody(kNodes + 100));
  ASSERT_TRUE(bad_node.ok());
  EXPECT_EQ(bad_node.value().status_code, 400);  // Out of the id universe.
  EXPECT_NE(bad_node.value().body.find("invalid_argument"),
            std::string::npos);
}

TEST(HttpFrontDoorTest, PipelinedInferResponsesArriveInRequestOrder) {
  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());
  HttpFrontDoor door(&server, HttpFrontDoorConfig{});
  ASSERT_TRUE(door.Start().ok());
  HttpClient client = Dial(door.port());

  const std::vector<NodeId> nodes = {5, 1, 9, 1, 5};
  for (NodeId node : nodes) {
    ASSERT_TRUE(client
                    .SendRequest("POST", "/v1/infer", InferBody(node),
                                 "application/json")
                    .ok());
  }
  for (NodeId node : nodes) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status_code, 200);
    EXPECT_NE(response.value().body.find(
                  "\"node\":" + std::to_string(node) + ","),
              std::string::npos);
  }
}

TEST(HttpFrontDoorTest, ResponsesBitIdenticalToInProcessSubmit) {
  // Two identical servers (same seed, same embedder): one serves
  // in-process futures, the other sits behind the front door. The same
  // request stream must produce byte-identical JSON bodies, including
  // cache_hit transitions — the shared renderer excludes only latency.
  auto embed = [](NodeId node, std::span<float> out) {
    FillEmbedding(node, out);
    return Status::OK();
  };
  BatchingServer in_process(TestModel(), embed, kNodes, QuickServeConfig());
  BatchingServer behind_http(TestModel(), embed, kNodes, QuickServeConfig());
  HttpFrontDoor door(&behind_http, HttpFrontDoorConfig{});
  ASSERT_TRUE(door.Start().ok());
  HttpClient client = Dial(door.port());

  const std::vector<NodeId> stream = {0, 7, 13, 0, 7, 13, 13, 0};
  for (NodeId node : stream) {
    auto future = in_process.Submit(InferenceRequest(node));
    ASSERT_TRUE(future.ok());
    const std::string expected =
        RenderInferResponse(std::move(future).value().get());

    auto response = client.Post("/v1/infer", InferBody(node));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status_code, 200);
    EXPECT_EQ(response.value().body, expected) << "node " << node;
  }
}

TEST(HttpFrontDoorTest, WeightedFairSharesUnderSaturation) {
  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());

  HttpFrontDoorConfig config;
  config.admission.tenants["a"] = TenantQuota{1.0, 1e18, 0.0};
  config.admission.tenants["b"] = TenantQuota{2.0, 1e18, 0.0};
  config.admission.tenants["c"] = TenantQuota{4.0, 1e18, 0.0};
  config.admission.record_dispatch_log = true;
  HttpFrontDoor door(&server, config);
  ASSERT_TRUE(door.Start().ok());

  // Saturate: pause dispatch, then pipeline 40 requests per tenant over
  // three real loopback connections.
  door.admission().Pause();
  constexpr int kPerTenant = 40;
  std::map<std::string, HttpClient> clients;
  for (const std::string tenant : {"a", "b", "c"}) {
    clients.emplace(tenant, Dial(door.port()));
    for (int i = 0; i < kPerTenant; ++i) {
      ASSERT_TRUE(clients.at(tenant)
                      .SendRequest("POST", "/v1/infer",
                                   InferBody(static_cast<NodeId>(i % kNodes),
                                             tenant),
                                   "application/json")
                      .ok());
    }
  }
  ASSERT_TRUE(WaitFor(
      [&] { return door.admission().TotalQueued() == 3u * kPerTenant; }))
      << "only " << door.admission().TotalQueued() << " requests queued";
  door.admission().Resume();

  for (auto& [tenant, client] : clients) {
    for (int i = 0; i < kPerTenant; ++i) {
      auto response = client.ReadResponse();
      ASSERT_TRUE(response.ok())
          << tenant << "#" << i << ": " << response.status().ToString();
      EXPECT_EQ(response.value().status_code, 200);
      EXPECT_NE(response.value().body.find("\"tenant\":\"" + tenant + "\""),
                std::string::npos);
    }
  }

  // While all three tenants were backlogged (the first 10 DWRR cycles =
  // 70 dispatches), the dequeue shares must match the 1:2:4 weights. The
  // schedule is counting-based, so the shares are exact — well inside the
  // 10% acceptance band.
  const std::vector<std::string> log = door.admission().DispatchLog();
  ASSERT_EQ(log.size(), 3u * kPerTenant);
  std::map<std::string, int> prefix;
  for (int i = 0; i < 70; ++i) ++prefix[log[static_cast<size_t>(i)]];
  EXPECT_EQ(prefix["a"], 10);
  EXPECT_EQ(prefix["b"], 20);
  EXPECT_EQ(prefix["c"], 40);
}

TEST(HttpFrontDoorTest, ShedTiersDegradeExactToStaleToReject) {
  // An embedder with a kill switch: healthy first (to trip nothing and
  // warm the cache), then permanently down (to trip the breaker).
  std::atomic<bool> embedder_down{false};
  ServeConfig serve_config = QuickServeConfig();
  serve_config.breaker.failure_threshold = 2;
  serve_config.embed_retry.max_attempts = 1;
  // Rows go stale after one batch, so a serve of a cached row under the
  // open breaker is observably degraded rather than a fresh hit.
  serve_config.max_staleness = 0;
  BatchingServer server(
      TestModel(),
      [&embedder_down](NodeId node, std::span<float> out) {
        if (embedder_down.load()) return Status::Unavailable("embedder down");
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, serve_config);

  HttpFrontDoorConfig config;
  config.admission.per_tenant_capacity = 4;
  HttpFrontDoor door(&server, config);
  ASSERT_TRUE(door.Start().ok());
  HttpClient client = Dial(door.port());

  // Tier 1 — exact: healthy serve, caches node 1's row.
  auto exact = client.Post("/v1/infer", InferBody(1));
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.value().status_code, 200);
  EXPECT_NE(exact.value().body.find("\"degraded\":false"), std::string::npos);
  EXPECT_TRUE(door.Healthy());

  // Kill the embedder; two uncached nodes, with no row to degrade to,
  // fail and trip the breaker.
  embedder_down.store(true);
  for (NodeId node : {NodeId{2}, NodeId{3}}) {
    auto failed = client.Post("/v1/infer", InferBody(node));
    ASSERT_TRUE(failed.ok());
    EXPECT_EQ(failed.value().status_code, 503);
    EXPECT_NE(failed.value().body.find("unavailable"), std::string::npos);
  }
  ASSERT_EQ(server.breaker_state(), common::CircuitBreaker::State::kOpen);

  // Tier 2 — stale: the open breaker fast-fails node 1's miss without
  // calling the embedder; its cached row still serves, flagged degraded.
  auto stale = client.Post("/v1/infer", InferBody(1));
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale.value().status_code, 200);
  EXPECT_NE(stale.value().body.find("\"degraded\":true"), std::string::npos);
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status_code, 503);
  EXPECT_NE(health.value().body.find("breaker=open"), std::string::npos);

  // Tier 3 — reject: open breaker + admission at least half full turns
  // requests away at the door. Pause dispatch so the fill holds still. The
  // probe uses its own connection: responses are written in request order
  // per connection, so anything pipelined behind the two held requests
  // would (correctly) wait for them.
  door.admission().Pause();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client
                    .SendRequest("POST", "/v1/infer", InferBody(1),
                                 "application/json")
                    .ok());
  }
  ASSERT_TRUE(WaitFor([&] { return door.admission().TotalQueued() == 2; }));
  HttpClient probe = Dial(door.port());
  auto rejected = probe.Post("/v1/infer", InferBody(1));
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected.value().status_code, 503);
  EXPECT_NE(rejected.value().body.find("load shed"), std::string::npos);
  auto health_reject = probe.Get("/healthz");
  ASSERT_TRUE(health_reject.ok());
  EXPECT_EQ(health_reject.value().status_code, 503);
  EXPECT_NE(health_reject.value().body.find("breaker=open"),
            std::string::npos);

  // Draining the backlog de-escalates reject back to stale.
  door.admission().Resume();
  for (int i = 0; i < 2; ++i) {
    auto drained = client.ReadResponse();
    ASSERT_TRUE(drained.ok());
    EXPECT_EQ(drained.value().status_code, 200);
    EXPECT_NE(drained.value().body.find("\"degraded\":true"),
              std::string::npos);
  }
}

// Behind the door, a miss under an open breaker reaches the server's
// breaker, so every `probe_interval`-th one probes the embedder: once the
// embedder is healed, infers for uncached nodes alone close the breaker.
TEST(HttpFrontDoorTest, BreakerClosesOnceTheEmbedderRecovers) {
  constexpr int kProbeInterval = 4;
  std::atomic<bool> embedder_down{true};
  ServeConfig serve_config = QuickServeConfig();
  serve_config.breaker.failure_threshold = 2;
  serve_config.breaker.probe_interval = kProbeInterval;
  serve_config.embed_retry.max_attempts = 1;
  BatchingServer server(
      TestModel(),
      [&embedder_down](NodeId node, std::span<float> out) {
        if (embedder_down.load()) return Status::Unavailable("embedder down");
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, serve_config);
  HttpFrontDoor door(&server, HttpFrontDoorConfig{});
  ASSERT_TRUE(door.Start().ok());
  HttpClient client = Dial(door.port());

  NodeId node = 0;
  for (int i = 0; i < 2; ++i) {
    auto failed = client.Post("/v1/infer", InferBody(node++));
    ASSERT_TRUE(failed.ok());
    EXPECT_EQ(failed.value().status_code, 503);
  }
  ASSERT_EQ(server.breaker_state(), common::CircuitBreaker::State::kOpen);

  // Heal the embedder. Each miss before the probe fast-fails with no row
  // to degrade to; the probe embeds, answers and closes the breaker.
  embedder_down.store(false);
  int misses = 0;
  while (server.breaker_state() != common::CircuitBreaker::State::kClosed &&
         misses < kProbeInterval) {
    auto answer = client.Post("/v1/infer", InferBody(node++));
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    ++misses;
    EXPECT_EQ(answer.value().status_code, misses < kProbeInterval ? 503 : 200)
        << "miss " << misses;
  }
  EXPECT_EQ(server.breaker_state(), common::CircuitBreaker::State::kClosed)
      << "still " << common::CircuitBreaker::StateName(server.breaker_state())
      << " after " << misses << " misses";

  auto fresh = client.Post("/v1/infer", InferBody(node));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().status_code, 200);
  EXPECT_NE(fresh.value().body.find("\"degraded\":false"), std::string::npos)
      << fresh.value().body;
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status_code, 200);
  EXPECT_EQ(health.value().body, "ok\n");
}

// A half-open breaker sheds nothing, even with admission half full: its
// probe is out at the embedder, and what queues behind the probe is served
// once the probe has closed the breaker.
TEST(HttpFrontDoorTest, HalfOpenBreakerShedsNothing) {
  std::atomic<bool> embedder_down{true};
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> held{0};
  ServeConfig serve_config = QuickServeConfig();
  serve_config.breaker.failure_threshold = 2;
  serve_config.breaker.probe_interval = 1;  // The first miss probes.
  serve_config.embed_retry.max_attempts = 1;
  BatchingServer server(
      TestModel(),
      [&embedder_down, &held, opened](NodeId node, std::span<float> out) {
        if (embedder_down.load()) return Status::Unavailable("embedder down");
        held.fetch_add(1);
        opened.wait();
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, serve_config);
  HttpFrontDoorConfig config;
  config.admission.per_tenant_capacity = 4;
  HttpFrontDoor door(&server, config);
  ASSERT_TRUE(door.Start().ok());

  HttpClient probe = Dial(door.port());
  for (NodeId node : {NodeId{0}, NodeId{1}}) {
    auto failed = probe.Post("/v1/infer", InferBody(node));
    ASSERT_TRUE(failed.ok());
    EXPECT_EQ(failed.value().status_code, 503);
  }
  ASSERT_EQ(server.breaker_state(), common::CircuitBreaker::State::kOpen);

  // The next miss is the probe; it waits in the embedder on the gate.
  embedder_down.store(false);
  ASSERT_TRUE(
      probe.SendRequest("POST", "/v1/infer", InferBody(2), "application/json")
          .ok());
  ASSERT_TRUE(WaitFor([&] { return held.load() == 1; }));
  ASSERT_EQ(server.breaker_state(), common::CircuitBreaker::State::kHalfOpen);

  // Fill admission to half, then offer one more on another connection.
  door.admission().Pause();
  HttpClient queued = Dial(door.port());
  for (NodeId node : {NodeId{3}, NodeId{4}}) {
    ASSERT_TRUE(queued
                    .SendRequest("POST", "/v1/infer", InferBody(node),
                                 "application/json")
                    .ok());
  }
  ASSERT_TRUE(WaitFor([&] { return door.admission().TotalQueued() == 2; }));
  ASSERT_EQ(door.admission().FillFraction(), 0.5);
  HttpClient late = Dial(door.port());
  ASSERT_TRUE(
      late.SendRequest("POST", "/v1/infer", InferBody(5), "application/json")
          .ok());
  EXPECT_TRUE(WaitFor([&] { return door.admission().TotalQueued() == 3; }))
      << "the infer at half fill was not admitted";
  auto health = Dial(door.port()).Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status_code, 503);
  EXPECT_NE(health.value().body.find("breaker=half-open"), std::string::npos)
      << health.value().body;

  // The probe succeeds and closes the breaker. A closed breaker sheds
  // nothing either, even with admission full; everything queued is served
  // fresh.
  gate.set_value();
  auto probed = probe.ReadResponse();
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  EXPECT_EQ(probed.value().status_code, 200);
  EXPECT_EQ(server.breaker_state(), common::CircuitBreaker::State::kClosed);
  ASSERT_TRUE(
      late.SendRequest("POST", "/v1/infer", InferBody(6), "application/json")
          .ok());
  EXPECT_TRUE(WaitFor([&] { return door.admission().TotalQueued() == 4; }))
      << "the infer at 3/4 fill was not admitted";
  door.admission().Resume();
  for (HttpClient* client : {&queued, &queued, &late, &late}) {
    auto answer = client->ReadResponse();
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer.value().status_code, 200);
    EXPECT_NE(answer.value().body.find("\"degraded\":false"),
              std::string::npos)
        << answer.value().body;
  }
}

// `deadline_micros` may be any int64 >= 0. A budget past the clock's range
// is no deadline, not an overflowed one that expired long ago.
TEST(HttpFrontDoorTest, DeadlinePastTheClockRangeNeverExpires) {
  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());
  HttpFrontDoor door(&server, HttpFrontDoorConfig{});
  ASSERT_TRUE(door.Start().ok());
  HttpClient client = Dial(door.port());

  auto answer = client.Post(
      "/v1/infer", "{\"node\":3,\"deadline_micros\":9223372036854775807}");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer.value().status_code, 200) << answer.value().body;
  EXPECT_NE(answer.value().body.find("\"status\":\"ok\""), std::string::npos);
}

TEST(HttpFrontDoorTest, TenantQuotaRejects429) {
  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());
  HttpFrontDoorConfig config;
  config.admission.tenants["capped"] =
      TenantQuota{1.0, /*bucket_capacity=*/1.0, /*refill_per_dispatch=*/0.0};
  HttpFrontDoor door(&server, config);
  ASSERT_TRUE(door.Start().ok());
  HttpClient client = Dial(door.port());

  auto first = client.Post("/v1/infer", InferBody(1, "capped"));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().status_code, 200);
  auto second = client.Post("/v1/infer", InferBody(2, "capped"));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().status_code, 429);
  EXPECT_NE(second.value().body.find("resource_exhausted"),
            std::string::npos);
  // The anonymous tenant is not billed against "capped"'s bucket.
  auto other = client.Post("/v1/infer", InferBody(3));
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other.value().status_code, 200);
}

TEST(HttpFrontDoorTest, HealthzFlipsOnInjectedTornReadsAndRecovers) {
  common::FaultInjector faults(7);
  // Tear connection 1's first read mid-message.
  faults.ArmAt(kSiteReadTrunc,
               static_cast<int64_t>(ReadToken(/*conn_id=*/1, /*read_seq=*/0)));
  core::RunContext ctx;
  ctx.faults = &faults;

  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());
  HttpFrontDoorConfig config;
  config.torn_read_threshold = 1;
  HttpFrontDoor door(&server, config, ctx);
  ASSERT_TRUE(door.Start().ok());

  HttpClient probe = Dial(door.port());  // conn 0
  auto healthy = probe.Get("/healthz");
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy.value().status_code, 200);

  // conn 1: its first read is torn by the injector; the server closes the
  // connection without answering (clean close from the client's side — it
  // had no response bytes in flight).
  HttpClient victim = Dial(door.port());
  ASSERT_TRUE(
      victim.SendRequest("POST", "/v1/infer", InferBody(1), "application/json")
          .ok());
  auto torn = victim.ReadResponse();
  EXPECT_FALSE(torn.ok());

  // The torn stream flips /healthz; probes are observers and do not reset
  // the streak, so the 503 stays visible across consecutive probes.
  ASSERT_TRUE(WaitFor([&] { return !door.Healthy(); }));
  for (int i = 0; i < 2; ++i) {
    auto unhealthy = probe.Get("/healthz");
    ASSERT_TRUE(unhealthy.ok());
    EXPECT_EQ(unhealthy.value().status_code, 503);
    EXPECT_NE(unhealthy.value().body.find("torn_streak=1"),
              std::string::npos);
  }

  // Any successfully parsed request proves the stream is healthy again.
  auto good = probe.Post("/v1/infer", InferBody(1));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().status_code, 200);
  auto recovered = probe.Get("/healthz");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().status_code, 200);
}

TEST(HttpFrontDoorTest, InjectedAcceptFaultDropsOneConnection) {
  common::FaultInjector faults(7);
  faults.ArmAt(kSiteAcceptFail, 1);  // Drop the second accepted connection.
  core::RunContext ctx;
  ctx.faults = &faults;

  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());
  HttpFrontDoor door(&server, HttpFrontDoorConfig{}, ctx);
  ASSERT_TRUE(door.Start().ok());

  HttpClient first = Dial(door.port());
  ASSERT_TRUE(first.Get("/healthz").ok());

  // The dropped connection establishes at the TCP level (the kernel
  // completed the handshake) but the front door closes it immediately.
  HttpClient dropped = Dial(door.port());
  ASSERT_TRUE(dropped
                  .SendRequest("GET", "/healthz", "", "application/json")
                  .ok());
  EXPECT_FALSE(dropped.ReadResponse().ok());

  // The listener keeps accepting, and accept faults do not mark the
  // service unhealthy — no stream was torn mid-message.
  HttpClient third = Dial(door.port());
  auto health = third.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status_code, 200);
}

TEST(HttpFrontDoorTest, SharedRegistryExposesNetAndServeSeries) {
  obs::MetricsRegistry registry;
  core::RunContext ctx;
  ctx.metrics = &registry;

  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig(), ctx);
  HttpFrontDoor door(&server, HttpFrontDoorConfig{}, ctx);
  ASSERT_TRUE(door.Start().ok());
  HttpClient client = Dial(door.port());

  ASSERT_TRUE(client.Post("/v1/infer", InferBody(4)).ok());
  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  const std::string& body = metrics.value().body;
  // One registry, one scrape: the net series and the serve series the
  // front door fronts arrive in the same exposition.
  EXPECT_NE(body.find("sgnn_net_accepted_total"), std::string::npos);
  EXPECT_NE(body.find("sgnn_net_dispatches_total 1"), std::string::npos);
  EXPECT_NE(body.find("sgnn_serve_requests_served_total"),
            std::string::npos);
  EXPECT_NE(body.find("sgnn_serve_latency_ticks"), std::string::npos);
}

TEST(HttpFrontDoorTest, StalledBatchHoldsNoOtherConnection) {
  // Node 7's embedding waits on a gate; every other node is immediate.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> stalled{0};
  ServeConfig serve_config = QuickServeConfig();
  serve_config.num_workers = 3;
  BatchingServer server(
      TestModel(),
      [opened, &stalled](NodeId node, std::span<float> out) {
        if (node == 7) {
          stalled.fetch_add(1);
          opened.wait();
        }
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, serve_config);
  HttpFrontDoor door(&server, HttpFrontDoorConfig{});
  ASSERT_TRUE(door.Start().ok());

  // Connection A pipelines two infers that both stall, one per worker.
  HttpClient a = Dial(door.port());
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(
        a.SendRequest("POST", "/v1/infer", InferBody(7), "application/json")
            .ok());
  }
  EXPECT_TRUE(WaitFor([&] { return stalled.load() == 2; }));

  // Connection B's infer runs on the third worker and must not wait for A.
  HttpClient b = Dial(door.port());
  auto answered = std::async(std::launch::async, [&b] {
    return b.Post("/v1/infer", InferBody(1));
  });
  const bool in_time = answered.wait_for(std::chrono::seconds(2)) ==
                       std::future_status::ready;
  gate.set_value();
  EXPECT_TRUE(in_time) << "connection B waited for connection A's batch";
  auto response = answered.get();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status_code, 200);
  EXPECT_NE(response.value().body.find("\"node\":1,"), std::string::npos);

  for (int i = 0; i < 2; ++i) {
    auto held = a.ReadResponse();
    ASSERT_TRUE(held.ok()) << held.status().ToString();
    EXPECT_EQ(held.value().status_code, 200);
    EXPECT_NE(held.value().body.find("\"node\":7,"), std::string::npos);
  }
}

// The backlog waits in admission, where each tenant has its own queue,
// not in the server's one shared queue: while tenant a's stalled batch
// holds the only worker and a has more infers queued than the server's
// queue holds, tenant b's one infer is still admitted and answered, and
// none of a's is refused.
TEST(HttpFrontDoorTest, FloodingTenantLeavesItsNeighbourAServerSlot) {
  obs::MetricsRegistry registry;
  core::RunContext ctx;
  ctx.metrics = &registry;
  std::promise<void> latch;
  std::shared_future<void> opened = latch.get_future().share();
  std::atomic<int> stalled{0};
  ServeConfig serve_config = QuickServeConfig();  // One worker.
  serve_config.queue_capacity = 2;
  BatchingServer server(
      TestModel(),
      [opened, &stalled](NodeId node, std::span<float> out) {
        if (node == 7) {
          stalled.fetch_add(1);
          opened.wait();
        }
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, serve_config);
  HttpFrontDoorConfig config;
  config.admission.per_tenant_capacity = 256;
  HttpFrontDoor door(&server, config, ctx);
  ASSERT_TRUE(door.Start().ok());
  const obs::Counter* admitted = registry.GetCounter(
      "sgnn_net_infer_admitted_total", "", {}, obs::kVolatile);

  // a's first infer holds the worker; two of the next five fill the
  // server's queue and three are left over. (No ASSERT before the latch
  // opens: the held worker would hang the server's shutdown.)
  constexpr int kFlood = 6;
  HttpClient a = Dial(door.port());
  for (int i = 0; i < kFlood; ++i) {
    EXPECT_TRUE(a.SendRequest("POST", "/v1/infer", InferBody(7, "a"),
                              "application/json")
                    .ok());
    if (i == 0) {
      EXPECT_TRUE(WaitFor([&] { return stalled.load() == 1; }));
    }
  }
  EXPECT_TRUE(WaitFor([&] { return admitted->value() == uint64_t{kFlood}; }));
  HttpClient b = Dial(door.port());
  EXPECT_TRUE(
      b.SendRequest("POST", "/v1/infer", InferBody(1, "b"), "application/json")
          .ok());
  EXPECT_TRUE(
      WaitFor([&] { return admitted->value() == uint64_t{kFlood} + 1; }));
  latch.set_value();

  auto answer = b.ReadResponse();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer.value().status_code, 200) << answer.value().body;
  EXPECT_NE(answer.value().body.find("\"tenant\":\"b\""), std::string::npos);
  for (int i = 0; i < kFlood; ++i) {
    auto flooded = a.ReadResponse();
    ASSERT_TRUE(flooded.ok()) << "#" << i << ": "
                              << flooded.status().ToString();
    EXPECT_EQ(flooded.value().status_code, 200)
        << "#" << i << ": " << flooded.value().body;
  }
}

// An answer is routed to its connection by id, never by socket: a peer
// that closes while its infer stalls in the embedder must cost the next
// connection nothing, even when that connection's accept reuses the
// closed fd number (the kernel hands out the lowest free one).
TEST(HttpFrontDoorTest, AnswerForAClosedConnectionReachesNoOther) {
  obs::MetricsRegistry registry;
  core::RunContext ctx;
  ctx.metrics = &registry;
  std::promise<void> latch;
  std::shared_future<void> opened = latch.get_future().share();
  std::atomic<int> stalled{0};
  BatchingServer server(
      TestModel(),
      [opened, &stalled](NodeId node, std::span<float> out) {
        if (node == 7) {
          stalled.fetch_add(1);
          opened.wait();
        }
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());  // One worker.
  HttpFrontDoor door(&server, HttpFrontDoorConfig{}, ctx);
  ASSERT_TRUE(door.Start().ok());
  const obs::Gauge* open_connections = registry.GetGauge(
      "sgnn_net_open_connections", "", {}, obs::kVolatile);

  {
    HttpClient peer = Dial(door.port());
    ASSERT_TRUE(
        peer.SendRequest("POST", "/v1/infer", InferBody(7), "application/json")
            .ok());
    ASSERT_TRUE(WaitFor([&] { return stalled.load() == 1; }));
  }  // The peer closes while its answer is in flight.
  ASSERT_TRUE(WaitFor([&] { return open_connections->value() == 0.0; }));

  HttpClient next = Dial(door.port());
  ASSERT_TRUE(next.SendRequest("GET", "/healthz", "", "text/plain").ok());
  ASSERT_TRUE(
      next.SendRequest("POST", "/v1/infer", InferBody(3), "application/json")
          .ok());
  auto health = next.ReadResponse();  // The loop answers it at once.
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().status_code, 200);
  EXPECT_EQ(health.value().body, "ok\n");
  latch.set_value();  // Node 7 answers the dead peer, then node 3 runs.

  auto infer = next.ReadResponse();
  ASSERT_TRUE(infer.ok()) << infer.status().ToString();
  EXPECT_EQ(infer.value().status_code, 200);
  EXPECT_NE(infer.value().body.find("\"node\":3,"), std::string::npos)
      << infer.value().body;
  // Nothing of the dead peer's follows, and the door keeps serving: the
  // next answer on this connection is the next request's.
  auto again = next.Post("/v1/infer", InferBody(5));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().status_code, 200);
  EXPECT_NE(again.value().body.find("\"node\":5,"), std::string::npos)
      << again.value().body;
}

TEST(HttpFrontDoorTest, ReaderThatStopsReadingStallsNoOne) {
  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());
  HttpFrontDoor door(&server, HttpFrontDoorConfig{});
  ASSERT_TRUE(door.Start().ok());

  // Pipelines scrapes and never reads an answer. The answers fill the
  // socket buffers, then pile up at the front door until it closes the
  // connection; the next send fails and the thread ends.
  HttpClient flood = Dial(door.port());
  std::atomic<int> sent{0};
  std::atomic<bool> send_failed{false};
  std::thread flooder([&flood, &sent, &send_failed] {
    for (int i = 0; i < (1 << 20); ++i) {
      if (!flood.SendRequest("GET", "/metrics", "", "text/plain").ok()) {
        send_failed.store(true);
        return;
      }
      sent.fetch_add(1);
    }
  });
  EXPECT_TRUE(WaitFor([&] { return sent.load() >= 1000; }));

  HttpClient probe = Dial(door.port());
  auto health = std::async(std::launch::async,
                           [&probe] { return probe.Get("/healthz"); });
  EXPECT_EQ(health.wait_for(std::chrono::seconds(3)),
            std::future_status::ready)
      << "a peer that stopped reading stalled the event loop";
  flooder.join();
  EXPECT_TRUE(send_failed.load()) << "the flooding connection stayed open";
  auto answer = health.get();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer.value().status_code, 200);
}

TEST(HttpFrontDoorTest, ShutdownAnswersEveryAdmittedRequest) {
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  BatchingServer server(
      TestModel(),
      [opened](NodeId node, std::span<float> out) {
        opened.wait();
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());
  HttpFrontDoor door(&server, HttpFrontDoorConfig{});
  ASSERT_TRUE(door.Start().ok());

  door.admission().Pause();
  constexpr int kPerConn = 4;
  std::vector<HttpClient> clients;
  clients.push_back(Dial(door.port()));
  clients.push_back(Dial(door.port()));
  for (HttpClient& client : clients) {
    for (int i = 0; i < kPerConn; ++i) {
      EXPECT_TRUE(client
                      .SendRequest("POST", "/v1/infer",
                                   InferBody(static_cast<NodeId>(i)),
                                   "application/json")
                      .ok());
    }
  }
  EXPECT_TRUE(WaitFor(
      [&] { return door.admission().TotalQueued() == 2u * kPerConn; }));
  door.admission().Resume();
  std::thread stopper([&door] { door.Shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.set_value();

  for (HttpClient& client : clients) {
    for (int i = 0; i < kPerConn; ++i) {
      auto response = client.ReadResponse();
      EXPECT_TRUE(response.ok()) << "#" << i << ": "
                                 << response.status().ToString();
      if (!response.ok()) break;  // stopper must still be joined.
      EXPECT_EQ(response.value().status_code, 200);
    }
    EXPECT_FALSE(client.ReadResponse().ok());  // Closed after the answers.
  }
  stopper.join();
}

// `Shutdown` wakes an idle event loop instead of waiting out its epoll
// poll: ten Start/Shutdown cycles, each once the loop is waiting. Without
// the wake, each one waited out the rest of the loop's 20 ms poll: 18.1 to
// 18.2 ms after the 2 ms sleep below, against about 0.1 ms with it.
TEST(HttpFrontDoorTest, IdleShutdownWakesTheWaitingLoop) {
  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());
  std::vector<double> shutdown_ms;
  for (int cycle = 0; cycle < 10; ++cycle) {
    HttpFrontDoor door(&server, HttpFrontDoorConfig{});
    ASSERT_TRUE(door.Start().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const auto begin = std::chrono::steady_clock::now();
    door.Shutdown();
    shutdown_ms.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - begin)
                              .count());
  }
  std::sort(shutdown_ms.begin(), shutdown_ms.end());
  EXPECT_LT(shutdown_ms[5], 5.0)
      << "median idle Shutdown " << shutdown_ms[5] << " ms, slowest "
      << shutdown_ms.back() << " ms";
}

TEST(HttpFrontDoorTest, UnparseableRequestIsAnsweredThenClosed) {
  BatchingServer server(
      TestModel(),
      [](NodeId node, std::span<float> out) {
        FillEmbedding(node, out);
        return Status::OK();
      },
      kNodes, QuickServeConfig());
  HttpFrontDoor door(&server, HttpFrontDoorConfig{});
  ASSERT_TRUE(door.Start().ok());
  HttpClient client = Dial(door.port());

  // A start line over the parser's limit: framing is lost, so the front
  // door answers 431 and closes the connection. The request fits in one
  // read, so the close leaves no unread bytes behind.
  const std::string target = "/" + std::string(8 * 1024, 'a');
  ASSERT_TRUE(client.SendRequest("GET", target, "", "text/plain").ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status_code, 431);
  EXPECT_FALSE(client.ReadResponse().ok());
}

}  // namespace
}  // namespace sgnn::net
