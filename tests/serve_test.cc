#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <queue>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "common/rng.h"
#include "core/dataset.h"
#include "core/pipeline.h"
#include "graph/generators.h"
#include "graph/propagate.h"
#include "models/decoupled.h"
#include "serve/batching_server.h"
#include "serve/frozen_model.h"
#include "serve/handoff.h"
#include "serve/khop_embedder.h"
#include "serve/metrics.h"
#include "simd/simd.h"
#include "tensor/ops.h"

namespace sgnn::serve {
namespace {

using graph::NodeId;
using tensor::Matrix;

core::Dataset SmallSbmDataset(NodeId num_nodes, uint64_t seed) {
  core::SbmDatasetConfig config;
  config.sbm.num_nodes = num_nodes;
  config.sbm.num_classes = 3;
  config.sbm.avg_degree = 8.0;
  config.sbm.homophily = 0.8;
  config.feature_dim = 8;
  return core::MakeSbmDataset(config, seed);
}

nn::TrainConfig QuickTrainConfig() {
  nn::TrainConfig config;
  config.epochs = 30;
  config.hidden_dim = 16;
  config.patience = 10;
  return config;
}

TEST(FrozenModelTest, MatchesMlpInferenceForwardExactly) {
  common::Rng rng(7);
  nn::Mlp mlp({6, 5, 3}, /*dropout=*/0.5, &rng);
  Matrix x = Matrix::Gaussian(11, 6, 0.0f, 1.0f, &rng);

  Matrix reference;
  mlp.Forward(x, /*training=*/false, nullptr, &reference);

  FrozenModel frozen = FrozenModel::FromMlp(mlp);
  EXPECT_EQ(frozen.in_dim(), 6);
  EXPECT_EQ(frozen.out_dim(), 3);
  EXPECT_EQ(frozen.num_layers(), 2);
  Matrix logits;
  frozen.Forward(x, &logits);
  // Same GEMM/bias/ReLU kernels and inference dropout is the identity, so
  // the snapshot reproduces the Mlp bit-for-bit.
  EXPECT_TRUE(logits.Equals(reference));
}

TEST(FrozenModelTest, SnapshotUnaffectedByLaterTraining) {
  common::Rng rng(3);
  nn::Mlp mlp({4, 3}, 0.0, &rng);
  Matrix x = Matrix::Gaussian(5, 4, 0.0f, 1.0f, &rng);
  FrozenModel frozen = FrozenModel::FromMlp(mlp);
  Matrix before;
  frozen.Forward(x, &before);

  // Mutate the live model (a gradient step of all-ones).
  Matrix logits;
  mlp.Forward(x, /*training=*/true, &rng, &logits);
  Matrix dlogits(logits.rows(), logits.cols(), 1.0f);
  mlp.Backward(dlogits, nullptr);
  for (nn::ParamRef p : mlp.Params()) {
    tensor::Axpy(-0.1f, *p.grad, p.value);
  }

  Matrix after;
  frozen.Forward(x, &after);
  EXPECT_TRUE(after.Equals(before));
  Matrix live;
  mlp.Forward(x, /*training=*/false, nullptr, &live);
  EXPECT_FALSE(live.Equals(before));
}

// A 256-node R-MAT with uniform(0.25, 2) edge weights plus one isolated
// node (the last id).
graph::CsrGraph WeightedRmatWithIsolatedNode() {
  std::vector<graph::Edge> edges =
      graph::Rmat(256, 2048, graph::RmatConfig{}, 41).ToEdges();
  common::Rng rng(43);
  for (graph::Edge& e : edges) {
    e.weight = static_cast<float>(rng.Uniform(0.25, 2.0));
  }
  return graph::CsrGraph::FromEdges(257, std::move(edges));
}

TEST(KHopEmbedderTest, MatchesGlobalPropagation) {
  core::Dataset dataset = SmallSbmDataset(120, 5);
  const int hops = 2;
  graph::Propagator prop(dataset.graph, graph::Normalization::kSymmetric,
                         /*add_self_loops=*/true);
  Matrix global = graph::PropagateKHops(prop, dataset.features, hops);

  KHopEmbedder embedder(dataset.graph, dataset.features, hops);
  std::vector<float> row(static_cast<size_t>(embedder.dim()));
  for (NodeId u = 0; u < dataset.num_nodes(); u += 7) {
    embedder.Embed(u, row);
    auto expected = global.Row(static_cast<int64_t>(u));
    for (int64_t j = 0; j < embedder.dim(); ++j) {
      EXPECT_NEAR(row[static_cast<size_t>(j)], expected[j], 1e-4)
          << "node " << u << " col " << j;
    }
  }
}

// With an unlimited node budget the embedder walks every in-ball row's
// global adjacency with the global coefficients through the same row
// kernel as `Propagator::Apply`, so its row is byte-identical to the
// full-graph propagation: weighted edges, an isolated node (last id), every
// node, hops 1-3, both SIMD backends.
TEST(KHopEmbedderTest, UnlimitedBudgetIsByteIdenticalToGlobalPropagation) {
  std::vector<graph::Edge> edges =
      graph::Rmat(256, 2048, graph::RmatConfig{}, 41).ToEdges();
  common::Rng rng(43);
  for (graph::Edge& e : edges) {
    e.weight = static_cast<float>(rng.Uniform(0.25, 2.0));
  }
  const graph::CsrGraph g = graph::CsrGraph::FromEdges(257, std::move(edges));
  const Matrix x = Matrix::Gaussian(g.num_nodes(), 24, 0.0f, 1.0f, &rng);
  const graph::Propagator prop(g, graph::Normalization::kSymmetric,
                               /*add_self_loops=*/true);
  const bool saved_simd = simd::Enabled();
  for (const bool simd_on : {false, true}) {
    simd::SetEnabled(simd_on);
    for (int hops = 1; hops <= 3; ++hops) {
      const Matrix want = graph::PropagateKHops(prop, x, hops);
      const KHopEmbedder embedder(g, x, hops);
      std::vector<float> row(static_cast<size_t>(embedder.dim()));
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        embedder.Embed(u, row);
        ASSERT_EQ(0, std::memcmp(row.data(), want.Row(u).data(),
                                 row.size() * sizeof(float)))
            << "simd=" << simd_on << " hops=" << hops << " node " << u;
      }
    }
  }
  simd::SetEnabled(saved_simd);
}

// The embedder's algorithm without pruning, written out as the reference:
// a queue BFS to depth K under the budget, every ball row's in-ball edges
// (global coefficients, stored order) and self loop, and K full steps over
// every ball row through the same row kernel.
std::vector<float> UnprunedEmbed(const graph::CsrGraph& g, const Matrix& x,
                                 std::span<const double> factor,
                                 std::span<const float> self_loop, int hops,
                                 int64_t budget, NodeId center) {
  std::vector<NodeId> ball = {center};
  std::unordered_map<NodeId, NodeId> slot = {{center, 0}};
  std::queue<std::pair<NodeId, int>> frontier;
  frontier.emplace(center, 0);
  while (!frontier.empty()) {
    const auto [u, depth] = frontier.front();
    frontier.pop();
    if (depth >= hops) continue;
    for (NodeId v : g.Neighbors(u)) {
      if (budget > 0 && static_cast<int64_t>(ball.size()) >= budget) break;
      if (!slot.emplace(v, static_cast<NodeId>(ball.size())).second) continue;
      ball.push_back(v);
      frontier.emplace(v, depth + 1);
    }
  }
  const int64_t k = static_cast<int64_t>(ball.size());
  Matrix cur(k, x.cols());
  std::vector<graph::EdgeIndex> offsets = {0};
  std::vector<NodeId> nbr_slots;
  std::vector<float> coeffs, loops;
  for (int64_t s = 0; s < k; ++s) {
    const NodeId u = ball[static_cast<size_t>(s)];
    const auto src = x.Row(u);
    std::copy(src.begin(), src.end(), cur.Row(s).begin());
    const auto nbrs = g.Neighbors(u);
    const auto ws = g.Weights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const auto it = slot.find(nbrs[i]);
      if (it == slot.end()) continue;
      nbr_slots.push_back(it->second);
      coeffs.push_back(graph::EdgeCoefficient(graph::Normalization::kSymmetric,
                                              ws[i], factor[u],
                                              factor[nbrs[i]]));
    }
    offsets.push_back(static_cast<graph::EdgeIndex>(nbr_slots.size()));
    loops.push_back(self_loop[u]);
  }
  const graph::CoefficientRows rows{offsets, nbr_slots, coeffs, loops};
  Matrix next(k, x.cols());
  for (int step = 0; step < hops; ++step) {
    next.Zero();
    graph::SpmmRows(rows, {0, k}, cur, &next);
    std::swap(cur, next);
  }
  return {cur.Row(0).begin(), cur.Row(0).end()};
}

// Computing only the rows each step reads leaves every embedding's bytes
// as they were when every step ran over the whole ball, truncated or not:
// budgets from the center alone to the whole graph, hops 0-3, weighted
// edges, both SIMD backends, on every fourth node (the hubs R-MAT puts at
// the low ids, and the isolated node 256).
TEST(KHopEmbedderTest, BudgetedEmbeddingsMatchUnprunedPropagation) {
  const graph::CsrGraph g = WeightedRmatWithIsolatedNode();
  common::Rng rng(47);
  const Matrix x = Matrix::Gaussian(g.num_nodes(), 24, 0.0f, 1.0f, &rng);
  std::vector<double> factor;
  std::vector<float> self_loop;
  graph::NodeFactors(g, graph::Normalization::kSymmetric,
                     /*add_self_loops=*/true, &factor, &self_loop);
  const bool saved_simd = simd::Enabled();
  for (const bool simd_on : {false, true}) {
    simd::SetEnabled(simd_on);
    for (const int64_t budget : {0, 1, 2, 3, 7, 20, 64, 512}) {
      for (int hops = 0; hops <= 3; ++hops) {
        const KHopEmbedder embedder(g, x, hops, budget);
        std::vector<float> row(static_cast<size_t>(embedder.dim()));
        for (NodeId u = 0; u < g.num_nodes(); u += 4) {
          embedder.Embed(u, row);
          const std::vector<float> want =
              UnprunedEmbed(g, x, factor, self_loop, hops, budget, u);
          ASSERT_EQ(0, std::memcmp(row.data(), want.data(),
                                   row.size() * sizeof(float)))
              << "simd=" << simd_on << " budget=" << budget
              << " hops=" << hops << " node " << u;
        }
      }
    }
  }
  simd::SetEnabled(saved_simd);
}

// Step t bills only the rows within distance K - t. On a path, center 4
// and 2 hops: step 1 computes nodes 3, 4 and 5 (two graph edges each),
// step 2 the center alone (two), and each computed row's self loop rides
// as one more edge. Running both steps over the 5-node ball bills its 8
// in-ball edges twice (16).
TEST(KHopEmbedderTest, BillsOnlyTheRowsEachStepReads) {
  const graph::CsrGraph g = graph::Path(9);
  common::Rng rng(53);
  const Matrix x = Matrix::Gaussian(g.num_nodes(), 4, 0.0f, 1.0f, &rng);
  const KHopEmbedder embedder(g, x, /*hops=*/2);
  std::vector<float> row(static_cast<size_t>(embedder.dim()));
  const common::OpCounters before = common::GlobalCounters();
  embedder.Embed(4, row);
  const common::OpCounters spent =
      common::OpCounters::Delta(before, common::GlobalCounters());
  const uint64_t graph_edges = 6 + 2, self_loop_edges = 3 + 1;
  EXPECT_EQ(spent.edges_touched, graph_edges + self_loop_edges);
  EXPECT_EQ(spent.floats_moved, (graph_edges + self_loop_edges) * 4);
}

/// The serving-latency ladder now lives in `obs::Histogram`
/// (`ExponentialBuckets(1.0, 1.07, 256)`, the registry series
/// `sgnn_serve_latency_ticks`); this pins the percentile behaviour the
/// old `LatencyHistogram` guaranteed.
TEST(LatencyHistogramTest, PercentilesOrderedAndApproximate) {
  obs::MetricsRegistry registry;
  obs::Histogram* hist = registry.GetHistogram(
      "latency_micros", "test ladder",
      obs::ExponentialBuckets(1.0, 1.07, 256));
  EXPECT_EQ(hist->Percentile(0.5), 0.0);  // Empty.
  for (int i = 1; i <= 100; ++i) {
    hist->Record(1000.0 * i);  // 1ms .. 100ms.
  }
  const obs::HistogramSnapshot snap = hist->Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.min, 1000.0);
  EXPECT_DOUBLE_EQ(snap.max, 100000.0);
  const double p50 = snap.Percentile(0.50);
  const double p95 = snap.Percentile(0.95);
  const double p99 = snap.Percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // ~7% geometric buckets: generous windows around the exact quantiles.
  EXPECT_NEAR(p50, 50000.0, 10000.0);
  EXPECT_NEAR(p99, 99000.0, 15000.0);
}

/// End-to-end: N client threads against a server built via the
/// Pipeline::Run -> ServePipeline handoff; every response must match the
/// single-threaded FrozenModel/Mlp forward on the globally propagated
/// embeddings.
TEST(BatchingServerTest, ConcurrentClientsMatchSingleThreadedReference) {
  core::Dataset dataset = SmallSbmDataset(200, 11);
  const int hops = 2;

  core::Pipeline pipeline;
  pipeline.SetModel(
      "sgc", [](const graph::CsrGraph& g, const Matrix& x,
                std::span<const int> labels,
                const models::NodeSplits& splits,
                const nn::TrainConfig& config) {
        return models::TrainSgc(g, x, labels, splits, config);
      });
  core::PipelineReport report = pipeline.Run(dataset, QuickTrainConfig());
  ASSERT_NE(report.model.fitted_head, nullptr);

  // Single-threaded reference: frozen head over global S^K X.
  FrozenModel frozen = FrozenModel::FromMlp(*report.model.fitted_head);
  graph::Propagator prop(dataset.graph, graph::Normalization::kSymmetric,
                         true);
  Matrix embeddings = graph::PropagateKHops(prop, dataset.features, hops);
  Matrix reference;
  frozen.Forward(embeddings, &reference);

  ServeConfig config;
  config.max_batch = 8;
  config.max_delay_micros = 200;
  config.queue_capacity = 4096;
  config.num_workers = 3;
  auto server_or = ServePipeline(dataset, report, hops, config);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  std::unique_ptr<BatchingServer> server = std::move(server_or).value();

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 50;
  std::atomic<int> mismatches{0};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      common::Rng rng(100 + static_cast<uint64_t>(c));
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const NodeId node = static_cast<NodeId>(
            rng.UniformInt(dataset.num_nodes()));
        auto future_or = server->Submit(InferenceRequest(node));
        ASSERT_TRUE(future_or.ok()) << future_or.status().ToString();
        InferenceResponse response = std::move(future_or).value().get();
        served.fetch_add(1);
        EXPECT_EQ(response.node, node);
        auto expected = reference.Row(static_cast<int64_t>(node));
        ASSERT_EQ(response.logits.size(), expected.size());
        for (size_t j = 0; j < expected.size(); ++j) {
          if (std::abs(response.logits[j] - expected[j]) > 1e-3) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  server->Shutdown();

  EXPECT_EQ(served.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(mismatches.load(), 0);
  ServeMetricsSnapshot snap = server->Metrics();
  EXPECT_EQ(snap.requests_served,
            static_cast<uint64_t>(kClients * kRequestsPerClient));
  // Repeated nodes (200 ids, 200 requests) must have produced cache hits,
  // and misses must have moved features through the ego-net kernels.
  EXPECT_GT(snap.CacheHitRate(), 0.0);
  EXPECT_GT(snap.ops.edges_touched, 0u);
  EXPECT_GT(snap.ops.floats_moved, 0u);
}

TEST(BatchingServerTest, BackpressureRejectsWithUnavailable) {
  common::Rng rng(9);
  nn::Mlp mlp({4, 3}, 0.0, &rng);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();

  ServeConfig config;
  config.max_batch = 1;
  config.max_delay_micros = 0;
  config.queue_capacity = 2;
  config.num_workers = 1;
  BatchingServer server(
      FrozenModel::FromMlp(mlp),
      [opened](NodeId node, std::span<float> out) {
        opened.wait();  // Stall the worker until the test releases it.
        for (size_t j = 0; j < out.size(); ++j) {
          out[j] = static_cast<float>(node);
        }
        return common::Status::OK();
      },
      /*num_nodes=*/16, config);

  EXPECT_EQ(server.Submit(InferenceRequest(99)).status().code(),
            common::StatusCode::kInvalidArgument);

  std::vector<std::future<InferenceResponse>> accepted;
  int rejected = 0;
  auto submit_some = [&](int count) {
    for (int i = 0; i < count; ++i) {
      auto future_or =
          server.Submit(InferenceRequest(static_cast<NodeId>(i % 16)));
      if (future_or.ok()) {
        accepted.push_back(std::move(future_or).value());
      } else {
        // Full queue: a clean kUnavailable, never a block or a crash.
        EXPECT_EQ(future_or.status().code(),
                  common::StatusCode::kUnavailable);
        ++rejected;
      }
    }
  };
  submit_some(5);
  // Let the batcher reach its steady blocked state: one batch executing
  // (stalled in the gate), one waiting for a worker, queue full behind.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  submit_some(10);
  EXPECT_GE(rejected, 1);

  gate.set_value();  // Release the worker; everything admitted completes.
  for (auto& future : accepted) {
    InferenceResponse response = future.get();
    EXPECT_EQ(response.logits.size(), 3u);
  }
  server.Shutdown();
  ServeMetricsSnapshot snap = server.Metrics();
  EXPECT_EQ(snap.requests_served, accepted.size());
  EXPECT_EQ(snap.requests_rejected, static_cast<uint64_t>(rejected));
  EXPECT_EQ(snap.requests_served + snap.requests_rejected, 15u);
}

TEST(BatchingServerTest, CallbacksRunOnceAndInFlightBatchesStayCapped) {
  common::Rng rng(9);
  nn::Mlp mlp({4, 3}, 0.0, &rng);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> in_embedder{0};
  std::atomic<int> max_in_embedder{0};

  ServeConfig config;
  config.max_batch = 1;
  config.max_delay_micros = 0;
  config.queue_capacity = 64;
  config.num_workers = 3;
  constexpr int kRequests = 40;
  BatchingServer server(
      FrozenModel::FromMlp(mlp),
      [&](NodeId node, std::span<float> out) {
        const int now = in_embedder.fetch_add(1) + 1;
        int seen = max_in_embedder.load();
        while (now > seen &&
               !max_in_embedder.compare_exchange_weak(seen, now)) {
        }
        opened.wait();
        for (float& v : out) v = static_cast<float>(node);
        in_embedder.fetch_sub(1);
        return common::Status::OK();
      },
      /*num_nodes=*/kRequests, config);

  // Distinct nodes, so every request calls the embedder.
  std::vector<std::atomic<int>> calls(kRequests);
  std::vector<InferenceResponse> responses(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(server
                    .Submit(InferenceRequest(static_cast<NodeId>(i)),
                            [&calls, &responses, i](InferenceResponse r) {
                              responses[static_cast<size_t>(i)] = std::move(r);
                              calls[static_cast<size_t>(i)].fetch_add(1);
                            })
                    .ok());
  }
  // One batch per worker reaches the gate; nobody forms a fourth.
  for (int i = 0; i < 2000 && in_embedder.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(in_embedder.load(), 3);

  // Shutdown closes the queue with most requests still in it; once the
  // gate opens, the workers drain them, each through its callback. A
  // submit refused with kFailedPrecondition shows the close happened.
  std::thread stopper([&server] { server.Shutdown(); });
  std::atomic<int> late_calls{0};
  common::Status late;
  for (int i = 0; i < 2000; ++i) {
    late = server.Submit(InferenceRequest(0), [&late_calls](InferenceResponse) {
      late_calls.fetch_add(1);
    });
    if (late.code() == common::StatusCode::kFailedPrecondition) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(late.code(), common::StatusCode::kFailedPrecondition);
  gate.set_value();
  stopper.join();

  for (int i = 0; i < kRequests; ++i) {
    const size_t s = static_cast<size_t>(i);
    EXPECT_EQ(calls[s].load(), 1) << "request " << i;
    EXPECT_TRUE(responses[s].status.ok()) << responses[s].status.ToString();
    EXPECT_EQ(responses[s].node, static_cast<NodeId>(i));
  }
  EXPECT_EQ(max_in_embedder.load(), config.num_workers);
  // Late submits accepted before the close are answered once each; refused
  // ones are never called back.
  EXPECT_EQ(server.Metrics().requests_served,
            static_cast<uint64_t>(kRequests + late_calls.load()));
}

TEST(BatchingServerTest, MetricsPercentilesAndWarmupHitRate) {
  core::Dataset dataset = SmallSbmDataset(120, 21);
  const int hops = 2;
  models::ModelResult result =
      models::TrainSgc(dataset.graph, dataset.features, dataset.labels,
                       dataset.splits, QuickTrainConfig());
  ASSERT_NE(result.fitted_head, nullptr);

  KHopEmbedder embedder(dataset.graph, dataset.features, hops);
  ServeConfig config;
  config.max_batch = 16;
  config.max_delay_micros = 100;
  config.queue_capacity = 1024;
  config.num_workers = 2;
  BatchingServer server(
      FrozenModel::FromMlp(*result.fitted_head),
      [&embedder](NodeId node, std::span<float> out) {
        embedder.Embed(node, out);
        return common::Status::OK();
      },
      dataset.num_nodes(), config);

  auto run_pass = [&server](NodeId count) {
    std::vector<std::future<InferenceResponse>> futures;
    for (NodeId u = 0; u < count; ++u) {
      auto future_or = server.Submit(InferenceRequest(u));
      ASSERT_TRUE(future_or.ok());
      futures.push_back(std::move(future_or).value());
    }
    for (auto& future : futures) future.get();
  };
  run_pass(100);  // Warmup: all misses, fills the cache.
  run_pass(100);  // Same nodes again: hits that skip propagation.
  server.Shutdown();

  ServeMetricsSnapshot snap = server.Metrics();
  EXPECT_EQ(snap.requests_served, 200u);
  EXPECT_LE(snap.p50_ticks, snap.p95_ticks);
  EXPECT_LE(snap.p95_ticks, snap.p99_ticks);
  EXPECT_GT(snap.p50_ticks, 0.0);
  EXPECT_GT(snap.CacheHitRate(), 0.0);   // Acceptance: hits after warmup.
  EXPECT_GE(snap.CacheHitRate(), 0.4);   // Second pass is all hits.
  EXPECT_GE(snap.batches, 1u);
  EXPECT_LE(snap.mean_batch_size, static_cast<double>(config.max_batch));
  EXPECT_LE(snap.max_batch_size, static_cast<uint64_t>(config.max_batch));
}

TEST(ServePipelineTest, RejectsModelWithoutFittedHead) {
  core::Dataset dataset = SmallSbmDataset(60, 2);
  core::PipelineReport report;
  report.model.name = "label_prop";  // No MLP head.
  auto server_or = ServePipeline(dataset, report, 2, ServeConfig());
  EXPECT_FALSE(server_or.ok());
  EXPECT_EQ(server_or.status().code(),
            common::StatusCode::kFailedPrecondition);
}

TEST(BatchingServerTest, WarmCacheServesHitsImmediately) {
  core::Dataset dataset = SmallSbmDataset(80, 31);
  models::ModelResult result =
      models::TrainSgc(dataset.graph, dataset.features, dataset.labels,
                       dataset.splits, QuickTrainConfig());
  graph::Propagator prop(dataset.graph, graph::Normalization::kSymmetric,
                         true);
  Matrix embeddings = graph::PropagateKHops(prop, dataset.features, 2);

  ServeConfig config;
  config.max_batch = 4;
  config.num_workers = 1;
  std::atomic<int> embed_calls{0};
  BatchingServer server(
      FrozenModel::FromMlp(*result.fitted_head),
      [&embed_calls](NodeId, std::span<float> out) {
        embed_calls.fetch_add(1);
        for (float& v : out) v = 0.0f;
        return common::Status::OK();
      },
      dataset.num_nodes(), config);
  server.WarmCache(embeddings);

  std::vector<std::future<InferenceResponse>> futures;
  for (NodeId u = 0; u < dataset.num_nodes(); ++u) {
    auto future_or = server.Submit(InferenceRequest(u));
    ASSERT_TRUE(future_or.ok());
    futures.push_back(std::move(future_or).value());
  }
  FrozenModel frozen = FrozenModel::FromMlp(*result.fitted_head);
  Matrix reference;
  frozen.Forward(embeddings, &reference);
  for (auto& future : futures) {
    InferenceResponse response = future.get();
    EXPECT_TRUE(response.cache_hit);
    auto expected = reference.Row(static_cast<int64_t>(response.node));
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_NEAR(response.logits[j], expected[j], 1e-5);
    }
  }
  EXPECT_EQ(embed_calls.load(), 0);  // Warm cache: propagation fully skipped.
  server.Shutdown();
  EXPECT_DOUBLE_EQ(server.Metrics().CacheHitRate(), 1.0);
}

}  // namespace
}  // namespace sgnn::serve
