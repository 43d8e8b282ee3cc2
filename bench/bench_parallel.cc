// E21 — Deterministic parallel kernel substrate (sgnn::par): wall-clock
// scaling of the converted hot kernels (SpMM propagation, blocked GEMM,
// batch PPR push, sampling fan-out, and an end-to-end K-hop propagation)
// across worker counts on a ~10^6-edge graph. The paper's data-management
// claim is that these kernels are memory-bound row-parallel scans, so
// multi-threading should give near-linear end-to-end speedup on multi-core
// hosts without changing a single output bit; EXPERIMENTS.md records the
// measured ratios next to that claim.
//
// `bench_parallel --smoke` runs a seconds-scale correctness pass instead
// (byte-identity of every kernel at 1 vs 4 workers) for CI, and
// `bench_parallel --json[=path]` writes a machine-readable scaling sweep
// (seconds, edges/s, bytes/edge per worker count) to `path`, default
// BENCH_parallel.json.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/counters.h"
#include "common/rng.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "graph/propagate.h"
#include "par/par.h"
#include "ppr/ppr.h"
#include "sampling/neighbor_sampler.h"
#include "tensor/ops.h"

namespace {

using sgnn::graph::CsrGraph;
using sgnn::graph::NodeId;
namespace par = sgnn::par;
namespace tensor = sgnn::tensor;

constexpr int kFeatureDim = 32;

/// ~10^6-edge scale-free graph shared by every benchmark in the binary.
const CsrGraph& BigGraph() {
  static CsrGraph* graph = new CsrGraph(sgnn::graph::Rmat(
      NodeId(1) << 17, int64_t(1) << 20, sgnn::graph::RmatConfig{}, 7));
  return *graph;
}

tensor::Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  tensor::Matrix m(rows, cols);
  sgnn::common::Rng rng(seed);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return m;
}

void BM_SpmmPropagation(benchmark::State& state) {
  par::SetThreads(static_cast<int>(state.range(0)));
  const CsrGraph& g = BigGraph();
  sgnn::graph::Propagator prop(g, sgnn::graph::Normalization::kSymmetric,
                               /*add_self_loops=*/true);
  const tensor::Matrix x = RandomMatrix(g.num_nodes(), kFeatureDim, 1);
  tensor::Matrix out;
  for (auto _ : state) {
    prop.Apply(x, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  par::SetThreads(1);
}
BENCHMARK(BM_SpmmPropagation)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_BlockedGemm(benchmark::State& state) {
  par::SetThreads(static_cast<int>(state.range(0)));
  const tensor::Matrix a = RandomMatrix(4096, 256, 2);
  const tensor::Matrix b = RandomMatrix(256, 256, 3);
  tensor::Matrix out;
  for (auto _ : state) {
    tensor::Gemm(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * a.rows() * a.cols() *
                          b.cols());
  par::SetThreads(1);
}
BENCHMARK(BM_BlockedGemm)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PprPushBatch(benchmark::State& state) {
  par::SetThreads(static_cast<int>(state.range(0)));
  const CsrGraph& g = BigGraph();
  std::vector<NodeId> seeds;
  for (NodeId s = 0; s < 64; ++s) {
    seeds.push_back((s * 2654435761u) % g.num_nodes());
  }
  for (auto _ : state) {
    auto results = sgnn::ppr::PushBatch(g, seeds, 0.15, 1e-4);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(seeds.size()));
  par::SetThreads(1);
}
BENCHMARK(BM_PprPushBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SampleFanOut(benchmark::State& state) {
  par::SetThreads(static_cast<int>(state.range(0)));
  const CsrGraph& g = BigGraph();
  std::vector<NodeId> seeds;
  for (NodeId s = 0; s < 1024; ++s) {
    seeds.push_back((s * 40503u) % g.num_nodes());
  }
  const std::vector<int> fanouts = {10, 10};
  sgnn::common::Rng rng(9);
  for (auto _ : state) {
    auto batch = sgnn::sampling::SampleNodeWise(g, seeds, fanouts, &rng);
    benchmark::DoNotOptimize(batch.layers.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(seeds.size()));
  par::SetThreads(1);
}
BENCHMARK(BM_SampleFanOut)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_EndToEndKHop(benchmark::State& state) {
  par::SetThreads(static_cast<int>(state.range(0)));
  const CsrGraph& g = BigGraph();
  sgnn::graph::Propagator prop(g, sgnn::graph::Normalization::kSymmetric,
                               /*add_self_loops=*/true);
  const tensor::Matrix x = RandomMatrix(g.num_nodes(), kFeatureDim, 4);
  const tensor::Matrix w = RandomMatrix(kFeatureDim, kFeatureDim, 5);
  for (auto _ : state) {
    // Two decoupled-GNN layers: propagate, transform, ReLU — the shape of
    // the SGC/S^2GC precompute path the tutorial's E12 measures end to end.
    tensor::Matrix h = sgnn::graph::PropagateKHops(prop, x, 2);
    tensor::Matrix z;
    tensor::Gemm(h, w, &z);
    tensor::Relu(&z);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges() * 2);
  par::SetThreads(1);
}
BENCHMARK(BM_EndToEndKHop)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// -------------------------------------------------------------------- smoke

bool BytesEqual(const tensor::Matrix& a, const tensor::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

/// Seconds-scale CI pass: every converted kernel must be byte-identical at
/// 1 and 4 workers on a small graph. Returns 0 on success.
int RunSmoke() {
  const CsrGraph g = sgnn::graph::Rmat(NodeId(1) << 12, int64_t(1) << 15,
                                       sgnn::graph::RmatConfig{}, 7);
  const tensor::Matrix x = RandomMatrix(g.num_nodes(), 8, 1);
  int failures = 0;
  auto check = [&failures](const char* name, bool ok) {
    std::printf("%-24s %s\n", name, ok ? "OK" : "MISMATCH");
    if (!ok) ++failures;
  };

  sgnn::graph::Propagator prop(g, sgnn::graph::Normalization::kSymmetric,
                               true);
  tensor::Matrix p1, p4;
  par::SetThreads(1);
  prop.Apply(x, &p1);
  par::SetThreads(4);
  prop.Apply(x, &p4);
  check("propagate.apply", BytesEqual(p1, p4));

  const tensor::Matrix a = RandomMatrix(200, 64, 2);
  const tensor::Matrix b = RandomMatrix(64, 48, 3);
  tensor::Matrix g1, g4;
  par::SetThreads(1);
  tensor::Gemm(a, b, &g1);
  par::SetThreads(4);
  tensor::Gemm(a, b, &g4);
  check("tensor.gemm", BytesEqual(g1, g4));

  std::vector<NodeId> seeds = {1, 5, 9, 13, 21, 34};
  par::SetThreads(1);
  const auto push1 = sgnn::ppr::PushBatch(g, seeds, 0.15, 1e-3);
  par::SetThreads(4);
  const auto push4 = sgnn::ppr::PushBatch(g, seeds, 0.15, 1e-3);
  bool push_ok = push1.size() == push4.size();
  for (size_t i = 0; push_ok && i < push1.size(); ++i) {
    push_ok = push1[i].estimate == push4[i].estimate;
  }
  check("ppr.push_batch", push_ok);

  const std::vector<int> fanouts = {5, 3};
  par::SetThreads(1);
  sgnn::common::Rng rng1(11);
  const auto batch1 = sgnn::sampling::SampleNodeWise(g, seeds, fanouts, &rng1);
  par::SetThreads(4);
  sgnn::common::Rng rng4(11);
  const auto batch4 = sgnn::sampling::SampleNodeWise(g, seeds, fanouts, &rng4);
  bool sample_ok = batch1.layers.size() == batch4.layers.size();
  for (size_t l = 0; sample_ok && l < batch1.layers.size(); ++l) {
    sample_ok = batch1.layers[l].src == batch4.layers[l].src &&
                batch1.layers[l].src_local == batch4.layers[l].src_local;
  }
  check("sample.node_wise", sample_ok);

  par::SetThreads(1);
  std::printf("smoke: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

// --------------------------------------------------------------------- json

/// Best-of-3 wall time of `fn` (after one warmup run), in seconds.
template <typename Fn>
double TimeBest(Fn&& fn) {
  fn();
  double best = 0.0;
  for (int r = 0; r < 3; ++r) {
    sgnn::common::WallTimer timer;
    fn();
    const double s = timer.Seconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

/// Machine-readable scaling sweep over worker counts for the two hot
/// kernels the json consumers track (SpMM propagation and blocked GEMM),
/// with the exact OpCounters byte bill alongside (bytes/edge is worker-
/// count invariant by the billing contract, so it appears once per kernel
/// shape, not per worker count).
int RunJson(const std::string& path) {
  const CsrGraph& g = BigGraph();
  sgnn::graph::Propagator prop(g, sgnn::graph::Normalization::kSymmetric,
                               /*add_self_loops=*/true);
  const tensor::Matrix x = RandomMatrix(g.num_nodes(), kFeatureDim, 1);
  const tensor::Matrix a = RandomMatrix(4096, 256, 2);
  const tensor::Matrix b = RandomMatrix(256, 256, 3);
  tensor::Matrix out;

  std::vector<std::string> rows;
  char buf[384];
  for (const int threads : {1, 2, 4, 8}) {
    par::SetThreads(threads);

    const double spmm_s = TimeBest([&] { prop.Apply(x, &out); });
    sgnn::common::ScopedCounterDelta spmm_scope;
    prop.Apply(x, &out);
    const auto spmm_delta = spmm_scope.Delta();
    const double spmm_bpe =
        static_cast<double>(spmm_delta.bytes_read +
                            spmm_delta.bytes_written) /
        static_cast<double>(g.num_edges());
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\": \"spmm\", \"threads\": %d, \"seconds\": %.6e, "
        "\"edges_per_s\": %.3e, \"bytes_per_edge\": %.1f}",
        threads, spmm_s, static_cast<double>(g.num_edges()) / spmm_s,
        spmm_bpe);
    rows.push_back(buf);

    const double gemm_s = TimeBest([&] { tensor::Gemm(a, b, &out); });
    const double gemm_flops =
        2.0 * static_cast<double>(a.rows()) * a.cols() * b.cols();
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\": \"gemm\", \"threads\": %d, \"seconds\": %.6e, "
        "\"gflops\": %.3f}",
        threads, gemm_s, gemm_flops / gemm_s / 1e9);
    rows.push_back(buf);
    std::printf("threads=%d spmm %.3fms (%.1f bytes/edge)  gemm %.3fms\n",
                threads, spmm_s * 1e3, spmm_bpe, gemm_s * 1e3);
  }
  par::SetThreads(1);
  return sgnn::bench::WriteJson(path, {{"experiment", "E21"}}, rows) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") return RunSmoke();
  }
  if (const auto path =
          sgnn::bench::JsonPathArg(argc, argv, "BENCH_parallel.json")) {
    return RunJson(*path);
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
