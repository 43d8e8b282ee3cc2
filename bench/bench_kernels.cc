// E25 — SIMD microkernels and the CSR SpMM row walk (sgnn::simd): single-core
// throughput of the converted hot kernels with the AVX2 backend against
// the bit-identical scalar fallback. The paper's scalability story prices
// everything in data movement; this experiment grounds the conversion
// factor by reporting, per kernel, the achieved GF/s and GB/s, and for
// SpMM the edges/s *and* bytes/edge (from the exact OpCounters byte bill),
// so the roofline each kernel sits on is visible next to its speedup.
//
// `bench_kernels --json[=path]` writes the machine-readable comparison to
// `path` (default BENCH_kernels.json) and prints a table; without flags
// the binary runs the usual google-benchmark suite (Arg(0) = scalar
// backend, Arg(1) = vector backend). Every json row that writes a fresh
// output (the GEMM rows, transpose, SpMM) also byte-compares the scalar
// and vector results, and the CRC row compares the two checksums; the run
// exits non-zero on a mismatch, so the json mode doubles as a bit-identity
// smoke for any build.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/counters.h"
#include "common/rng.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "graph/propagate.h"
#include "par/par.h"
#include "simd/simd.h"
#include "tensor/ops.h"

namespace {

using sgnn::graph::CsrGraph;
using sgnn::graph::NodeId;
namespace par = sgnn::par;
namespace simd = sgnn::simd;
namespace tensor = sgnn::tensor;

tensor::Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  tensor::Matrix m(rows, cols);
  sgnn::common::Rng rng(seed);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return m;
}

/// The decoupled training head's GEMM operand: 2048 rows of 64 features or
/// hidden units. With `relu`, about half the entries are +0, like the
/// output layer's input after ReLU.
tensor::Matrix HeadInput(bool relu, uint64_t seed) {
  tensor::Matrix m = RandomMatrix(2048, 64, seed);
  if (relu) tensor::Relu(&m);
  return m;
}

/// 2^15-node, 2^18-edge R-MAT graph for the SpMM rows (skewed, so a few
/// hub rows are gathered from many rows; small enough for seconds-scale
/// runs).
const CsrGraph& SpmmGraph() {
  static CsrGraph* graph = new CsrGraph(sgnn::graph::Rmat(
      NodeId(1) << 15, int64_t(1) << 18, sgnn::graph::RmatConfig{}, 7));
  return *graph;
}

// ---------------------------------------------------- google-benchmark row

void SetBackend(int64_t arg) { simd::SetEnabled(arg != 0); }

void BM_KernelGemm(benchmark::State& state) {
  SetBackend(state.range(0));
  par::SetThreads(1);
  const tensor::Matrix a = RandomMatrix(512, 256, 2);
  const tensor::Matrix b = RandomMatrix(256, 256, 3);
  tensor::Matrix out;
  for (auto _ : state) {
    tensor::Gemm(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * a.rows() * a.cols() *
                          b.cols());
  simd::SetEnabled(true);
}
BENCHMARK(BM_KernelGemm)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The head's forward GEMMs: Args({backend, n}). n = 64 is the hidden layer
// over dense features; n = 8 is the output layer over ReLU outputs.
void BM_KernelGemmHead(benchmark::State& state) {
  SetBackend(state.range(0));
  par::SetThreads(1);
  const int64_t n = state.range(1);
  const tensor::Matrix a = HeadInput(/*relu=*/n == 8, 16);
  const tensor::Matrix b = RandomMatrix(64, n, 17);
  tensor::Matrix out;
  for (auto _ : state) {
    tensor::Gemm(a, b, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * a.rows() * a.cols() * n);
  simd::SetEnabled(true);
}
BENCHMARK(BM_KernelGemmHead)
    ->Args({0, 64})->Args({1, 64})->Args({0, 8})->Args({1, 8})
    ->Unit(benchmark::kMicrosecond);

// The head's weight gradient, X^T dY: 64 x 2048 times 2048 x 64.
void BM_KernelGemmTransposeAHead(benchmark::State& state) {
  SetBackend(state.range(0));
  par::SetThreads(1);
  const tensor::Matrix a = HeadInput(/*relu=*/false, 18);
  const tensor::Matrix b = HeadInput(/*relu=*/false, 19);
  tensor::Matrix out;
  for (auto _ : state) {
    tensor::GemmTransposeA(a, b, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * a.rows() * a.cols() *
                          b.cols());
  simd::SetEnabled(true);
}
BENCHMARK(BM_KernelGemmTransposeAHead)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_KernelAxpy(benchmark::State& state) {
  SetBackend(state.range(0));
  par::SetThreads(1);
  const tensor::Matrix other = RandomMatrix(2048, 1024, 4);
  tensor::Matrix m = RandomMatrix(2048, 1024, 5);
  for (auto _ : state) {
    tensor::Axpy(0.5f, other, &m);
    benchmark::DoNotOptimize(m.data());
  }
  state.SetItemsProcessed(state.iterations() * m.size());
  simd::SetEnabled(true);
}
BENCHMARK(BM_KernelAxpy)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_KernelSpmm(benchmark::State& state) {
  SetBackend(state.range(0));
  par::SetThreads(1);
  const CsrGraph& g = SpmmGraph();
  sgnn::graph::Propagator prop(g, sgnn::graph::Normalization::kSymmetric,
                               /*add_self_loops=*/true);
  const tensor::Matrix x =
      RandomMatrix(g.num_nodes(), state.range(1), 6);
  tensor::Matrix out;
  for (auto _ : state) {
    prop.Apply(x, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  simd::SetEnabled(true);
}
BENCHMARK(BM_KernelSpmm)
    ->Args({0, 16})->Args({1, 16})->Args({0, 32})->Args({1, 32})
    ->Args({0, 64})->Args({1, 64})->Args({0, 160})->Args({1, 160})
    ->Args({0, 256})->Args({1, 256})->Args({0, 512})->Args({1, 512})
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------- json driver

struct KernelResult {
  std::string name;
  double scalar_seconds = 0.0;
  double simd_seconds = 0.0;
  double flops = 0.0;        ///< Arithmetic ops per run (0 = not reported).
  uint64_t bytes = 0;        ///< Logical bytes per run (OpCounters bill).
  uint64_t edges = 0;        ///< Edges per run (SpMM rows only).
  /// Whether the backends' outputs matched byte for byte; empty for rows
  /// that update their operand in place and so are not compared.
  std::optional<bool> identical;

  double Speedup() const {
    return simd_seconds > 0.0 ? scalar_seconds / simd_seconds : 0.0;
  }
  /// Logical bytes per second of one backend, in GB/s.
  double Gbps(double seconds) const {
    return seconds > 0.0 ? static_cast<double>(bytes) / seconds / 1e9 : 0.0;
  }
};

/// Best-of-N wall time of `fn` (after one warmup run), in seconds.
template <typename Fn>
double TimeBest(Fn&& fn, int reps = 5) {
  fn();
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    sgnn::common::WallTimer timer;
    fn();
    const double s = timer.Seconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

/// Times `fn` on both backends and captures the byte bill of one run. When
/// `out` is given, each run of `fn` writes a fresh `*out`, and the scalar
/// and vector results are byte-compared.
template <typename Fn>
KernelResult Compare(const std::string& name, double flops,
                     const tensor::Matrix* out, Fn&& fn) {
  KernelResult result;
  result.name = name;
  result.flops = flops;
  simd::SetEnabled(false);
  result.scalar_seconds = TimeBest(fn);
  tensor::Matrix scalar_out;
  if (out != nullptr) scalar_out = *out;
  simd::SetEnabled(true);
  result.simd_seconds = TimeBest(fn);
  if (out != nullptr) {
    result.identical =
        scalar_out.rows() == out->rows() && scalar_out.cols() == out->cols() &&
        std::memcmp(scalar_out.data(), out->data(),
                    static_cast<size_t>(out->size()) * sizeof(float)) == 0;
  }
  sgnn::common::ScopedCounterDelta scope;
  fn();
  const sgnn::common::OpCounters delta = scope.Delta();
  result.bytes = delta.bytes_read + delta.bytes_written;
  result.edges = delta.edges_touched;
  return result;
}

int RunJson(const std::string& path) {
  par::SetThreads(1);
  std::vector<KernelResult> results;

  {
    const tensor::Matrix a = RandomMatrix(512, 256, 2);
    const tensor::Matrix b = RandomMatrix(256, 256, 3);
    tensor::Matrix out;
    results.push_back(Compare(
        "gemm_512x256x256", 2.0 * 512 * 256 * 256, &out,
        [&] { tensor::Gemm(a, b, &out); }));
  }
  {
    const tensor::Matrix a = RandomMatrix(512, 256, 8);
    const tensor::Matrix bt = RandomMatrix(256, 256, 9);
    tensor::Matrix out;
    results.push_back(Compare(
        "gemm_tb_512x256x256", 2.0 * 512 * 256 * 256, &out,
        [&] { tensor::GemmTransposeB(a, bt, &out); }));
  }
  {
    // The decoupled head's own shapes: the hidden layer (n = 64), the
    // output layer over ReLU outputs (n = 8, the class count) and the
    // weight gradient X^T dY.
    const tensor::Matrix x = HeadInput(/*relu=*/false, 16);
    const tensor::Matrix h = HeadInput(/*relu=*/true, 16);
    const tensor::Matrix dy = HeadInput(/*relu=*/false, 19);
    const tensor::Matrix w1 = RandomMatrix(64, 64, 17);
    const tensor::Matrix w2 = RandomMatrix(64, 8, 17);
    tensor::Matrix out;
    results.push_back(Compare(
        "gemm_2048x64x64", 2.0 * 2048 * 64 * 64, &out,
        [&] { tensor::Gemm(x, w1, &out); }));
    results.push_back(Compare(
        "gemm_2048x64x8", 2.0 * 2048 * 64 * 8, &out,
        [&] { tensor::Gemm(h, w2, &out); }));
    results.push_back(Compare(
        "gemm_ta_64x2048x64", 2.0 * 64 * 2048 * 64, &out,
        [&] { tensor::GemmTransposeA(x, dy, &out); }));
  }
  {
    // Streaming sizes (8 MB per operand): these sit on the DRAM roofline,
    // so the honest expectation is bandwidth parity, not a lane-count
    // speedup — reported to make that roofline visible next to the
    // cache-resident rows below.
    const tensor::Matrix other = RandomMatrix(2048, 1024, 4);
    tensor::Matrix m = RandomMatrix(2048, 1024, 5);
    results.push_back(Compare(
        "axpy_2m", 2.0 * 2048 * 1024, nullptr,
        [&] { tensor::Axpy(0.5f, other, &m); }));
    results.push_back(Compare(
        "scale_2m", 1.0 * 2048 * 1024, nullptr,
        [&] { tensor::Scale(1.0009f, &m); }));
    results.push_back(Compare(
        "relu_2m", 1.0 * 2048 * 1024, nullptr, [&] { tensor::Relu(&m); }));
  }
  {
    // Cache-resident sizes (128 KB per operand, the shape of a GNN layer's
    // row panel): compute-bound, so the lane count shows.
    const tensor::Matrix other = RandomMatrix(128, 256, 14);
    tensor::Matrix m = RandomMatrix(128, 256, 15);
    const int kInner = 64;  // Amortize the parallel-section dispatch.
    results.push_back(Compare(
        "axpy_32k_resident", 2.0 * 128 * 256 * kInner, nullptr, [&] {
          for (int rep = 0; rep < kInner; ++rep) {
            tensor::Axpy(0.5f, other, &m);
          }
        }));
    results.push_back(Compare(
        "relu_32k_resident", 1.0 * 128 * 256 * kInner, nullptr, [&] {
          for (int rep = 0; rep < kInner; ++rep) tensor::Relu(&m);
        }));
  }
  {
    tensor::Matrix m = RandomMatrix(8192, 256, 10);
    results.push_back(Compare(
        "softmax_rows_8192x256", 4.0 * 8192 * 256, nullptr,
        [&] { tensor::SoftmaxRows(&m); }));
  }
  {
    const tensor::Matrix m = RandomMatrix(2048, 512, 11);
    tensor::Matrix out;
    results.push_back(Compare("transpose_2048x512", 0.0, &out,
                              [&] { out = tensor::Transpose(m); }));
  }
  {
    // The shard-section and frame checksum over 1 MiB, about one shard
    // section of the scale-out benchmark. The bytes are the checksummed
    // length, and the row is identical when both backends agree on the CRC.
    std::vector<unsigned char> buf(size_t{1} << 20);
    for (size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<unsigned char>(sgnn::common::SplitMix64(i));
    }
    uint32_t crc = 0;
    const auto checksum = [&] { crc = simd::Crc32(buf.data(), buf.size()); };
    simd::SetEnabled(false);
    checksum();
    const uint32_t scalar_crc = crc;
    KernelResult result = Compare("crc32_1MiB", 0.0, nullptr, checksum);
    result.bytes = buf.size();
    result.identical = crc == scalar_crc;
    results.push_back(result);
  }
  {
    const CsrGraph& g = SpmmGraph();
    sgnn::graph::Propagator prop(g, sgnn::graph::Normalization::kSymmetric,
                                 /*add_self_loops=*/true);
    // 16 and 64 columns are the feature widths of sgnn-bench's
    // precompute_scaleout and train_decoupled. 160 (64 + 64 + 32) ends on
    // a partial 64-float strip and 512 is eight full strips.
    for (const int64_t cols : {16, 32, 64, 160, 256, 512}) {
      const tensor::Matrix x = RandomMatrix(g.num_nodes(), cols, 6);
      tensor::Matrix out;
      results.push_back(Compare(
          "spmm_" + std::to_string(cols) + "c",
          2.0 * static_cast<double>(g.num_edges()) *
              static_cast<double>(cols),
          &out, [&] { prop.Apply(x, &out); }));
    }
  }

  std::vector<std::string> rows;
  std::printf("%-22s %12s %12s %8s %9s %9s %11s %10s %6s\n", "kernel",
              "scalar_ms", "simd_ms", "speedup", "GF/s", "GB/s", "edges/s",
              "bytes/edge", "bits");
  char buf[512];
  int mismatches = 0;
  for (const KernelResult& r : results) {
    const double gflops =
        r.flops > 0.0 && r.simd_seconds > 0.0
            ? r.flops / r.simd_seconds / 1e9
            : 0.0;
    const double edges_per_s =
        r.edges > 0 && r.simd_seconds > 0.0
            ? static_cast<double>(r.edges) / r.simd_seconds
            : 0.0;
    const double bytes_per_edge =
        r.edges > 0 ? static_cast<double>(r.bytes) /
                          static_cast<double>(r.edges)
                    : 0.0;
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\": \"%s\", \"scalar_seconds\": %.6e, "
        "\"simd_seconds\": %.6e, \"speedup\": %.3f, \"gflops\": %.3f, "
        "\"scalar_gbps\": %.3f, \"simd_gbps\": %.3f, "
        "\"bytes\": %llu, \"edges\": %llu, \"edges_per_s\": %.3e, "
        "\"bytes_per_edge\": %.1f, \"bit_identical\": %s}",
        r.name.c_str(), r.scalar_seconds, r.simd_seconds, r.Speedup(),
        gflops, r.Gbps(r.scalar_seconds), r.Gbps(r.simd_seconds),
        static_cast<unsigned long long>(r.bytes),
        static_cast<unsigned long long>(r.edges), edges_per_s,
        bytes_per_edge,
        !r.identical ? "null" : (*r.identical ? "true" : "false"));
    rows.push_back(buf);
    std::printf("%-22s %12.3f %12.3f %8.2f %9.2f %9.2f %11.3e %10.1f %6s\n",
                r.name.c_str(), r.scalar_seconds * 1e3,
                r.simd_seconds * 1e3, r.Speedup(), gflops,
                r.Gbps(r.simd_seconds), edges_per_s, bytes_per_edge,
                !r.identical ? "-" : (*r.identical ? "same" : "DIFF"));
    if (r.identical && !*r.identical) ++mismatches;
  }
  if (!sgnn::bench::WriteJson(
          path,
          {{"experiment", "E25"},
           {"backend", simd::Supported() ? "avx2" : "scalar-only"}},
          rows)) {
    return 1;
  }
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "%d kernel(s) differ between the scalar and vector "
                 "backends\n",
                 mismatches);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (const auto path =
          sgnn::bench::JsonPathArg(argc, argv, "BENCH_kernels.json")) {
    return RunJson(*path);
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
