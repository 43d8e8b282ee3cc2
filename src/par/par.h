#ifndef SGNN_PAR_PAR_H_
#define SGNN_PAR_PAR_H_

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/counters.h"
#include "common/thread_pool.h"

namespace sgnn::obs {
class Tracer;
}

namespace sgnn::par {

/// `sgnn::par` — the deterministic parallel kernel substrate. Every hot
/// compute kernel (SpMM propagation, GEMM, batch PPR, sampling fan-out)
/// runs its loops through `ParallelFor`/`ParallelReduce` over a shard
/// geometry computed here.
///
/// Determinism contract — *bit-identical outputs for any worker count*:
///
///  1. Shard geometry is a pure function of the problem (`ShardsFor`,
///     `SplitUniform`, `RowRanges` never consult the thread count), so the
///     same shards exist whether they run inline on one thread or spread
///     over eight.
///  2. Shards own disjoint output slices (row partitioning), so no atomics
///     or locks touch kernel data and no write order is observable.
///  3. Reductions (`ParallelReduce`, per-shard partial accumulators in
///     `tensor::GemmTransposeA`) combine partials in ascending shard
///     order — a fixed floating-point summation tree.
///  4. Randomised kernels read counter-based `common::KeyedStream`s whose
///     outputs are pure functions of `(key, item)` or `(key, element)`,
///     never of which worker runs the item.
///
/// Worker count is process-wide: `SetThreads(n)` (or the `SGNN_THREADS`
/// environment variable, read once at first use; default 1) resizes the
/// shared lazily-started `common::ThreadPool`. The calling thread always
/// participates in its own sections, so a section makes progress even when
/// every pool worker is busy (nested sections cannot deadlock).
///
/// Work accounting: per-shard `common::OpCounters` deltas recorded on the
/// worker threads are reverted there and re-billed to the *calling*
/// thread's counters, in shard order, when the section completes. A
/// `ScopedCounterDelta` around a parallel kernel therefore sees exactly
/// the work the kernel did, and `AggregateThreadCounters()` totals match a
/// single-threaded run to the unit.

/// Half-open index range [begin, end); the unit of work a shard owns.
struct Range {
  int64_t begin = 0;
  int64_t end = 0;

  int64_t size() const { return end - begin; }
  bool operator==(const Range& other) const = default;
};

/// Hard ceiling on shards per section. Bounds reduction-partial memory and
/// task bookkeeping; raising it changes shard geometry and therefore the
/// bits of reduction kernels, so it is a compile-time constant, not a knob.
inline constexpr int kMaxShards = 64;

/// Current worker count (>= 1). First call reads `SGNN_THREADS`.
int NumThreads();

/// Sets the process-wide worker count (clamped to >= 1) and resizes the
/// shared pool if it has started. Not safe to call concurrently with
/// running parallel sections; configure between kernels (the pipeline does
/// this once at run entry).
void SetThreads(int n);

/// Parses an `SGNN_THREADS`-style value: returns the clamped thread count,
/// or `fallback` when `value` is null, empty, or not a positive integer.
/// Exposed for tests; `NumThreads` uses it on the real environment.
int ThreadsFromEnv(const char* value, int fallback);

/// Cumulative substrate counters. Sections and shards are pure functions
/// of the executed workload (geometry never depends on worker count), so
/// per-run deltas are reproducible across any `SGNN_THREADS`.
struct ParStats {
  uint64_t sections = 0;  ///< `ParallelFor` calls.
  uint64_t shards = 0;    ///< Shards executed (inline or pooled).
};
ParStats Stats();

/// Installs a tracer: every subsequent parallel section opens a
/// `par:<label>` span on the *calling* thread (never on workers, so track
/// assignment and tick order stay deterministic). Returns the previous
/// tracer so callers can restore it (the pipeline scopes installation to
/// one run). Pass nullptr to disable.
obs::Tracer* SetTracer(obs::Tracer* tracer);

/// Shard count for `work` items at the given grain: ceil-divides, clamps
/// to [1, kMaxShards]. Depends only on the problem size — never on the
/// worker count — which is what keeps reduction trees fixed.
int ShardsFor(int64_t work, int64_t grain);

/// Splits [0, n) into `shards` contiguous near-equal ranges (the first
/// `n % shards` ranges are one longer). Empty ranges are never produced:
/// `shards` is clamped to n when n < shards (n == 0 yields no ranges).
std::vector<Range> SplitUniform(int64_t n, int shards);

/// Edge-count-balanced row partition for CSR kernels: `offsets` is the
/// row-offset array (size num_rows + 1, monotone); boundaries are chosen
/// so each range covers ~equal `offsets` mass, so one hub-heavy shard
/// cannot serialise an SpMM. Degenerate inputs (all-empty rows) fall back
/// to a uniform split.
std::vector<Range> RowRanges(std::span<const int64_t> offsets, int shards);

/// Runs `fn(shard, ranges[shard])` for every shard and blocks until all
/// complete. Shards execute inline when the configured worker count is 1
/// (or there is a single shard); otherwise the caller and up to
/// `NumThreads()` pool workers pull shards from a shared index. `label`
/// names the section's trace span and must be a string literal.
///
/// `fn` must write only shard-owned state; `OpCounters` billed inside `fn`
/// are re-attributed to the calling thread (see file comment).
void ParallelFor(const char* label, std::span<const Range> ranges,
                 const std::function<void(int, Range)>& fn);

/// Map-reduce with a deterministic reduction tree: `map(shard, range)`
/// runs as a parallel section, then partials fold left-to-right in shard
/// order via `combine`. The float result is therefore identical for any
/// worker count (geometry fixes the tree shape).
template <typename T>
T ParallelReduce(const char* label, std::span<const Range> ranges,
                 const std::function<T(int, Range)>& map,
                 const std::function<T(T, T)>& combine, T init) {
  std::vector<T> partials(ranges.size());
  ParallelFor(label, ranges,
              [&](int shard, Range range) { partials[shard] = map(shard, range); });
  T acc = std::move(init);
  for (T& partial : partials) acc = combine(std::move(acc), std::move(partial));
  return acc;
}

}  // namespace sgnn::par

#endif  // SGNN_PAR_PAR_H_
