#ifndef SGNN_STORAGE_SHARDED_GRAPH_H_
#define SGNN_STORAGE_SHARDED_GRAPH_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "graph/types.h"
#include "storage/format.h"

namespace sgnn::obs {
class Tracer;
class MetricsRegistry;
class Counter;
class Gauge;
}  // namespace sgnn::obs

namespace sgnn::storage {

class ShardedGraph;

/// Point-in-time shard-cache accounting, all in bytes of mapped shard
/// files. `resident_bytes` never exceeds the resolved budget — that is the
/// hard cap this subsystem exists to enforce.
struct StorageStats {
  uint64_t loads = 0;           ///< Shard files mapped (reloads count again).
  uint64_t evictions = 0;       ///< Budget-driven unmaps.
  uint64_t bytes_loaded = 0;    ///< Total bytes mapped (monotone).
  uint64_t resident_bytes = 0;  ///< Currently mapped bytes.
  uint64_t peak_resident_bytes = 0;  ///< High-water mark of resident_bytes.
};

/// How to open a sharded graph. The default options reproduce the plain
/// case: budget from `SGNN_RESIDENT_BUDGET` (unlimited when unset), no
/// observability sinks. Checking is not optional: see `ShardedGraph::Open`
/// and `ShardedGraph::PinShard` for what each read verifies.
struct OpenOptions {
  /// Resident cap for mapped shard bytes. 0 = consult
  /// `SGNN_RESIDENT_BUDGET`, unlimited when that is unset too. Pass
  /// `kUnlimitedBudget` to force unlimited regardless of the environment.
  uint64_t budget_bytes = 0;
  /// Metric sink for the `sgnn_storage_*` family. Null = metrics off.
  obs::MetricsRegistry* metrics = nullptr;
  /// Span sink for `storage:load`/`storage:evict`. Null = tracing off.
  obs::Tracer* tracer = nullptr;
};

/// Explicitly unlimited budget (a real cap larger than any file set).
inline constexpr uint64_t kUnlimitedBudget = ~uint64_t{0};

/// RAII pin over one mapped shard. While any pin on a shard is live the
/// mapping is excluded from eviction and its section pointers are stable,
/// so kernels iterate spans at in-memory speed. Move-only; a
/// default-constructed pin is inert.
///
/// Row accessors mirror the `CsrGraph` surface (`Neighbors`/`Weights`/
/// `WeightedDegree` by *global* node id, which must belong to this shard);
/// the `*Local` forms index by shard row for shard-major kernels.
class PinnedShard {
 public:
  PinnedShard() = default;
  PinnedShard(PinnedShard&& other) noexcept { *this = std::move(other); }
  PinnedShard& operator=(PinnedShard&& other) noexcept;
  ~PinnedShard() { Release(); }

  PinnedShard(const PinnedShard&) = delete;
  PinnedShard& operator=(const PinnedShard&) = delete;

  bool active() const { return owner_ != nullptr; }
  int shard() const { return shard_; }

  /// Sorted global ids of the nodes this shard owns.
  std::span<const graph::NodeId> rows() const {
    return {rows_, static_cast<size_t>(num_rows_)};
  }
  int64_t num_rows() const { return num_rows_; }

  /// Local CSR offsets (size `num_rows() + 1`), viewable as the
  /// `int64_t` span `par::RowRanges` expects.
  std::span<const int64_t> local_offsets() const {
    return {reinterpret_cast<const int64_t*>(offsets_),
            static_cast<size_t>(num_rows_) + 1};
  }

  std::span<const graph::NodeId> NeighborsLocal(int64_t row) const {
    SGNN_DCHECK(row >= 0 && row < num_rows_);
    return {neighbors_ + offsets_[row],
            static_cast<size_t>(offsets_[row + 1] - offsets_[row])};
  }
  std::span<const float> WeightsLocal(int64_t row) const {
    SGNN_DCHECK(row >= 0 && row < num_rows_);
    return {weights_ + offsets_[row],
            static_cast<size_t>(offsets_[row + 1] - offsets_[row])};
  }

  std::span<const graph::NodeId> Neighbors(graph::NodeId u) const {
    return NeighborsLocal(LocalRow(u));
  }
  std::span<const float> Weights(graph::NodeId u) const {
    return WeightsLocal(LocalRow(u));
  }

  /// Sum of u's edge weights, accumulated in adjacency order exactly like
  /// `CsrGraph::WeightedDegree` so downstream arithmetic is bit-identical.
  double WeightedDegree(graph::NodeId u) const {
    double acc = 0.0;
    for (float w : Weights(u)) acc += w;
    return acc;
  }

 private:
  friend class ShardedGraph;
  PinnedShard(ShardedGraph* owner, int shard);

  int64_t LocalRow(graph::NodeId u) const;
  void Release();

  ShardedGraph* owner_ = nullptr;
  int shard_ = -1;
  int64_t num_rows_ = 0;
  const graph::NodeId* rows_ = nullptr;
  const uint64_t* offsets_ = nullptr;
  const graph::NodeId* neighbors_ = nullptr;
  const float* weights_ = nullptr;
};

/// Disk-backed view of a sharded graph: O(num_nodes) index arrays stay
/// resident (node -> shard, node -> local row, out-degrees), while the
/// O(num_edges) adjacency lives in mmap'd shard files streamed through a
/// deterministic LRU cache bounded by the resident budget.
///
/// Determinism: shard geometry is fixed by the writer's plan, kernels
/// access shards in ascending order from a single orchestrating thread,
/// and LRU order is logical (an access counter, no clocks) — so the
/// sequence of loads and evictions, and every counter derived from it, is
/// a pure function of (graph, plan, budget), independent of
/// `SGNN_THREADS`.
///
/// Thread safety: `Pin`/`PinShard`/`stats` are safe from any thread;
/// reads through a `PinnedShard` are lock-free. Kernels that want
/// reproducible eviction sequences must serialise their *pin* order (the
/// in-tree out-of-core kernels pin from one thread and parallelise only
/// within a pinned shard).
class ShardedGraph {
 public:
  /// Opens `dir`: reads the manifest through `ReadManifest`, then each
  /// shard's header, rows and offsets, checking the header against the
  /// manifest entry (equal counts, and the entry's `file_bytes` equal to
  /// the layout they imply), both sections' CRCs, rows strictly ascending
  /// and assigned to that shard, and offsets running from 0 to the edge
  /// count without decreasing. Builds the resident index arrays and keeps
  /// each header. O(num_nodes) work and I/O; adjacency sections are not
  /// read until a shard is pinned. Returns `kNotFound` when no manifest
  /// exists, `kDataLoss` for corruption (first offender named).
  static common::StatusOr<std::unique_ptr<ShardedGraph>> Open(
      const std::string& dir, OpenOptions options = {});

  ~ShardedGraph();

  ShardedGraph(const ShardedGraph&) = delete;
  ShardedGraph& operator=(const ShardedGraph&) = delete;

  graph::NodeId num_nodes() const { return manifest_.num_nodes; }
  graph::EdgeIndex num_edges() const {
    return static_cast<graph::EdgeIndex>(manifest_.num_edges);
  }
  int num_shards() const { return static_cast<int>(manifest_.shards.size()); }
  const ShardManifest& manifest() const { return manifest_; }
  const std::string& dir() const { return dir_; }
  /// Resolved resident cap in bytes; 0 = unlimited.
  uint64_t budget_bytes() const { return budget_bytes_; }
  /// Total bytes of all shard files — what "fully resident" would cost.
  uint64_t total_shard_bytes() const { return total_shard_bytes_; }

  int shard_of(graph::NodeId u) const {
    SGNN_DCHECK(u < num_nodes());
    return static_cast<int>(manifest_.shard_of[u]);
  }
  graph::EdgeIndex OutDegree(graph::NodeId u) const {
    SGNN_DCHECK(u < num_nodes());
    return degrees_[u];
  }

  /// Maps (if needed) and pins shard `shard`, evicting least-recently-used
  /// unpinned shards to respect the budget. Every map, load or reload,
  /// requires the file's header to equal the one `Open` kept, byte for
  /// byte, and all four section CRCs to match it; the first map of each
  /// shard also checks its adjacency (neighbour ids below `num_nodes`,
  /// each row ascending, finite weights) before any pin of it is
  /// handed out. `kResourceExhausted` when the working set (this shard
  /// plus currently pinned ones) cannot fit; `kDataLoss` when the shard
  /// file fails a check.
  SGNN_NODISCARD common::StatusOr<PinnedShard> PinShard(int shard) SGNN_EXCLUDES(mu_);

  /// Pins the shard owning node `u`.
  SGNN_NODISCARD common::StatusOr<PinnedShard> Pin(graph::NodeId u) {
    return PinShard(shard_of(u));
  }

  StorageStats stats() const SGNN_EXCLUDES(mu_);

 private:
  friend class PinnedShard;

  struct Slot {
    ShardEntry entry;
    /// The header `Open` read and checked, raw and parsed. Its CRCs vouch
    /// for every section of every later map.
    std::array<char, kShardHeaderBytes> header_bytes{};
    ShardHeader header;
    void* base = nullptr;
    const graph::NodeId* rows = nullptr;
    const uint64_t* offsets = nullptr;
    const graph::NodeId* neighbors = nullptr;
    const float* weights = nullptr;
    int pins = 0;
    uint64_t last_use = 0;
    bool mapped = false;
    bool adjacency_checked = false;
  };

  ShardedGraph() = default;

  common::Status MapLocked(int shard) SGNN_REQUIRES(mu_);
  void EvictLocked(int shard) SGNN_REQUIRES(mu_);
  void UnmapLocked(Slot& slot) SGNN_REQUIRES(mu_);
  void Unpin(int shard) SGNN_EXCLUDES(mu_);

  // The next block is written exactly once by Open(), before the graph is
  // handed to any other thread; afterwards every field is read-only, so
  // unguarded access is sound without taking mu_ on hot read paths.
  // sgnn-lint: allow(lock/unannotated-field): set once in Open() pre-share
  std::string dir_;
  // sgnn-lint: allow(lock/unannotated-field): set once in Open() pre-share
  ShardManifest manifest_;
  // sgnn-lint: allow(lock/unannotated-field): set once in Open() pre-share
  uint64_t budget_bytes_ = 0;
  // sgnn-lint: allow(lock/unannotated-field): set once in Open() pre-share
  uint64_t total_shard_bytes_ = 0;
  // sgnn-lint: allow(lock/unannotated-field): set once in Open() pre-share
  std::vector<graph::EdgeIndex> degrees_;  // size num_nodes
  // sgnn-lint: allow(lock/unannotated-field): set once in Open() pre-share
  std::vector<uint32_t> local_row_;        // size num_nodes

  obs::Tracer* tracer_ = nullptr;
  obs::Counter* loads_metric_ = nullptr;
  obs::Counter* evictions_metric_ = nullptr;
  obs::Counter* bytes_loaded_metric_ = nullptr;
  obs::Gauge* resident_metric_ = nullptr;
  obs::Gauge* resident_peak_metric_ = nullptr;

  mutable common::Mutex mu_;
  std::vector<Slot> slots_ SGNN_GUARDED_BY(mu_);
  uint64_t use_clock_ SGNN_GUARDED_BY(mu_) = 0;
  StorageStats stats_ SGNN_GUARDED_BY(mu_);
};

inline int64_t PinnedShard::LocalRow(graph::NodeId u) const {
  SGNN_DCHECK(owner_ != nullptr);
  SGNN_DCHECK(owner_->shard_of(u) == shard_);
  return static_cast<int64_t>(owner_->local_row_[u]);
}

}  // namespace sgnn::storage

#endif  // SGNN_STORAGE_SHARDED_GRAPH_H_
