#include "storage/sharded_graph.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/posix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/simd.h"

namespace sgnn::storage {

using common::Status;
using common::StatusOr;
using graph::NodeId;

namespace {

Status Corrupt(const std::string& where, const std::string& why) {
  return Status::DataLoss("corrupt shard data " + where + ": " + why);
}

/// Open-time read of one shard's header + rows + offsets sections through
/// buffered streams (these feed the resident index arrays; they are not
/// cache loads and are not billed as such). The adjacency sections stay on
/// disk until the shard is pinned. Copies the raw header to
/// `header_bytes` and returns it parsed.
StatusOr<ShardHeader> ReadShardIndex(const std::string& path,
                                     const ShardEntry& entry, int shard,
                                     char* header_bytes,
                                     std::vector<NodeId>* rows,
                                     std::vector<uint64_t>* offsets) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no such file: " + path);
  in.read(header_bytes, kShardHeaderBytes);
  if (!in) return Corrupt(path, "truncated shard file (smaller than header)");

  auto header_or = ParseShardHeader(header_bytes, entry.file_bytes, path);
  if (!header_or.ok()) return header_or.status();
  const ShardHeader& header = header_or.value();
  if (header.shard_id != static_cast<uint32_t>(shard)) {
    return Corrupt(path, "shard id " + std::to_string(header.shard_id) +
                             " does not match manifest position " +
                             std::to_string(shard));
  }
  if (header.num_rows != entry.num_rows ||
      header.num_edges != entry.num_edges) {
    return Corrupt(path, "shard header counts disagree with manifest");
  }

  const ShardLayout layout = LayoutFor(entry.num_rows, entry.num_edges);
  rows->resize(entry.num_rows);
  offsets->resize(uint64_t{entry.num_rows} + 1);
  in.seekg(static_cast<std::streamoff>(layout.rows_off));
  in.read(reinterpret_cast<char*>(rows->data()),
          static_cast<std::streamsize>(rows->size() * sizeof(NodeId)));
  in.seekg(static_cast<std::streamoff>(layout.offsets_off));
  in.read(reinterpret_cast<char*>(offsets->data()),
          static_cast<std::streamsize>(offsets->size() * sizeof(uint64_t)));
  if (!in) return Corrupt(path, "truncated shard file (index sections)");
  if (simd::Crc32(rows->data(), rows->size() * sizeof(NodeId)) !=
      header.crc_rows) {
    return Corrupt(path, "CRC mismatch in rows section");
  }
  if (simd::Crc32(offsets->data(), offsets->size() * sizeof(uint64_t)) !=
      header.crc_offsets) {
    return Corrupt(path, "CRC mismatch in offsets section");
  }
  return header_or;
}

/// A shard's adjacency rules over its mapped sections: every neighbour id
/// below `num_nodes` (kernels index per-node tables with it), each row's
/// neighbours ascending, every weight finite. A row may repeat a neighbour:
/// `CsrGraph::FromEdges` keeps parallel edges and the writer stores them.
/// `offsets` are the ones `Open` checked, which the header's CRC vouches
/// for.
Status CheckAdjacency(const std::string& path, NodeId num_nodes,
                      uint32_t num_rows, const NodeId* rows,
                      const uint64_t* offsets, const NodeId* neighbors,
                      const float* weights) {
  for (uint32_t r = 0; r < num_rows; ++r) {
    NodeId previous = 0;
    for (uint64_t e = offsets[r]; e < offsets[r + 1]; ++e) {
      // sgnn-lint: allow(billing/unbilled-kernel-loop): an integrity check
      // of the bytes just mapped, not kernel work; it bills nothing so a
      // run's OpCounters do not depend on which maps were first.
      const NodeId v = neighbors[e];
      const char* broken = nullptr;
      if (v >= num_nodes) {
        broken = "neighbour id out of range";
      } else if (v < previous) {
        broken = "adjacency not sorted";
      } else if (!std::isfinite(weights[e])) {
        broken = "weight not finite";
      }
      previous = v;
      if (broken != nullptr) {
        return Corrupt(path, std::string(broken) + " at row " +
                                 std::to_string(r) + " (node " +
                                 std::to_string(rows[r]) + ") edge " +
                                 std::to_string(e) + " -> " +
                                 std::to_string(v) + " (num_nodes " +
                                 std::to_string(num_nodes) + ")");
      }
    }
  }
  return Status::OK();
}

}  // namespace

// ---- PinnedShard --------------------------------------------------------

PinnedShard::PinnedShard(ShardedGraph* owner, int shard)
    : owner_(owner), shard_(shard) {}

PinnedShard& PinnedShard::operator=(PinnedShard&& other) noexcept {
  if (this != &other) {
    Release();
    owner_ = std::exchange(other.owner_, nullptr);
    shard_ = std::exchange(other.shard_, -1);
    num_rows_ = other.num_rows_;
    rows_ = other.rows_;
    offsets_ = other.offsets_;
    neighbors_ = other.neighbors_;
    weights_ = other.weights_;
  }
  return *this;
}

void PinnedShard::Release() {
  if (owner_ != nullptr) {
    owner_->Unpin(shard_);
    owner_ = nullptr;
  }
}

// ---- ShardedGraph -------------------------------------------------------

StatusOr<std::unique_ptr<ShardedGraph>> ShardedGraph::Open(
    const std::string& dir, OpenOptions options) {
  auto manifest_or = ReadManifest(ManifestPath(dir));
  if (!manifest_or.ok()) return manifest_or.status();

  std::unique_ptr<ShardedGraph> g(new ShardedGraph());
  g->dir_ = dir;
  g->manifest_ = std::move(manifest_or).value();
  g->budget_bytes_ = ResidentBudgetBytes(options.budget_bytes);
  if (g->budget_bytes_ == kUnlimitedBudget) g->budget_bytes_ = 0;
  g->tracer_ = options.tracer;

  const ShardManifest& manifest = g->manifest_;
  const auto num_shards = static_cast<uint32_t>(manifest.shards.size());

  // Resident index arrays from the assignment: local row = rank of u
  // within its shard in ascending node order, which is exactly the row
  // order the writer laid down.
  g->local_row_.resize(manifest.num_nodes);
  std::vector<uint32_t> rows_seen(num_shards, 0);
  for (NodeId u = 0; u < manifest.num_nodes; ++u) {
    g->local_row_[u] = rows_seen[manifest.shard_of[u]]++;
  }

  // Per-shard index read: checks the header, the rows and offsets, and
  // fills the resident degree array the kernels consult without pinning.
  g->degrees_.assign(manifest.num_nodes, 0);
  g->slots_.resize(num_shards);
  std::vector<NodeId> rows;
  std::vector<uint64_t> offsets;
  for (uint32_t s = 0; s < num_shards; ++s) {
    Slot& slot = g->slots_[s];
    slot.entry = manifest.shards[s];
    const std::string path = ShardPath(dir, static_cast<int>(s));
    auto header_or =
        ReadShardIndex(path, slot.entry, static_cast<int>(s),
                       slot.header_bytes.data(), &rows, &offsets);
    if (!header_or.ok()) return header_or.status();
    slot.header = header_or.value();
    if (offsets[0] != 0 ||
        offsets[slot.entry.num_rows] != slot.entry.num_edges) {
      return Corrupt(path, "offsets do not span the edge section");
    }
    for (uint32_t r = 0; r < slot.entry.num_rows; ++r) {
      const NodeId u = rows[r];
      if (u >= manifest.num_nodes) {
        return Corrupt(path, "row node id " + std::to_string(u) +
                                 " out of range");
      }
      if (r > 0 && u <= rows[r - 1]) {
        return Corrupt(path, "row ids not strictly ascending at row " +
                                 std::to_string(r));
      }
      if (manifest.shard_of[u] != s) {
        return Corrupt(path, "node " + std::to_string(u) +
                                 " listed in shard " + std::to_string(s) +
                                 " but assigned to shard " +
                                 std::to_string(manifest.shard_of[u]) +
                                 " (overlapping shard ownership)");
      }
      if (offsets[r + 1] < offsets[r]) {
        return Corrupt(path, "offsets decrease at row " + std::to_string(r));
      }
      g->degrees_[u] =
          static_cast<graph::EdgeIndex>(offsets[r + 1] - offsets[r]);
    }
    g->total_shard_bytes_ += slot.entry.file_bytes;
  }

  if (options.metrics != nullptr) {
    obs::MetricsRegistry& metrics = *options.metrics;
    g->loads_metric_ = metrics.GetCounter(
        "sgnn_storage_shard_loads_total",
        "Shard files mapped into the resident cache (reloads count again)");
    g->evictions_metric_ = metrics.GetCounter(
        "sgnn_storage_shard_evictions_total",
        "Shards unmapped to stay under the resident budget");
    g->bytes_loaded_metric_ = metrics.GetCounter(
        "sgnn_storage_bytes_loaded_total", "Total shard bytes mapped");
    g->resident_metric_ = metrics.GetGauge(
        "sgnn_storage_resident_bytes",
        "Currently mapped shard bytes (never exceeds the budget)");
    g->resident_peak_metric_ = metrics.GetGauge(
        "sgnn_storage_resident_peak_bytes",
        "High-water mark of mapped shard bytes");
    metrics
        .GetGauge("sgnn_storage_budget_bytes",
                  "Resolved resident budget (0 = unlimited)")
        ->Set(static_cast<double>(g->budget_bytes_));
  }
  return g;
}

ShardedGraph::~ShardedGraph() {
  common::MutexLock lock(mu_);
  for (Slot& slot : slots_) {
    SGNN_DCHECK(slot.pins == 0);
    if (slot.mapped) UnmapLocked(slot);
  }
}

StatusOr<PinnedShard> ShardedGraph::PinShard(int shard) {
  SGNN_CHECK(shard >= 0 && shard < num_shards());
  common::MutexLock lock(mu_);
  Slot& slot = slots_[static_cast<size_t>(shard)];
  slot.last_use = ++use_clock_;
  if (!slot.mapped) {
    const uint64_t needed = slot.entry.file_bytes;
    const uint64_t cap = budget_bytes_ == 0 ? ~uint64_t{0} : budget_bytes_;
    while (stats_.resident_bytes + needed > cap) {
      // Deterministic LRU: the unique unpinned shard with the smallest
      // logical access stamp. O(num_shards) scan; shard counts are small.
      int victim = -1;
      uint64_t oldest = ~uint64_t{0};
      for (int i = 0; i < num_shards(); ++i) {
        const Slot& candidate = slots_[static_cast<size_t>(i)];
        if (candidate.mapped && candidate.pins == 0 &&
            candidate.last_use < oldest) {
          oldest = candidate.last_use;
          victim = i;
        }
      }
      if (victim < 0) {
        return Status::ResourceExhausted(
            "resident budget " + std::to_string(budget_bytes_) +
            " bytes cannot fit shard " + std::to_string(shard) + " (" +
            std::to_string(needed) + " bytes) on top of " +
            std::to_string(stats_.resident_bytes) +
            " pinned bytes; raise SGNN_RESIDENT_BUDGET or use more shards");
      }
      EvictLocked(victim);
    }
    SGNN_RETURN_IF_ERROR(MapLocked(shard));
  }
  ++slot.pins;

  PinnedShard pin(this, shard);
  pin.num_rows_ = static_cast<int64_t>(slot.entry.num_rows);
  pin.rows_ = slot.rows;
  pin.offsets_ = slot.offsets;
  pin.neighbors_ = slot.neighbors;
  pin.weights_ = slot.weights;
  return pin;
}

Status ShardedGraph::MapLocked(int shard) {
  Slot& slot = slots_[static_cast<size_t>(shard)];
  const std::string path = ShardPath(dir_, shard);
  auto span =
      obs::StartSpan(tracer_, "storage:load:" + std::to_string(shard),
                     "storage");

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return common::StatusFromErrno("cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    Status status = common::StatusFromErrno("fstat failed: " + path);
    ::close(fd);
    return status;
  }
  if (static_cast<uint64_t>(st.st_size) != slot.entry.file_bytes) {
    ::close(fd);
    return Corrupt(path, "size changed since open (truncated shard file)");
  }
  void* base = ::mmap(nullptr, slot.entry.file_bytes, PROT_READ, MAP_PRIVATE,
                      fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return common::StatusFromErrno("mmap failed: " + path);
  }

  auto fail = [&](Status status) {
    ::munmap(base, slot.entry.file_bytes);
    return status;
  };
  // The header must be the one Open checked: its counts sized the index
  // arrays, and its CRCs now vouch for every section of this map.
  if (std::memcmp(base, slot.header_bytes.data(), kShardHeaderBytes) != 0) {
    return fail(Corrupt(path, "shard header changed since open"));
  }
  Status section_status = VerifyShardSections(base, slot.header, path);
  if (!section_status.ok()) return fail(section_status);

  const ShardLayout layout =
      LayoutFor(slot.entry.num_rows, slot.entry.num_edges);
  const char* bytes = static_cast<const char*>(base);
  const auto* rows = reinterpret_cast<const NodeId*>(bytes + layout.rows_off);
  const auto* offsets =
      reinterpret_cast<const uint64_t*>(bytes + layout.offsets_off);
  const auto* neighbors =
      reinterpret_cast<const NodeId*>(bytes + layout.neighbors_off);
  const auto* weights =
      reinterpret_cast<const float*>(bytes + layout.weights_off);
  // Reloads find the same sections (same header, same CRCs), so the
  // adjacency scan runs once per shard per opened graph.
  if (!slot.adjacency_checked) {
    Status adjacency_status =
        CheckAdjacency(path, num_nodes(), slot.entry.num_rows, rows, offsets,
                       neighbors, weights);
    if (!adjacency_status.ok()) return fail(adjacency_status);
    slot.adjacency_checked = true;
  }
  slot.base = base;
  slot.rows = rows;
  slot.offsets = offsets;
  slot.neighbors = neighbors;
  slot.weights = weights;
  slot.mapped = true;

  stats_.loads += 1;
  stats_.bytes_loaded += slot.entry.file_bytes;
  stats_.resident_bytes += slot.entry.file_bytes;
  if (stats_.resident_bytes > stats_.peak_resident_bytes) {
    stats_.peak_resident_bytes = stats_.resident_bytes;
  }
  if (loads_metric_ != nullptr) {
    loads_metric_->Increment();
    bytes_loaded_metric_->Increment(slot.entry.file_bytes);
    resident_metric_->Set(static_cast<double>(stats_.resident_bytes));
    resident_peak_metric_->SetMax(static_cast<double>(stats_.resident_bytes));
  }
  return Status::OK();
}

void ShardedGraph::EvictLocked(int shard) {
  Slot& slot = slots_[static_cast<size_t>(shard)];
  auto span = obs::StartSpan(
      tracer_, "storage:evict:" + std::to_string(shard), "storage");
  UnmapLocked(slot);
  stats_.evictions += 1;
  if (evictions_metric_ != nullptr) evictions_metric_->Increment();
}

void ShardedGraph::UnmapLocked(Slot& slot) {
  ::munmap(slot.base, slot.entry.file_bytes);
  slot.base = nullptr;
  slot.rows = nullptr;
  slot.offsets = nullptr;
  slot.neighbors = nullptr;
  slot.weights = nullptr;
  slot.mapped = false;
  stats_.resident_bytes -= slot.entry.file_bytes;
  if (resident_metric_ != nullptr) {
    resident_metric_->Set(static_cast<double>(stats_.resident_bytes));
  }
}

void ShardedGraph::Unpin(int shard) {
  common::MutexLock lock(mu_);
  Slot& slot = slots_[static_cast<size_t>(shard)];
  SGNN_DCHECK(slot.pins > 0);
  --slot.pins;
}

StorageStats ShardedGraph::stats() const {
  common::MutexLock lock(mu_);
  return stats_;
}

}  // namespace sgnn::storage
