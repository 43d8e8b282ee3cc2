#ifndef SGNN_STORAGE_FORMAT_H_
#define SGNN_STORAGE_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace sgnn::storage {

/// On-disk sharded-CSR graph format, version 1.
///
/// A sharded graph is a directory holding one `manifest.sgnn` plus one
/// `shard-NNNNNN.sgnn` file per shard. Shards own disjoint *sets* of nodes
/// (not necessarily contiguous ranges — a `partition::Partition` may
/// interleave them); each shard file stores the full adjacency of its nodes
/// as a local CSR. Every section carries a CRC-32 (the `common/crc32`
/// value the pipeline checkpoints use, computed through `simd::Crc32`) so
/// corruption surfaces as a diagnostic, never as silently wrong results.
///
/// Both files are written with `common::ByteWriter` and decoded with
/// `common::ByteReader`, so every count is bounded by the bytes that carry
/// it before it sizes anything.
///
/// Manifest layout (integrity = trailing CRC over everything before it):
///
///   magic "SGNNSHMF" | u32 version | u32 num_shards | u32 num_nodes
///   | u64 num_edges
///   | num_shards x { u32 num_rows | u32 min_node | u32 max_node
///                  | u64 num_edges | u64 file_bytes }
///   | u32 assignment_crc | num_nodes x u32 shard_of
///   | u32 manifest_crc
///
/// Shard file layout (mmap'd at run time, so every section starts on an
/// 8-byte boundary; pad bytes are zero and excluded from section CRCs):
///
///   header (48 bytes):
///     magic "SGNNSHRD" | u32 version | u32 shard_id | u32 num_rows
///     | u32 crc_rows | u64 num_edges | u32 crc_offsets | u32 crc_neighbors
///     | u32 crc_weights | u32 header_crc          (CRC of bytes [0, 44))
///   sections (each padded to 8 bytes):
///     rows       num_rows x u32       sorted global node ids
///     offsets    (num_rows+1) x u64   local CSR offsets, offsets[0] = 0
///     neighbors  num_edges x u32      global ids, sorted per row
///     weights    num_edges x f32      aligned with neighbors
inline constexpr char kManifestMagic[8] = {'S', 'G', 'N', 'N',
                                           'S', 'H', 'M', 'F'};
inline constexpr char kShardMagic[8] = {'S', 'G', 'N', 'N', 'S', 'H', 'R', 'D'};
inline constexpr uint32_t kFormatVersion = 1;
inline constexpr uint64_t kShardHeaderBytes = 48;

/// Environment variable consulted when `OpenOptions::budget_bytes` is 0:
/// decimal bytes with an optional K/M/G suffix (1024-based).
inline constexpr char kResidentBudgetEnv[] = "SGNN_RESIDENT_BUDGET";

/// Per-shard summary recorded in the manifest. `min_node`/`max_node` bound
/// the shard's (possibly non-contiguous) node set; `file_bytes` is the
/// exact shard file size, which doubles as the shard's resident cost when
/// mapped.
struct ShardEntry {
  uint32_t num_rows = 0;
  graph::NodeId min_node = 0;
  graph::NodeId max_node = 0;
  uint64_t num_edges = 0;
  uint64_t file_bytes = 0;
};

/// Decoded manifest: shard table plus the full node->shard assignment.
struct ShardManifest {
  uint32_t version = kFormatVersion;
  graph::NodeId num_nodes = 0;
  uint64_t num_edges = 0;
  std::vector<ShardEntry> shards;
  std::vector<uint32_t> shard_of;  // size num_nodes
};

/// One shard file's contents in memory: what `SerializeShard` lays out.
/// Readers never decode a shard into this; `ShardedGraph` maps the file.
struct ShardData {
  uint32_t shard_id = 0;
  std::vector<graph::NodeId> rows;       // sorted global ids
  std::vector<uint64_t> offsets;         // size rows.size() + 1
  std::vector<graph::NodeId> neighbors;  // size offsets.back()
  std::vector<float> weights;            // aligned with neighbors
};

/// Fixed-size shard header after magic/version/CRC verification.
struct ShardHeader {
  uint32_t shard_id = 0;
  uint32_t num_rows = 0;
  uint64_t num_edges = 0;
  uint32_t crc_rows = 0;
  uint32_t crc_offsets = 0;
  uint32_t crc_neighbors = 0;
  uint32_t crc_weights = 0;
};

/// Byte offsets of each section for the given counts. `file_bytes` is the
/// total (and exact) shard file size.
struct ShardLayout {
  uint64_t rows_off = 0;
  uint64_t offsets_off = 0;
  uint64_t neighbors_off = 0;
  uint64_t weights_off = 0;
  uint64_t file_bytes = 0;
};

ShardLayout LayoutFor(uint64_t num_rows, uint64_t num_edges);

std::string ManifestPath(const std::string& dir);
std::string ShardPath(const std::string& dir, int shard);

/// Serialises to the layouts documented above (CRCs included).
std::string SerializeManifest(const ShardManifest& manifest);
std::string SerializeShard(const ShardData& shard);

/// Decodes and checks a manifest file: its framing (truncation, bad
/// magic/version), both CRCs, and that the shard table describes the
/// assignment exactly — every assignment entry below the shard count, each
/// shard's row count and `[min_node, max_node]` those of the nodes
/// assigned to it, and the shard edge counts summing to `num_edges`. Any
/// violation is `kDataLoss` naming the first offender; a missing file is
/// `kNotFound`. Each shard's `file_bytes` is checked against its counts by
/// `ShardedGraph::Open`, which parses the shard header with it.
SGNN_NODISCARD common::StatusOr<ShardManifest> ReadManifest(const std::string& path);

/// Verifies magic/version/header-CRC and that `file_bytes` matches the
/// layout implied by the header counts, without touching the sections.
/// `where` names the file in diagnostics.
SGNN_NODISCARD common::StatusOr<ShardHeader> ParseShardHeader(const void* bytes,
                                               uint64_t file_bytes,
                                               const std::string& where);

/// CRC-checks all four sections of a complete shard image (mapped or
/// read); `header` must come from `ParseShardHeader` over the same bytes.
SGNN_NODISCARD common::Status VerifyShardSections(const void* bytes,
                                   const ShardHeader& header,
                                   const std::string& where);

/// Parses a budget spec: decimal bytes with an optional K/M/G suffix
/// (1024-based), e.g. "262144", "256K", "1G". Null/empty/invalid specs
/// return `fallback`. "0" means unlimited, matching the budget convention.
uint64_t ParseBudget(const char* text, uint64_t fallback);

/// Effective resident budget: `context_budget` when non-zero, else the
/// `SGNN_RESIDENT_BUDGET` environment variable, else 0 (unlimited).
uint64_t ResidentBudgetBytes(uint64_t context_budget);

}  // namespace sgnn::storage

#endif  // SGNN_STORAGE_FORMAT_H_
