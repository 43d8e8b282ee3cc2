#include "storage/format.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/bytes.h"
#include "simd/simd.h"

namespace sgnn::storage {

using common::Status;
using common::StatusOr;

namespace {

constexpr uint64_t PadTo8(uint64_t n) { return (n + 7) & ~uint64_t{7}; }

Status Corrupt(const std::string& where, const std::string& why) {
  // kDataLoss rather than kIOError: the read itself worked, but the bytes
  // fail integrity checks — a torn write or bit rot, not a device error.
  return Status::DataLoss("corrupt shard data " + where + ": " + why);
}

}  // namespace

ShardLayout LayoutFor(uint64_t num_rows, uint64_t num_edges) {
  ShardLayout layout;
  layout.rows_off = kShardHeaderBytes;
  layout.offsets_off = layout.rows_off + PadTo8(num_rows * sizeof(uint32_t));
  layout.neighbors_off =
      layout.offsets_off + (num_rows + 1) * sizeof(uint64_t);
  layout.weights_off =
      layout.neighbors_off + PadTo8(num_edges * sizeof(uint32_t));
  layout.file_bytes = layout.weights_off + num_edges * sizeof(float);
  return layout;
}

std::string ManifestPath(const std::string& dir) {
  return dir + "/manifest.sgnn";
}

std::string ShardPath(const std::string& dir, int shard) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%06d.sgnn", shard);
  return dir + "/" + name;
}

std::string SerializeManifest(const ShardManifest& manifest) {
  common::ByteWriter w;
  w.Bytes(kManifestMagic, sizeof(kManifestMagic));
  w.Pod<uint32_t>(manifest.version);
  w.Pod<uint32_t>(static_cast<uint32_t>(manifest.shards.size()));
  w.Pod<uint32_t>(manifest.num_nodes);
  w.Pod<uint64_t>(manifest.num_edges);
  for (const ShardEntry& entry : manifest.shards) {
    w.Pod<uint32_t>(entry.num_rows);
    w.Pod<uint32_t>(entry.min_node);
    w.Pod<uint32_t>(entry.max_node);
    w.Pod<uint64_t>(entry.num_edges);
    w.Pod<uint64_t>(entry.file_bytes);
  }
  const size_t assignment_bytes =
      manifest.shard_of.size() * sizeof(uint32_t);
  w.Pod<uint32_t>(simd::Crc32(manifest.shard_of.data(), assignment_bytes));
  w.Bytes(manifest.shard_of.data(), assignment_bytes);
  w.CrcTrailer();
  return w.Release();
}

std::string SerializeShard(const ShardData& shard) {
  const uint64_t num_rows = shard.rows.size();
  const uint64_t num_edges = shard.neighbors.size();
  const ShardLayout layout = LayoutFor(num_rows, num_edges);
  const size_t rows_bytes = num_rows * sizeof(uint32_t);
  const size_t offsets_bytes = (num_rows + 1) * sizeof(uint64_t);
  const size_t neighbors_bytes = num_edges * sizeof(uint32_t);
  const size_t weights_bytes = num_edges * sizeof(float);

  common::ByteWriter w(layout.file_bytes);
  w.Bytes(kShardMagic, sizeof(kShardMagic));
  w.Pod<uint32_t>(kFormatVersion);
  w.Pod<uint32_t>(shard.shard_id);
  w.Pod<uint32_t>(static_cast<uint32_t>(num_rows));
  w.Pod<uint32_t>(simd::Crc32(shard.rows.data(), rows_bytes));
  w.Pod<uint64_t>(num_edges);
  w.Pod<uint32_t>(simd::Crc32(shard.offsets.data(), offsets_bytes));
  w.Pod<uint32_t>(simd::Crc32(shard.neighbors.data(), neighbors_bytes));
  w.Pod<uint32_t>(simd::Crc32(shard.weights.data(), weights_bytes));
  w.CrcTrailer();

  w.Bytes(shard.rows.data(), rows_bytes);
  w.PadTo(layout.offsets_off);
  w.Bytes(shard.offsets.data(), offsets_bytes);
  w.Bytes(shard.neighbors.data(), neighbors_bytes);
  w.PadTo(layout.weights_off);
  w.Bytes(shard.weights.data(), weights_bytes);
  return w.Release();
}

StatusOr<ShardManifest> ReadManifest(const std::string& path) {
  auto bytes_or = common::ReadFile(path);
  if (!bytes_or.ok()) return bytes_or.status();
  const std::string& bytes = bytes_or.value();

  if (bytes.size() < sizeof(kManifestMagic) + common::kCrcTrailerBytes) {
    return Corrupt(path, "truncated manifest (too small for header)");
  }
  common::ByteReader in(bytes.data(), bytes.size() - common::kCrcTrailerBytes);
  const char* magic = in.Take(sizeof(kManifestMagic));
  if (!in.ok() ||
      std::memcmp(magic, kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return Corrupt(path, "bad magic (not a shard manifest)");
  }
  if (!common::CheckCrcTrailer(bytes)) {
    return Corrupt(path, "manifest CRC mismatch");
  }

  ShardManifest manifest;
  manifest.version = in.Pod<uint32_t>();
  if (in.ok() && manifest.version != kFormatVersion) {
    return Corrupt(path, "unsupported format version " +
                             std::to_string(manifest.version));
  }
  const uint32_t num_shards = in.Pod<uint32_t>();
  manifest.num_nodes = in.Pod<uint32_t>();
  manifest.num_edges = in.Pod<uint64_t>();
  if (in.ok() && (num_shards == 0 || num_shards > (1u << 20))) {
    return Corrupt(path, "implausible shard count " +
                             std::to_string(num_shards));
  }
  constexpr size_t kEntryBytes = 3 * sizeof(uint32_t) + 2 * sizeof(uint64_t);
  if (!in.Fits(num_shards, kEntryBytes)) {
    return Corrupt(path, "truncated manifest");
  }
  manifest.shards.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    ShardEntry entry;
    entry.num_rows = in.Pod<uint32_t>();
    entry.min_node = in.Pod<uint32_t>();
    entry.max_node = in.Pod<uint32_t>();
    entry.num_edges = in.Pod<uint64_t>();
    entry.file_bytes = in.Pod<uint64_t>();
    manifest.shards.push_back(entry);
  }
  const uint32_t assignment_crc = in.Pod<uint32_t>();
  if (!in.Vec(manifest.num_nodes, &manifest.shard_of)) {
    return Corrupt(path, "truncated manifest");
  }
  if (in.left() != 0) return Corrupt(path, "trailing bytes after manifest");
  if (simd::Crc32(manifest.shard_of.data(),
                    manifest.shard_of.size() * sizeof(uint32_t)) !=
      assignment_crc) {
    return Corrupt(path, "assignment section CRC mismatch");
  }

  // The shard table must describe the assignment exactly: one counting
  // pass recovers each shard's row count and node range, and any
  // disagreement means overlapping, missing or misplaced ownership.
  std::vector<uint32_t> rows_seen(num_shards, 0);
  std::vector<graph::NodeId> lo(num_shards, 0);
  std::vector<graph::NodeId> hi(num_shards, 0);
  for (graph::NodeId u = 0; u < manifest.num_nodes; ++u) {
    const uint32_t s = manifest.shard_of[u];
    if (s >= num_shards) {
      return Corrupt(path, "node " + std::to_string(u) + " assigned to shard " +
                               std::to_string(s) + " of " +
                               std::to_string(num_shards));
    }
    if (rows_seen[s]++ == 0) lo[s] = u;
    hi[s] = u;
  }
  uint64_t total_edges = 0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    const ShardEntry& entry = manifest.shards[s];
    const std::string shard = "shard " + std::to_string(s);
    if (entry.num_rows != rows_seen[s]) {
      return Corrupt(path, shard + " claims " +
                               std::to_string(entry.num_rows) +
                               " rows but the assignment yields " +
                               std::to_string(rows_seen[s]) +
                               " (overlapping or missing ownership)");
    }
    if (entry.num_rows > 0 &&
        (entry.min_node != lo[s] || entry.max_node != hi[s])) {
      return Corrupt(path, shard + " node range [" +
                               std::to_string(entry.min_node) + ", " +
                               std::to_string(entry.max_node) +
                               "] disagrees with the assignment's [" +
                               std::to_string(lo[s]) + ", " +
                               std::to_string(hi[s]) + "]");
    }
    if (entry.num_edges > manifest.num_edges - total_edges) {
      return Corrupt(path, "shard edge counts exceed the manifest's " +
                               std::to_string(manifest.num_edges) + " edges");
    }
    total_edges += entry.num_edges;
  }
  if (total_edges != manifest.num_edges) {
    return Corrupt(path, "shard edge counts sum to " +
                             std::to_string(total_edges) + ", manifest says " +
                             std::to_string(manifest.num_edges));
  }
  return manifest;
}

StatusOr<ShardHeader> ParseShardHeader(const void* bytes, uint64_t file_bytes,
                                       const std::string& where) {
  if (file_bytes < kShardHeaderBytes) {
    return Corrupt(where, "truncated shard file (smaller than header)");
  }
  common::ByteReader in(bytes, file_bytes);
  const char* magic = in.Take(sizeof(kShardMagic));
  if (!in.ok() || std::memcmp(magic, kShardMagic, sizeof(kShardMagic)) != 0) {
    return Corrupt(where, "bad magic (not a shard file)");
  }
  const uint32_t version = in.Pod<uint32_t>();
  ShardHeader header;
  header.shard_id = in.Pod<uint32_t>();
  header.num_rows = in.Pod<uint32_t>();
  header.crc_rows = in.Pod<uint32_t>();
  header.num_edges = in.Pod<uint64_t>();
  header.crc_offsets = in.Pod<uint32_t>();
  header.crc_neighbors = in.Pod<uint32_t>();
  header.crc_weights = in.Pod<uint32_t>();
  in.Skip(common::kCrcTrailerBytes);  // header_crc, checked next
  if (!common::CheckCrcTrailer(
          {static_cast<const char*>(bytes), kShardHeaderBytes})) {
    return Corrupt(where, "shard header CRC mismatch");
  }
  if (version != kFormatVersion) {
    return Corrupt(where,
                   "unsupported format version " + std::to_string(version));
  }
  // Each edge takes a neighbour and a weight, so a count past that bound
  // cannot fit; checking it first keeps `LayoutFor` from wrapping 64 bits.
  if (!in.Fits(header.num_edges, sizeof(uint32_t) + sizeof(float))) {
    return Corrupt(where, "edge count " + std::to_string(header.num_edges) +
                              " exceeds the file size");
  }
  const ShardLayout layout = LayoutFor(header.num_rows, header.num_edges);
  if (layout.file_bytes != file_bytes) {
    return Corrupt(where, "truncated shard file (header implies " +
                              std::to_string(layout.file_bytes) +
                              " bytes, file has " +
                              std::to_string(file_bytes) + ")");
  }
  return header;
}

Status VerifyShardSections(const void* bytes, const ShardHeader& header,
                           const std::string& where) {
  const char* p = static_cast<const char*>(bytes);
  const ShardLayout layout = LayoutFor(header.num_rows, header.num_edges);
  struct Section {
    const char* name;
    uint64_t off;
    uint64_t size;
    uint32_t crc;
  };
  const Section sections[] = {
      {"rows", layout.rows_off, header.num_rows * sizeof(uint32_t),
       header.crc_rows},
      {"offsets", layout.offsets_off,
       (uint64_t{header.num_rows} + 1) * sizeof(uint64_t),
       header.crc_offsets},
      {"neighbors", layout.neighbors_off, header.num_edges * sizeof(uint32_t),
       header.crc_neighbors},
      {"weights", layout.weights_off, header.num_edges * sizeof(float),
       header.crc_weights},
  };
  for (const Section& section : sections) {
    if (simd::Crc32(p + section.off, section.size) != section.crc) {
      return Corrupt(where, std::string("CRC mismatch in ") + section.name +
                                " section");
    }
  }
  return Status::OK();
}

uint64_t ParseBudget(const char* text, uint64_t fallback) {
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text) return fallback;
  uint64_t multiplier = 1;
  if (*end == 'k' || *end == 'K') {
    multiplier = uint64_t{1} << 10;
    ++end;
  } else if (*end == 'm' || *end == 'M') {
    multiplier = uint64_t{1} << 20;
    ++end;
  } else if (*end == 'g' || *end == 'G') {
    multiplier = uint64_t{1} << 30;
    ++end;
  }
  if (*end != '\0') return fallback;
  return static_cast<uint64_t>(value) * multiplier;
}

uint64_t ResidentBudgetBytes(uint64_t context_budget) {
  if (context_budget != 0) return context_budget;
  return ParseBudget(std::getenv(kResidentBudgetEnv), 0);
}

}  // namespace sgnn::storage
