#include "storage/format.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <type_traits>

#include "common/crc32.h"

namespace sgnn::storage {

using common::Status;
using common::StatusOr;

namespace {

// ---- little serialisation helpers over a growable byte buffer ----------
// (same idiom as core/checkpoint.cc: append PODs, read back through a
// bounds-checked cursor so truncation is a framing error, never UB).

void PutBytes(std::string* buf, const void* data, size_t n) {
  buf->append(static_cast<const char*>(data), n);
}

template <typename T>
void PutPod(std::string* buf, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  PutBytes(buf, &v, sizeof(v));
}

struct Cursor {
  const char* p;
  size_t left;
  bool ok = true;

  bool Take(void* out, size_t n) {
    if (!ok || n > left) {
      ok = false;
      return false;
    }
    if (n != 0) std::memcpy(out, p, n);  // Empty vectors may have null data().
    p += n;
    left -= n;
    return true;
  }

  template <typename T>
  T Pod() {
    T v{};
    Take(&v, sizeof(v));
    return v;
  }
};

constexpr uint64_t PadTo8(uint64_t n) { return (n + 7) & ~uint64_t{7}; }

Status Corrupt(const std::string& where, const std::string& why) {
  // kDataLoss rather than kIOError: the read itself worked, but the bytes
  // fail integrity checks — a torn write or bit rot, not a device error.
  return Status::DataLoss("corrupt shard data " + where + ": " + why);
}

/// Reads a whole file; `kNotFound` when it does not exist.
StatusOr<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no such file: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("read failed: " + path);
  return bytes;
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
  std::string buf;
  PutBytes(&buf, kManifestMagic, sizeof(kManifestMagic));
  PutPod<uint32_t>(&buf, manifest.version);
  PutPod<uint32_t>(&buf, static_cast<uint32_t>(manifest.shards.size()));
  PutPod<uint32_t>(&buf, manifest.num_nodes);
  PutPod<uint64_t>(&buf, manifest.num_edges);
  for (const ShardEntry& entry : manifest.shards) {
    PutPod<uint32_t>(&buf, entry.num_rows);
    PutPod<uint32_t>(&buf, entry.min_node);
    PutPod<uint32_t>(&buf, entry.max_node);
    PutPod<uint64_t>(&buf, entry.num_edges);
    PutPod<uint64_t>(&buf, entry.file_bytes);
  }
  const size_t assignment_bytes =
      manifest.shard_of.size() * sizeof(uint32_t);
  PutPod<uint32_t>(&buf,
                   common::Crc32(manifest.shard_of.data(), assignment_bytes));
  PutBytes(&buf, manifest.shard_of.data(), assignment_bytes);
  PutPod<uint32_t>(&buf, common::Crc32(buf.data(), buf.size()));
  return buf;
}

std::string SerializeShard(const ShardData& shard) {
  const uint64_t num_rows = shard.rows.size();
  const uint64_t num_edges = shard.neighbors.size();
  const ShardLayout layout = LayoutFor(num_rows, num_edges);

  std::string buf;
  buf.reserve(layout.file_bytes);
  PutBytes(&buf, kShardMagic, sizeof(kShardMagic));
  PutPod<uint32_t>(&buf, kFormatVersion);
  PutPod<uint32_t>(&buf, shard.shard_id);
  PutPod<uint32_t>(&buf, static_cast<uint32_t>(num_rows));
  PutPod<uint32_t>(&buf, common::Crc32(shard.rows.data(),
                                       num_rows * sizeof(uint32_t)));
  PutPod<uint64_t>(&buf, num_edges);
  PutPod<uint32_t>(&buf, common::Crc32(shard.offsets.data(),
                                       (num_rows + 1) * sizeof(uint64_t)));
  PutPod<uint32_t>(&buf, common::Crc32(shard.neighbors.data(),
                                       num_edges * sizeof(uint32_t)));
  PutPod<uint32_t>(&buf, common::Crc32(shard.weights.data(),
                                       num_edges * sizeof(float)));
  PutPod<uint32_t>(&buf, common::Crc32(buf.data(), buf.size()));

  auto put_section = [&buf](const void* data, size_t n, uint64_t end_off) {
    PutBytes(&buf, data, n);
    buf.resize(end_off, '\0');  // Zero pad to the next 8-byte boundary.
  };
  put_section(shard.rows.data(), num_rows * sizeof(uint32_t),
              layout.offsets_off);
  put_section(shard.offsets.data(), (num_rows + 1) * sizeof(uint64_t),
              layout.neighbors_off);
  put_section(shard.neighbors.data(), num_edges * sizeof(uint32_t),
              layout.weights_off);
  put_section(shard.weights.data(), num_edges * sizeof(float),
              layout.file_bytes);
  return buf;
}

StatusOr<ShardManifest> ReadManifest(const std::string& path) {
  auto bytes_or = ReadFileBytes(path);
  if (!bytes_or.ok()) return bytes_or.status();
  const std::string& bytes = bytes_or.value();

  if (bytes.size() < sizeof(kManifestMagic) + sizeof(uint32_t)) {
    return Corrupt(path, "truncated manifest (too small for header)");
  }
  if (std::memcmp(bytes.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return Corrupt(path, "bad magic (not a shard manifest)");
  }
  const size_t payload = bytes.size() - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + payload, sizeof(stored_crc));
  if (common::Crc32(bytes.data(), payload) != stored_crc) {
    return Corrupt(path, "manifest CRC mismatch");
  }

  Cursor cur{bytes.data() + sizeof(kManifestMagic),
             payload - sizeof(kManifestMagic)};
  ShardManifest manifest;
  manifest.version = cur.Pod<uint32_t>();
  if (cur.ok && manifest.version != kFormatVersion) {
    return Corrupt(path, "unsupported format version " +
                             std::to_string(manifest.version));
  }
  const uint32_t num_shards = cur.Pod<uint32_t>();
  manifest.num_nodes = cur.Pod<uint32_t>();
  manifest.num_edges = cur.Pod<uint64_t>();
  if (cur.ok && (num_shards == 0 || num_shards > (1u << 20))) {
    return Corrupt(path, "implausible shard count " +
                             std::to_string(num_shards));
  }
  // Each count is checked against the bytes left before it sizes an
  // allocation.
  constexpr size_t kEntryBytes = 3 * sizeof(uint32_t) + 2 * sizeof(uint64_t);
  if (!cur.ok || num_shards > cur.left / kEntryBytes) {
    return Corrupt(path, "truncated manifest");
  }
  manifest.shards.reserve(num_shards);
  for (uint32_t s = 0; cur.ok && s < num_shards; ++s) {
    ShardEntry entry;
    entry.num_rows = cur.Pod<uint32_t>();
    entry.min_node = cur.Pod<uint32_t>();
    entry.max_node = cur.Pod<uint32_t>();
    entry.num_edges = cur.Pod<uint64_t>();
    entry.file_bytes = cur.Pod<uint64_t>();
    manifest.shards.push_back(entry);
  }
  const uint32_t assignment_crc = cur.Pod<uint32_t>();
  if (!cur.ok || manifest.num_nodes > cur.left / sizeof(uint32_t)) {
    return Corrupt(path, "truncated manifest");
  }
  manifest.shard_of.resize(manifest.num_nodes);
  cur.Take(manifest.shard_of.data(),
           manifest.shard_of.size() * sizeof(uint32_t));
  if (cur.left != 0) return Corrupt(path, "trailing bytes after manifest");
  if (common::Crc32(manifest.shard_of.data(),
                    manifest.shard_of.size() * sizeof(uint32_t)) !=
      assignment_crc) {
    return Corrupt(path, "assignment section CRC mismatch");
  }
  return manifest;
}

StatusOr<ShardHeader> ParseShardHeader(const void* bytes, uint64_t file_bytes,
                                       const std::string& where) {
  if (file_bytes < kShardHeaderBytes) {
    return Corrupt(where, "truncated shard file (smaller than header)");
  }
  const char* p = static_cast<const char*>(bytes);
  if (std::memcmp(p, kShardMagic, sizeof(kShardMagic)) != 0) {
    return Corrupt(where, "bad magic (not a shard file)");
  }
  Cursor cur{p + sizeof(kShardMagic),
             kShardHeaderBytes - sizeof(kShardMagic)};
  const uint32_t version = cur.Pod<uint32_t>();
  ShardHeader header;
  header.shard_id = cur.Pod<uint32_t>();
  header.num_rows = cur.Pod<uint32_t>();
  header.crc_rows = cur.Pod<uint32_t>();
  header.num_edges = cur.Pod<uint64_t>();
  header.crc_offsets = cur.Pod<uint32_t>();
  header.crc_neighbors = cur.Pod<uint32_t>();
  header.crc_weights = cur.Pod<uint32_t>();
  const uint32_t header_crc = cur.Pod<uint32_t>();
  if (common::Crc32(p, kShardHeaderBytes - sizeof(uint32_t)) != header_crc) {
    return Corrupt(where, "shard header CRC mismatch");
  }
  if (version != kFormatVersion) {
    return Corrupt(where,
                   "unsupported format version " + std::to_string(version));
  }
  // Each edge takes a neighbour and a weight, so a count past that bound
  // cannot fit; checking it first keeps `LayoutFor` from wrapping 64 bits.
  if (header.num_edges > file_bytes / (sizeof(uint32_t) + sizeof(float))) {
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
    if (common::Crc32(p + section.off, section.size) != section.crc) {
      return Corrupt(where, std::string("CRC mismatch in ") + section.name +
                                " section");
    }
  }
  return Status::OK();
}

StatusOr<ShardData> ReadShardFile(const std::string& path) {
  auto bytes_or = ReadFileBytes(path);
  if (!bytes_or.ok()) return bytes_or.status();
  const std::string& bytes = bytes_or.value();

  auto header_or = ParseShardHeader(bytes.data(), bytes.size(), path);
  if (!header_or.ok()) return header_or.status();
  const ShardHeader& header = header_or.value();
  SGNN_RETURN_IF_ERROR(VerifyShardSections(bytes.data(), header, path));

  const ShardLayout layout = LayoutFor(header.num_rows, header.num_edges);
  ShardData shard;
  shard.shard_id = header.shard_id;
  shard.rows.resize(header.num_rows);
  shard.offsets.resize(uint64_t{header.num_rows} + 1);
  shard.neighbors.resize(header.num_edges);
  shard.weights.resize(header.num_edges);
  // An empty section's vector may have a null data(), which memcpy must
  // not see even for zero bytes.
  auto copy_section = [&bytes](void* out, uint64_t off, size_t n) {
    if (n != 0) std::memcpy(out, bytes.data() + off, n);
  };
  copy_section(shard.rows.data(), layout.rows_off,
               shard.rows.size() * sizeof(uint32_t));
  copy_section(shard.offsets.data(), layout.offsets_off,
               shard.offsets.size() * sizeof(uint64_t));
  copy_section(shard.neighbors.data(), layout.neighbors_off,
               shard.neighbors.size() * sizeof(uint32_t));
  copy_section(shard.weights.data(), layout.weights_off,
               shard.weights.size() * sizeof(float));
  return shard;
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
