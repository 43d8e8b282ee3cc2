// CRC resealing for forged shard files and manifests: after a test edits
// the bytes, these recompute every checksum the edit broke, so the forgery
// passes the integrity checks and reaches the reader's own rules. Each
// tolerates a malformed image and leaves alone a checksum whose position
// or extent falls outside the bytes.

#ifndef SGNN_TESTS_SHARD_RESEAL_H_
#define SGNN_TESTS_SHARD_RESEAL_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/crc32.h"
#include "storage/format.h"

namespace sgnn {

/// Writes `crc` at `offset` when it fits.
inline void PutCrc(std::string* bytes, uint64_t offset, uint32_t crc) {
  if (offset + sizeof(crc) <= bytes->size()) {
    std::memcpy(bytes->data() + offset, &crc, sizeof(crc));
  }
}

/// Recomputes the CRC-32 trailer over everything before it.
inline void ResealTrailer(std::string* bytes) {
  if (bytes->size() < sizeof(uint32_t)) return;
  const size_t payload = bytes->size() - sizeof(uint32_t);
  PutCrc(bytes, payload, common::Crc32(bytes->data(), payload));
}

/// Reseals a shard file: when the header's counts imply the file's exact
/// size, the four section CRCs; then the header CRC.
inline void ResealShard(std::string* bytes) {
  if (bytes->size() < storage::kShardHeaderBytes) return;
  uint32_t num_rows = 0;
  uint64_t num_edges = 0;
  std::memcpy(&num_rows, bytes->data() + 16, sizeof(num_rows));
  std::memcpy(&num_edges, bytes->data() + 24, sizeof(num_edges));
  if (num_edges <= bytes->size() / 8) {
    const storage::ShardLayout layout =
        storage::LayoutFor(num_rows, num_edges);
    if (layout.file_bytes == bytes->size()) {
      const struct {
        uint64_t crc_at;
        uint64_t off;
        uint64_t size;
      } sections[] = {
          {20, layout.rows_off, uint64_t{num_rows} * 4},
          {32, layout.offsets_off, (uint64_t{num_rows} + 1) * 8},
          {36, layout.neighbors_off, num_edges * 4},
          {40, layout.weights_off, num_edges * 4},
      };
      for (const auto& s : sections) {
        PutCrc(bytes, s.crc_at, common::Crc32(bytes->data() + s.off, s.size));
      }
    }
  }
  PutCrc(bytes, storage::kShardHeaderBytes - 4,
         common::Crc32(bytes->data(), storage::kShardHeaderBytes - 4));
}

/// Reseals a manifest: when its shard count places the assignment inside
/// the file, the assignment CRC; then the trailing CRC.
inline void ResealManifest(std::string* bytes) {
  if (bytes->size() >= 16) {
    uint32_t num_shards = 0;
    std::memcpy(&num_shards, bytes->data() + 12, sizeof(num_shards));
    const uint64_t crc_at = 28 + 28 * uint64_t{num_shards};
    if (crc_at + 2 * sizeof(uint32_t) <= bytes->size()) {
      const size_t assignment = crc_at + sizeof(uint32_t);
      PutCrc(bytes, crc_at,
             common::Crc32(bytes->data() + assignment,
                           bytes->size() - sizeof(uint32_t) - assignment));
    }
  }
  ResealTrailer(bytes);
}

}  // namespace sgnn

#endif  // SGNN_TESTS_SHARD_RESEAL_H_
