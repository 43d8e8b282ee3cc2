#ifndef SGNN_COMMON_CRC32_H_
#define SGNN_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace sgnn::common {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/gzip variant) over `n` bytes.
/// Pass a previous result as `crc` to checksum data incrementally:
/// `Crc32(b, nb, Crc32(a, na))` equals the CRC of a||b. Every integrity
/// check in the library uses it: shard headers and sections (verified on
/// every map, reloads included) and shard manifests in `storage`, frame
/// payloads in `dist`, and checkpoint snapshots in `core`. A portable
/// table kernel; the value is the same on every host and for every
/// alignment and split of the input.
uint32_t Crc32(const void* data, size_t n, uint32_t crc = 0);

}  // namespace sgnn::common

#endif  // SGNN_COMMON_CRC32_H_
