#ifndef SGNN_COMMON_CRC32_H_
#define SGNN_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace sgnn::common {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/gzip variant) over `n` bytes.
/// Pass a previous result as `crc` to checksum data incrementally:
/// `Crc32(b, nb, Crc32(a, na))` equals the CRC of a||b. A portable
/// slicing-by-16 table kernel; the value is the same on every host and for
/// every alignment and split of the input, and it defines every checksum
/// in the library. Bulk data (shard sections and the manifest's
/// assignment in `storage`, frame payloads in `dist`) is checksummed
/// through `simd::Crc32`, which returns this value at vector speed. The
/// CRC trailer of `common/bytes` (shard headers, manifests, checkpoint
/// snapshots) calls this kernel directly, because `common` sits below
/// `simd`.
uint32_t Crc32(const void* data, size_t n, uint32_t crc = 0);

}  // namespace sgnn::common

#endif  // SGNN_COMMON_CRC32_H_
