#include "common/crc32.h"

#include <array>

namespace sgnn::common {

namespace {

// Slicing-by-16: each step folds 16 input bytes into the register with 16
// independent table lookups instead of 16 dependent ones.
constexpr int kSlices = 16;
using Tables = std::array<std::array<uint32_t, 256>, kSlices>;

// tables[0] is the classic bytewise table; tables[k][i] is the register
// after byte i is followed by k zero bytes, so byte j of a 16-byte block
// is looked up in tables[15 - j].
constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (int k = 1; k < kSlices; ++k) {
    for (int i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

// Assembled from bytes, so the result does not depend on host byte order.
uint32_t LoadLe32(const unsigned char* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t crc) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= kSlices; n -= kSlices, bytes += kSlices) {
    uint32_t next = 0;
    for (int w = 0; w < kSlices / 4; ++w) {
      const uint32_t word = LoadLe32(bytes + 4 * w) ^ (w == 0 ? c : 0u);
      const int top = kSlices - 1 - 4 * w;
      next ^= kTables[top][word & 0xFFu] ^
              kTables[top - 1][(word >> 8) & 0xFFu] ^
              kTables[top - 2][(word >> 16) & 0xFFu] ^
              kTables[top - 3][word >> 24];
    }
    c = next;
  }
  for (; n > 0; --n, ++bytes) {
    c = kTables[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace sgnn::common
