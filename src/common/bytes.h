#ifndef SGNN_COMMON_BYTES_H_
#define SGNN_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace sgnn::common {

/// The library's one binary record codec. Every binary format — pipeline
/// checkpoints (`core`), shard manifests and shard files (`storage`),
/// worker specs, row batches and frame headers (`dist`) — is written
/// through `ByteWriter` and read back through `ByteReader`. Values travel
/// as raw host-order bytes (floats as raw bits, which is what makes a
/// resumed or respawned computation bit-identical); a variable-size field
/// is framed by a count or length that the reader bounds by the bytes
/// actually left before the count sizes anything.

/// Bytes of the CRC-32 trailer `ByteWriter::CrcTrailer` appends.
inline constexpr size_t kCrcTrailerBytes = sizeof(uint32_t);

/// Append-only encoder over a growable byte buffer.
class ByteWriter {
 public:
  /// Starts empty with room for `reserve` bytes.
  explicit ByteWriter(size_t reserve = 0) { buf_.reserve(reserve); }

  /// Appends `n` raw bytes; `data` may be null when `n` is 0.
  void Bytes(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  /// Appends the raw bytes of one trivially copyable value.
  template <typename T>
  void Pod(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes(&v, sizeof(v));
  }

  /// Appends a u64 element count, then the elements' raw bytes.
  template <typename T>
  void Vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Pod<uint64_t>(v.size());
    Bytes(v.data(), v.size() * sizeof(T));
  }

  /// Appends a u32 length, then the characters.
  void Str(std::string_view s) {
    SGNN_CHECK_LE(s.size(), uint64_t{UINT32_MAX});
    Pod<uint32_t>(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

  /// Appends zero bytes up to a total of `size` (none when the buffer is
  /// already that long): the padding before an aligned section.
  void PadTo(size_t size) {
    if (size > buf_.size()) buf_.resize(size, '\0');
  }

  /// Appends the CRC-32 of every byte written so far; `CheckCrcTrailer`
  /// verifies it.
  void CrcTrailer();

  /// Hands over the encoded bytes; the writer is spent afterwards.
  std::string Release() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Sticky, bounds-checked decoder over bytes it does not own. Every read
/// checks the bytes left. The first read that runs short fails the reader;
/// from then on every read fails and yields zeros or empties, so a decoder
/// reads a whole record and checks `ok()` once.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : p_(static_cast<const char*>(data)), left_(size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool ok() const { return ok_; }
  size_t left() const { return left_; }

  /// True when `count` records of `record_bytes` (> 0) each fit in the
  /// bytes left; otherwise fails the reader and returns false. Every
  /// decoded count passes this before it sizes an allocation: it divides
  /// rather than multiplies, so a forged count cannot wrap into a match.
  bool Fits(uint64_t count, uint64_t record_bytes) {
    SGNN_DCHECK(record_bytes > 0);
    if (ok_ && count <= left_ / record_bytes) return true;
    ok_ = false;
    return false;
  }

  /// The next `n` bytes, viewed in place. Check `ok()` before using them.
  const char* Take(size_t n) {
    const char* at = p_;
    if (Fits(n, 1)) {
      p_ += n;
      left_ -= n;
    }
    return at;
  }

  /// Copies the next `n` bytes to `out`, which may be null when `n` is 0.
  bool Take(void* out, size_t n) {
    const char* at = Take(n);
    if (!ok_) return false;
    if (n != 0) std::memcpy(out, at, n);  // Empty vectors may have null data().
    return true;
  }

  void Skip(size_t n) { Take(n); }

  /// Reads one trivially copyable value; zero once the reader has failed.
  template <typename T>
  T Pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    Take(&v, sizeof(v));
    return v;
  }

  /// Reads a `ByteWriter::Vec`: a u64 count, then that many elements.
  template <typename T>
  bool Vec(std::vector<T>* out) {
    return Vec(Pod<uint64_t>(), out);
  }

  /// Reads `count` elements whose count is stored elsewhere, such as in a
  /// header field. The count passes `Fits` before it sizes `*out`.
  template <typename T>
  bool Vec(uint64_t count, std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!Fits(count, sizeof(T))) return false;
    out->resize(count);
    return Take(out->data(), count * sizeof(T));
  }

  /// Reads a `ByteWriter::Str`: a u32 length, then that many characters.
  std::string Str() {
    const uint32_t n = Pod<uint32_t>();
    const char* at = Take(n);
    return ok_ ? std::string(at, n) : std::string();
  }

 private:
  const char* p_;
  size_t left_;
  bool ok_ = true;
};

/// True when `bytes` ends in the CRC-32 of everything before it, as
/// `ByteWriter::CrcTrailer` writes; false when it is shorter than that.
bool CheckCrcTrailer(std::string_view bytes);

/// Reads the whole file at `path`: `kNotFound` when it cannot be opened,
/// `kIOError` when a read fails.
SGNN_NODISCARD StatusOr<std::string> ReadFile(const std::string& path);

/// Writes `bytes` to `path` through a `.tmp` sibling and a rename, so a
/// crash mid-write leaves the old file (or none), never a torn one.
SGNN_NODISCARD Status WriteFileAtomic(const std::string& path,
                                      std::string_view bytes);

}  // namespace sgnn::common

#endif  // SGNN_COMMON_BYTES_H_
