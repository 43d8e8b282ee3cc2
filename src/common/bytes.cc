#include "common/bytes.h"

#include <cstdio>
#include <fstream>

#include "common/crc32.h"
#include "common/posix.h"

namespace sgnn::common {

void ByteWriter::CrcTrailer() {
  Pod<uint32_t>(Crc32(buf_.data(), buf_.size()));
}

bool CheckCrcTrailer(std::string_view bytes) {
  if (bytes.size() < kCrcTrailerBytes) return false;
  const size_t payload = bytes.size() - kCrcTrailerBytes;
  ByteReader trailer(bytes.substr(payload));
  return Crc32(bytes.data(), payload) == trailer.Pod<uint32_t>();
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no such file: " + path);
  // Grow with the bytes actually read, never from a size taken up front.
  constexpr size_t kChunk = size_t{1} << 16;
  std::string bytes;
  size_t got = 0;
  while (in) {
    bytes.resize(got + kChunk);
    in.read(bytes.data() + got, static_cast<std::streamsize>(kChunk));
    got += static_cast<size_t>(in.gcount());
  }
  if (in.bad()) return Status::IOError("read failed: " + path);
  bytes.resize(got);
  return bytes;
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open for write: " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) return Status::IOError("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Status status = StatusFromErrno("rename failed: " + tmp + " -> " + path);
    std::remove(tmp.c_str());
    return status;
  }
  return Status::OK();
}

}  // namespace sgnn::common
