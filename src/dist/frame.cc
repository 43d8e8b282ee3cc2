#include "dist/frame.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/posix.h"
#include "simd/simd.h"

namespace sgnn::dist {

using common::Status;

namespace {

constexpr uint32_t kFrameMagic = 0x53444631;  // "SDF1"

/// First payload read of `ReadFrame`. Each later regrowth makes room for
/// eight times what has arrived, so a forged length costs at most 64 KiB
/// or eight times the bytes the peer sent, and a frame of up to 32 MiB
/// (a config or halo frame is a few MiB) is regrown at most three times.
constexpr std::size_t kFirstPayloadChunk = std::size_t{1} << 16;
constexpr std::size_t kPayloadGrowth = 8;

/// The fault branch of `WriteFrame`, the one path that holds a frame in
/// one buffer: `corrupt` flips the first payload byte after the CRC was
/// taken, and `truncate` writes the first half and reports the stream
/// poisoned.
Status WriteDamagedFrame(int fd, std::string wire, bool corrupt,
                         bool truncate, WireStats* stats) {
  if (corrupt) {
    wire[kFrameHeaderBytes] = static_cast<char>(wire[kFrameHeaderBytes] ^ 0x5A);
  }
  if (truncate) {
    const std::size_t half = wire.size() / 2;
    SGNN_RETURN_IF_ERROR(common::WriteFull(fd, wire.data(), half));
    if (stats != nullptr) stats->bytes += half;
    return Status::DataLoss("injected frame truncation after " +
                            std::to_string(half) + " bytes");
  }
  SGNN_RETURN_IF_ERROR(common::WriteFull(fd, wire.data(), wire.size()));
  if (stats != nullptr) {
    stats->frames += 1;
    stats->bytes += wire.size();
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, const Frame& frame, WireStats* stats,
                  const FrameFaults& faults) {
  if (frame.payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload too large: " +
                                   std::to_string(frame.payload.size()));
  }
  common::ByteWriter w(kFrameHeaderBytes);
  w.Pod<uint32_t>(kFrameMagic);
  w.Pod<uint32_t>(static_cast<uint32_t>(frame.type));
  w.Pod<uint32_t>(frame.epoch);
  w.Pod<uint32_t>(static_cast<uint32_t>(frame.payload.size()));
  w.Pod<uint32_t>(simd::Crc32(frame.payload.data(), frame.payload.size()));
  const std::string header = w.Release();

  if (faults.injector != nullptr) {
    if (faults.injector->ShouldFail(kSiteFrameDrop, faults.token)) {
      return Status::OK();  // Silently lost; the receiver's deadline acts.
    }
    const bool corrupt =
        !frame.payload.empty() &&
        faults.injector->ShouldFail(kSiteFrameCorrupt, faults.token);
    const bool truncate =
        faults.injector->ShouldFail(kSiteFrameTruncate, faults.token);
    if (corrupt || truncate) {
      return WriteDamagedFrame(fd, header + frame.payload, corrupt, truncate,
                               stats);
    }
  }

  // Header and payload leave in one gathering write, without a copy.
  const common::ConstBuffer wire[] = {
      {header.data(), header.size()},
      {frame.payload.data(), frame.payload.size()}};
  SGNN_RETURN_IF_ERROR(common::WriteFullV(fd, wire));
  if (stats != nullptr) {
    stats->frames += 1;
    stats->bytes += kFrameHeaderBytes + frame.payload.size();
  }
  return Status::OK();
}

Status ReadFrame(int fd, Frame* frame, const common::Deadline& deadline,
                 WireStats* stats) {
  SGNN_CHECK(frame != nullptr);
  char header[kFrameHeaderBytes];
  std::size_t got = 0;
  Status status = common::ReadFull(fd, header, sizeof(header), deadline, &got);
  if (!status.ok()) {
    if (status.code() == common::StatusCode::kDataLoss && got == 0) {
      // EOF on a frame boundary: the peer closed (or died) cleanly from
      // the stream's point of view — retryable, unlike a torn frame.
      return Status::Unavailable("peer closed connection");
    }
    return status;
  }
  common::ByteReader in(header, sizeof(header));
  if (in.Pod<uint32_t>() != kFrameMagic) {
    return Status::DataLoss("bad frame magic (stream desynchronised)");
  }
  const uint32_t type = in.Pod<uint32_t>();
  const uint32_t epoch = in.Pod<uint32_t>();
  const uint32_t length = in.Pod<uint32_t>();
  const uint32_t payload_crc = in.Pod<uint32_t>();
  if (length > kMaxFramePayload) {
    return Status::DataLoss("implausible frame payload length " +
                            std::to_string(length));
  }
  // Grow the payload as its bytes arrive instead of sizing it from the
  // length field up front.
  std::string payload;
  while (payload.size() < length) {
    const std::size_t have = payload.size();
    payload.resize(std::min<std::size_t>(
        length, std::max(kFirstPayloadChunk, kPayloadGrowth * have)));
    SGNN_RETURN_IF_ERROR(common::ReadFull(fd, payload.data() + have,
                                          payload.size() - have, deadline));
  }
  if (simd::Crc32(payload.data(), payload.size()) != payload_crc) {
    return Status::DataLoss("frame payload CRC mismatch");
  }
  frame->type = static_cast<FrameType>(type);
  frame->epoch = epoch;
  frame->payload = std::move(payload);
  if (stats != nullptr) {
    stats->frames += 1;
    stats->bytes += kFrameHeaderBytes + length;
  }
  return Status::OK();
}

}  // namespace sgnn::dist
