#ifndef SGNN_DIST_FRAME_H_
#define SGNN_DIST_FRAME_H_

#include <cstdint>
#include <string>

#include "common/fault.h"
#include "common/status.h"

namespace sgnn::dist {

/// `sgnn::dist` wire protocol: every message between the coordinator and a
/// worker is one length-prefixed, CRC-32'd frame over a `socketpair`
/// stream. The 20-byte header carries magic, type, epoch, payload length,
/// and the payload's CRC; a receiver therefore *detects* a torn stream, a
/// flipped bit, or a peer that died mid-frame (`kDataLoss`) instead of
/// mis-parsing it, and a cleanly closed peer surfaces as `kUnavailable`.
/// Frames are self-delimiting, so a lost frame never desynchronises the
/// frames after it.

enum class FrameType : uint32_t {
  kConfig = 1,     ///< Coordinator -> worker: WorkerSpec (spawn/respawn).
  kRows = 2,       ///< Either direction: a batch of (node id, float row).
  kHalo = 3,       ///< Coordinator -> worker: boundary rows for an epoch.
  kGo = 4,         ///< Coordinator -> worker: compute epoch `epoch`.
  // No type 5: the numbers are on the wire, so the gap stays and a type-5
  // frame is unexpected.
  kEpochDone = 6,  ///< Worker -> coordinator: all result rows sent.
  kShutdown = 7,   ///< Coordinator -> worker: exit cleanly.
};

struct Frame {
  FrameType type = FrameType::kConfig;
  uint32_t epoch = 0;
  std::string payload;
};

/// Serialized frame header size (magic, type, epoch, length, payload CRC).
inline constexpr std::size_t kFrameHeaderBytes = 20;
/// Upper bound a receiver accepts for one payload; a corrupted length
/// field fails fast instead of driving a giant allocation.
inline constexpr uint32_t kMaxFramePayload = 1u << 30;

/// The protocol's two read deadlines, constants rather than options. The
/// coordinator gives each epoch (halo send to the last gather) this long;
/// a worker still silent then is declared dead and respawned.
inline constexpr int64_t kEpochDeadlineMicros = 30'000'000;
/// A worker whose coordinator has been silent this long takes it to be
/// gone and exits rather than linger as an orphan.
inline constexpr int64_t kReadDeadlineMicros = 600'000'000;

/// Fault-injection sites observed by the frame layer and the worker loop
/// (token = `KillToken(worker, epoch, incarnation)`):
///  - `dist.worker.kill`: worker `_exit`s mid-epoch, after shipping some
///    but not all of its result rows.
///  - `dist.frame.drop`: sender silently skips one frame (the receiver
///    sees a stalled stream and recovers via its deadline).
///  - `dist.frame.corrupt`: one payload byte is flipped *after* the CRC is
///    computed, so the receiver detects `kDataLoss`.
///  - `dist.frame.truncate`: sender writes half the frame then stops, as a
///    crash mid-`write` would.
///  - `dist.worker.repeat_row`: the worker's first result frame of the
///    epoch carries its first owned row twice and its second not at all,
///    so the row count still adds up.
inline constexpr char kSiteWorkerKill[] = "dist.worker.kill";
inline constexpr char kSiteWorkerRepeatRow[] = "dist.worker.repeat_row";
inline constexpr char kSiteFrameDrop[] = "dist.frame.drop";
inline constexpr char kSiteFrameCorrupt[] = "dist.frame.corrupt";
inline constexpr char kSiteFrameTruncate[] = "dist.frame.truncate";

/// Order-independent fault token for worker `worker` in epoch `epoch` of
/// incarnation `incarnation`. Token triggers are replayable (see
/// `FaultInjector`), so the incarnation is part of the token: a respawned
/// worker draws a fresh verdict instead of being re-killed forever.
constexpr uint64_t KillToken(int worker, int epoch, int incarnation) {
  return (static_cast<uint64_t>(incarnation) << 40) |
         (static_cast<uint64_t>(epoch) << 16) | static_cast<uint64_t>(worker);
}

/// Optional sender-side fault hook for `WriteFrame`.
struct FrameFaults {
  common::FaultInjector* injector = nullptr;
  uint64_t token = 0;
};

/// Byte/frame accounting, filled by the read/write calls that took it.
struct WireStats {
  uint64_t frames = 0;
  uint64_t bytes = 0;  ///< Header + payload bytes actually on the wire.
};

/// Writes one frame: the header and the payload leave in one gathering
/// write (`common::WriteFullV`), so the payload is not copied. With
/// `faults` armed, the drop site makes the write a silent no-op (OK), the
/// corrupt site flips a payload byte post-CRC, and the truncate site writes
/// half the bytes and returns `kDataLoss` — the sender's stream is then
/// poisoned and it must stop using the socket.
SGNN_NODISCARD common::Status WriteFrame(int fd, const Frame& frame,
                          WireStats* stats = nullptr,
                          const FrameFaults& faults = {});

/// Reads one frame, honouring `deadline` on every blocking wait
/// (`kDeadlineExceeded` when it expires first). A peer that closed the
/// stream between frames is `kUnavailable`; one that died mid-frame, or a
/// CRC/framing mismatch, is `kDataLoss`. The payload buffer grows as its
/// bytes arrive, so a forged length costs at most 64 KiB or eight times
/// what the peer sent.
SGNN_NODISCARD common::Status ReadFrame(int fd, Frame* frame, const common::Deadline& deadline,
                         WireStats* stats = nullptr);

}  // namespace sgnn::dist

#endif  // SGNN_DIST_FRAME_H_
