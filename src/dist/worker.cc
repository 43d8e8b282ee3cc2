#include "dist/worker.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <span>
#include <utility>

#include "common/bytes.h"
#include "dist/exchange.h"
#include "dist/frame.h"
#include "graph/propagate.h"
#include "tensor/matrix.h"

namespace sgnn::dist {

using common::Status;
using common::StatusOr;
using graph::NodeId;

namespace {

// Strictly ascending and free of `kInvalidNode`, which names no node (it is
// the largest id, so only the last element can be it).
bool StrictlyAscendingIds(const std::vector<NodeId>& ids) {
  return std::adjacent_find(ids.begin(), ids.end(),
                            std::greater_equal<>()) == ids.end() &&
         (ids.empty() || ids.back() != graph::kInvalidNode);
}

// No id in both ascending lists: one merge walk.
bool Disjoint(const std::vector<NodeId>& a, const std::vector<NodeId>& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return false;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return true;
}

}  // namespace

std::string WorkerSpec::Serialize() const {
  // Sized up front: a config frame is megabytes, and regrowth would copy it.
  auto vec_bytes = [](const auto& v) {
    return sizeof(uint64_t) + v.size() * sizeof(v[0]);
  };
  common::ByteWriter w(
      3 * sizeof(int32_t) + sizeof(int64_t) + vec_bytes(owned) +
      vec_bytes(halo) + vec_bytes(offsets) + vec_bytes(slots) +
      vec_bytes(coefficients) + vec_bytes(self_loop));
  w.Pod<int32_t>(worker_id);
  w.Pod<int32_t>(num_workers);
  w.Pod<int32_t>(incarnation);
  w.Pod<int64_t>(cols);
  w.Vec(owned);
  w.Vec(halo);
  w.Vec(offsets);
  w.Vec(slots);
  w.Vec(coefficients);
  w.Vec(self_loop);
  return w.Release();
}

StatusOr<WorkerSpec> WorkerSpec::Parse(const std::string& payload) {
  common::ByteReader in(payload);
  WorkerSpec spec;
  spec.worker_id = in.Pod<int32_t>();
  spec.num_workers = in.Pod<int32_t>();
  spec.incarnation = in.Pod<int32_t>();
  spec.cols = in.Pod<int64_t>();
  in.Vec(&spec.owned);
  in.Vec(&spec.halo);
  in.Vec(&spec.offsets);
  in.Vec(&spec.slots);
  in.Vec(&spec.coefficients);
  in.Vec(&spec.self_loop);
  if (!in.ok() || in.left() != 0) {
    return Status::DataLoss("truncated or oversized worker spec");
  }
  if (spec.worker_id < 0 || spec.num_workers <= 0 ||
      spec.worker_id >= spec.num_workers || spec.cols < 0 ||
      spec.offsets.size() != spec.owned.size() + 1 || spec.offsets[0] != 0 ||
      !std::is_sorted(spec.offsets.begin(), spec.offsets.end()) ||
      spec.self_loop.size() != spec.owned.size() ||
      spec.coefficients.size() != spec.slots.size() ||
      static_cast<uint64_t>(spec.offsets.back()) != spec.slots.size()) {
    return Status::DataLoss("inconsistent worker spec");
  }
  // The coordinator scatters the owned rows in one row-batch frame and the
  // halo rows in another, so a spec whose sets could not travel that way
  // did not come from it. The check also bounds the (owned + halo) x cols
  // value store `WorkerMain` sizes from the spec.
  if (!FitsOneRowBatch(spec.owned.size(), spec.cols) ||
      !FitsOneRowBatch(spec.halo.size(), spec.cols)) {
    return Status::DataLoss("worker spec rows of " +
                            std::to_string(spec.cols) +
                            " cols exceed one row-batch frame");
  }
  // The coordinator's halo plan lists each remote neighbour once, in id
  // order, and never an owned node; lists that break this did not come
  // from it.
  if (!StrictlyAscendingIds(spec.owned) || !StrictlyAscendingIds(spec.halo) ||
      !Disjoint(spec.owned, spec.halo)) {
    return Status::DataLoss(
        "worker spec owned/halo ids must be strictly ascending, disjoint "
        "and not kInvalidNode");
  }
  // Every slot must name a value-store row, which an epoch reads unchecked.
  const size_t rows = spec.owned.size() + spec.halo.size();
  if (std::any_of(spec.slots.begin(), spec.slots.end(),
                  [rows](NodeId slot) { return slot >= rows; })) {
    return Status::DataLoss("worker spec slot past its " +
                            std::to_string(rows) + " owned and halo rows");
  }
  return spec;
}

namespace {

/// Result rows per gather frame: the granularity of mid-epoch kill points.
constexpr size_t kRowsPerFrame = 256;

/// Mutable per-process worker state between frames.
struct WorkerState {
  WorkerSpec spec;
  tensor::Matrix local;  ///< Owned rows first, then halo rows.
  tensor::Matrix out;    ///< One row per owned node, epoch scratch.
};

/// One epoch of local aggregation: `Propagator::Apply`'s row kernel over
/// every owned row, reading the local value store at the spec's slots.
/// Called directly rather than through `par`: the pool this process
/// inherited across `fork` has no threads.
void ComputeEpoch(WorkerState* state) {
  const WorkerSpec& spec = state->spec;
  const graph::CoefficientRows rows{spec.offsets, spec.slots,
                                    spec.coefficients, spec.self_loop};
  state->out.Zero();
  graph::SpmmRows(rows, {0, static_cast<int64_t>(spec.owned.size())},
                  state->local, &state->out);
}

/// Stores a received row batch into the value store: a scatter or restore
/// (`kRows`) carries the owned rows in `spec.owned` order and fills rows
/// [0, |owned|); a `kHalo` batch carries `spec.halo` in order and fills
/// the rows after them. A record out of that order, or a batch of another
/// size, is a protocol violation.
Status StoreRows(WorkerState* state, FrameType type,
                 const std::string& payload) {
  const WorkerSpec& spec = state->spec;
  const bool halo = type == FrameType::kHalo;
  const std::vector<NodeId>& ids = halo ? spec.halo : spec.owned;
  const int64_t first = halo ? static_cast<int64_t>(spec.owned.size()) : 0;
  size_t i = 0;
  SGNN_RETURN_IF_ERROR(
      DecodeRows(payload, spec.cols, [&](NodeId id, const float* row) {
        if (i == ids.size() || id != ids[i]) {
          return Status::DataLoss("row record " + std::to_string(i) +
                                  " carries node " + std::to_string(id) +
                                  " out of place");
        }
        std::memcpy(state->local.Row(first + static_cast<int64_t>(i)).data(),
                    row, static_cast<size_t>(spec.cols) * sizeof(float));
        ++i;
        return Status::OK();
      }));
  if (i != ids.size()) {
    return Status::DataLoss("row batch of " + std::to_string(i) + " rows for " +
                            std::to_string(ids.size()) + " value-store rows");
  }
  return Status::OK();
}

}  // namespace

void WorkerMain(int fd, common::FaultInjector* faults) {
  WorkerState state;
  bool configured = false;
  for (;;) {
    Frame frame;
    const Status read_status =
        ReadFrame(fd, &frame, common::Deadline::After(kReadDeadlineMicros));
    if (!read_status.ok()) {
      // Coordinator gone (EOF), stream torn, or deadline: nothing to do
      // but die; the coordinator's own detection drives recovery.
      _exit(read_status.code() == common::StatusCode::kUnavailable ? 0 : 5);
    }
    switch (frame.type) {
      case FrameType::kConfig: {
        auto spec_or = WorkerSpec::Parse(frame.payload);
        if (!spec_or.ok()) _exit(2);
        state.spec = std::move(spec_or).value();
        const int64_t rows = static_cast<int64_t>(state.spec.owned.size()) +
                             static_cast<int64_t>(state.spec.halo.size());
        state.local = tensor::Matrix(rows, state.spec.cols);
        state.out = tensor::Matrix(
            static_cast<int64_t>(state.spec.owned.size()), state.spec.cols);
        configured = true;
        break;
      }
      case FrameType::kRows:
      case FrameType::kHalo: {
        if (!configured) _exit(2);
        if (!StoreRows(&state, frame.type, frame.payload).ok()) _exit(2);
        break;
      }
      case FrameType::kGo: {
        if (!configured) _exit(2);
        const uint64_t token =
            KillToken(state.spec.worker_id, static_cast<int>(frame.epoch),
                      state.spec.incarnation);
        const FrameFaults send_faults{faults, token};
        ComputeEpoch(&state);

        const size_t total = state.spec.owned.size();
        const size_t num_chunks = (total + kRowsPerFrame - 1) / kRowsPerFrame;
        // Injected duplicate: record 1 of the first frame repeats record 0.
        const bool repeat_row =
            total >= 2 && faults != nullptr &&
            faults->ShouldFail(kSiteWorkerRepeatRow, token);
        for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
          if (chunk == num_chunks / 2 && faults != nullptr &&
              faults->ShouldFail(kSiteWorkerKill, token)) {
            // Injected mid-epoch death: some result rows are already on
            // the wire, the rest never will be. `_exit`, not `exit`: a
            // real SIGKILL runs no user code either.
            _exit(3);
          }
          const size_t begin = chunk * kRowsPerFrame;
          const size_t count = std::min(kRowsPerFrame, total - begin);
          std::span<const NodeId> ids =
              std::span(state.spec.owned).subspan(begin, count);
          std::vector<NodeId> forged;
          if (repeat_row && chunk == 0) {
            forged.assign(ids.begin(), ids.end());
            forged[1] = forged[0];
            ids = forged;
          }
          Frame rows;
          rows.type = FrameType::kRows;
          rows.epoch = frame.epoch;
          rows.payload = EncodeRows(
              ids, state.spec.cols, [&state, &forged, begin](size_t i) {
                const size_t r = forged.empty() || i != 1 ? begin + i : begin;
                return state.out.Row(static_cast<int64_t>(r)).data();
              });
          if (!WriteFrame(fd, rows, nullptr, send_faults).ok()) _exit(4);
        }
        // Adopt the new values for the next epoch before reporting done.
        for (size_t i = 0; i < total; ++i) {
          std::memcpy(state.local.Row(static_cast<int64_t>(i)).data(),
                      state.out.Row(static_cast<int64_t>(i)).data(),
                      static_cast<size_t>(state.spec.cols) * sizeof(float));
        }
        Frame done;
        done.type = FrameType::kEpochDone;
        done.epoch = frame.epoch;
        if (!WriteFrame(fd, done, nullptr, send_faults).ok()) _exit(4);
        break;
      }
      case FrameType::kShutdown:
        _exit(0);
      default:
        _exit(2);
    }
  }
}

}  // namespace sgnn::dist
