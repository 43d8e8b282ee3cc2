#include "dist/exchange.h"

#include <bit>

#include "common/bytes.h"
#include "common/check.h"
#include "common/counters.h"
#include "dist/frame.h"

namespace sgnn::dist {

using common::Status;
using graph::NodeId;

int64_t HaloPlan::total_halo_nodes() const {
  int64_t total = 0;
  for (const auto& ids : need) total += static_cast<int64_t>(ids.size());
  return total;
}

int64_t HaloPlan::halo_values(int64_t dim) const {
  return total_halo_nodes() * dim;
}

HaloPlan BuildHaloPlan(const graph::CsrGraph& graph,
                       const partition::Partition& parts) {
  SGNN_CHECK_GT(parts.k, 0);
  SGNN_CHECK_EQ(parts.part_of.size(), static_cast<size_t>(graph.num_nodes()));
  const auto k = static_cast<size_t>(parts.k);
  HaloPlan plan;
  plan.num_workers = parts.k;
  plan.owned.resize(k);
  plan.need.resize(k);
  std::vector<size_t> owned_count(k, 0);
  for (const int w : parts.part_of) {
    SGNN_DCHECK(w >= 0 && w < parts.k);
    ++owned_count[static_cast<size_t>(w)];
  }
  for (size_t w = 0; w < k; ++w) plan.owned[w].reserve(owned_count[w]);
  // Node ids ascend, so each owned list comes out sorted.
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    plan.owned[static_cast<size_t>(parts.part_of[u])].push_back(u);
  }
  // One n-bit bitmap serves each worker in turn: mark its remote
  // neighbours, then sweep the words in order, emitting need[w] ascending
  // and clearing the bitmap for the next worker. n/8 bytes at any k.
  std::vector<uint64_t> marked((static_cast<size_t>(graph.num_nodes()) + 63) /
                               64);
  for (size_t w = 0; w < k; ++w) {
    size_t count = 0;
    for (const NodeId u : plan.owned[w]) {
      for (const NodeId v : graph.Neighbors(u)) {
        if (static_cast<size_t>(parts.part_of[v]) == w) continue;
        uint64_t& word = marked[v / 64];
        const uint64_t bit = uint64_t{1} << (v % 64);
        count += (word & bit) == 0;
        word |= bit;
      }
    }
    auto& need = plan.need[w];
    need.reserve(count);
    for (size_t i = 0; i < marked.size(); ++i) {
      for (uint64_t word = marked[i]; word != 0; word &= word - 1) {
        need.push_back(static_cast<NodeId>(64 * i + std::countr_zero(word)));
      }
      marked[i] = 0;
    }
  }
  // Each node is owned by exactly one worker, so the halo scan reads every
  // directed edge exactly once.
  common::GlobalCounters().edges_touched += graph.num_edges();
  return plan;
}

bool FitsOneRowBatch(uint64_t rows, int64_t cols) {
  // Bound cols before forming the record size so it cannot wrap.
  constexpr uint64_t kBody = kMaxFramePayload - sizeof(uint32_t);
  if (cols < 0 || static_cast<uint64_t>(cols) >= kBody / sizeof(float)) {
    return rows == 0;
  }
  const uint64_t record =
      sizeof(uint32_t) + static_cast<uint64_t>(cols) * sizeof(float);
  return rows <= kBody / record;
}

std::string EncodeRows(std::span<const NodeId> ids, int64_t cols,
                       const std::function<const float*(size_t)>& row) {
  const size_t row_bytes = static_cast<size_t>(cols) * sizeof(float);
  common::ByteWriter w(sizeof(uint32_t) +
                       ids.size() * (sizeof(uint32_t) + row_bytes));
  w.Pod<uint32_t>(static_cast<uint32_t>(ids.size()));
  for (size_t i = 0; i < ids.size(); ++i) {
    w.Pod<uint32_t>(ids[i]);
    w.Bytes(row(i), row_bytes);
  }
  common::GlobalCounters().floats_moved +=
      static_cast<uint64_t>(ids.size()) * static_cast<uint64_t>(cols);
  return w.Release();
}

Status DecodeRows(
    const std::string& payload, int64_t cols,
    const std::function<Status(NodeId, const float*)>& sink) {
  SGNN_DCHECK_GE(cols, 0);
  common::ByteReader in(payload);
  const uint32_t count = in.Pod<uint32_t>();
  const size_t row_bytes = static_cast<size_t>(cols) * sizeof(float);
  const size_t record = sizeof(uint32_t) + row_bytes;
  if (!in.Fits(count, record) || in.left() != count * record) {
    return Status::DataLoss("row batch length does not match its count (" +
                            std::to_string(count) + " rows of " +
                            std::to_string(cols) + " cols in " +
                            std::to_string(payload.size()) + " bytes)");
  }
  for (uint32_t i = 0; i < count; ++i) {
    const NodeId id = in.Pod<uint32_t>();
    const char* row = in.Take(row_bytes);
    SGNN_RETURN_IF_ERROR(sink(id, reinterpret_cast<const float*>(row)));
  }
  return Status::OK();
}

}  // namespace sgnn::dist
