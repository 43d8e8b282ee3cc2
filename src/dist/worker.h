#ifndef SGNN_DIST_WORKER_H_
#define SGNN_DIST_WORKER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "graph/csr_graph.h"

namespace sgnn::dist {

/// Everything a worker process needs to compute its partition's rows,
/// shipped in one `kConfig` frame at spawn (and again at respawn, with a
/// bumped `incarnation`). The adjacency arrives pre-normalised — neighbour
/// ids plus the *float* propagation coefficients and self-loop terms the
/// coordinator evaluates with `Propagator`'s formula from
/// `graph::NodeFactors` — so the worker runs the same `graph::SpmmRows`
/// kernel as `Propagator::Apply` on identical bits, which is what makes the
/// distributed result bit-identical to the single-process one at any worker
/// count and under any kill schedule.
struct WorkerSpec {
  int32_t worker_id = 0;
  int32_t num_workers = 0;
  int32_t incarnation = 0;
  int64_t cols = 0;

  /// Strictly ascending global ids this worker owns.
  std::vector<graph::NodeId> owned;
  /// Strictly ascending remote ids it receives; disjoint from `owned`.
  std::vector<graph::NodeId> halo;
  /// CSR over `owned`: neighbours/coefficients of owned[i] live at
  /// [offsets[i], offsets[i+1]).
  std::vector<graph::EdgeIndex> offsets;
  std::vector<graph::NodeId> neighbors;
  std::vector<float> coefficients;
  std::vector<float> self_loop;  ///< Per owned row.

  std::string Serialize() const;
  /// `kDataLoss` on a truncated, oversized or inconsistent payload, such as
  /// offsets an epoch would read past the coefficient array on, owned or
  /// halo rows too wide or too many for one row-batch frame, or owned and
  /// halo lists that are unsorted, repeat or share an id (which would
  /// alias two value rows) or name `graph::kInvalidNode`.
  static common::StatusOr<WorkerSpec> Parse(const std::string& payload);
};

/// A worker's local slot table, built once per config: each node's row in
/// the worker's value store (owned rows first, then halo rows), and the
/// spec's neighbour ids translated to those rows for `graph::SpmmRows`.
/// The id -> slot map is open addressing with linear probing over owned +
/// halo at load factor at most 1/2, so it costs O(owned + halo) memory,
/// never O(num_nodes), and O(1) expected per lookup.
struct SlotTable {
  /// {id, slot} pairs, a power-of-two count of at least 2;
  /// `graph::kInvalidNode` marks a free bucket, which is why
  /// `WorkerSpec::Parse` refuses that id.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> buckets;
  std::vector<graph::NodeId> neighbor_slots;  ///< Aligned with `neighbors`.

  /// Slot of `id`, or -1 when it is neither owned nor haloed.
  int64_t SlotOf(graph::NodeId id) const;

  /// `kDataLoss` when a neighbour is neither owned nor haloed, which would
  /// otherwise abort the worker mid-epoch.
  static common::StatusOr<SlotTable> Build(const WorkerSpec& spec);
};

/// Worker process main loop: speaks the frame protocol on `fd` until a
/// shutdown frame, a closed/har-deadlined stream, or an injected fault
/// terminates it. Never returns; exits via `_exit` so a forked child
/// tears down without running the parent's atexit/static-destructor
/// machinery. `faults` is the injector inherited across `fork` (may be
/// null); kill/drop/corrupt/truncate sites are evaluated with
/// `KillToken(worker, epoch, incarnation)` tokens.
[[noreturn]] void WorkerMain(int fd, common::FaultInjector* faults);

}  // namespace sgnn::dist

#endif  // SGNN_DIST_WORKER_H_
