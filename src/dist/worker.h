#ifndef SGNN_DIST_WORKER_H_
#define SGNN_DIST_WORKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "graph/csr_graph.h"

namespace sgnn::dist {

/// Everything a worker process needs to compute its partition's rows,
/// shipped in one `kConfig` frame at spawn (and again at respawn, with a
/// bumped `incarnation`). The coordinator fixes the worker's value-store
/// layout: row i holds owned[i], row |owned| + j holds halo[j], and the
/// scatter and halo frames carry their rows in that order. The adjacency
/// arrives in that layout and pre-normalised — each neighbour as its
/// value-store row, with the *float* propagation coefficients and
/// self-loop terms the coordinator evaluates with `Propagator`'s formula
/// from `graph::NodeFactors` — so the worker runs the same
/// `graph::SpmmRows` kernel as `Propagator::Apply` on identical bits,
/// which is what makes the distributed result bit-identical to the
/// single-process one at any worker count and under any kill schedule.
struct WorkerSpec {
  int32_t worker_id = 0;
  int32_t num_workers = 0;
  int32_t incarnation = 0;
  int64_t cols = 0;

  /// Strictly ascending global ids this worker owns.
  std::vector<graph::NodeId> owned;
  /// Strictly ascending remote ids it receives; disjoint from `owned`.
  std::vector<graph::NodeId> halo;
  /// CSR over `owned`: the neighbours of owned[i], as value-store rows
  /// (`slots`), and their coefficients live at [offsets[i], offsets[i+1]).
  std::vector<graph::EdgeIndex> offsets;
  std::vector<graph::NodeId> slots;
  std::vector<float> coefficients;
  std::vector<float> self_loop;  ///< Per owned row.

  std::string Serialize() const;
  /// `kDataLoss` on a truncated, oversized or inconsistent payload, such as
  /// offsets an epoch would read past the coefficient array on, a slot
  /// past the owned + halo rows, owned or halo rows too wide or too many
  /// for one row-batch frame, or owned and halo lists that are unsorted,
  /// repeat or share an id or name `graph::kInvalidNode`.
  static common::StatusOr<WorkerSpec> Parse(const std::string& payload);
};

/// Worker process main loop: speaks the frame protocol on `fd` until a
/// shutdown frame, a closed or deadlined stream, or an injected fault
/// terminates it. Never returns; exits via `_exit` so a forked child
/// tears down without running the parent's atexit/static-destructor
/// machinery. `faults` is the injector inherited across `fork` (may be
/// null); kill/drop/corrupt/truncate sites are evaluated with
/// `KillToken(worker, epoch, incarnation)` tokens.
[[noreturn]] void WorkerMain(int fd, common::FaultInjector* faults);

}  // namespace sgnn::dist

#endif  // SGNN_DIST_WORKER_H_
