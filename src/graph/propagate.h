#ifndef SGNN_GRAPH_PROPAGATE_H_
#define SGNN_GRAPH_PROPAGATE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "graph/csr_graph.h"
#include "par/par.h"
#include "simd/simd.h"
#include "tensor/matrix.h"

namespace sgnn::graph {

/// Adjacency normalisation used by graph propagation.
enum class Normalization {
  kNone,       ///< A
  kRow,        ///< D^-1 A            (random-walk / row-stochastic)
  kColumn,     ///< A D^-1            (PPR transition transpose)
  kSymmetric,  ///< D^-1/2 A D^-1/2   (GCN convolution)
};

/// The normalisation arithmetic, written once for every placement of
/// \hat{A}. `degree` is a node's weighted degree (+1 with self loops); a
/// zero-degree node contributes nothing. Per-node factor each edge of the
/// node multiplies in: 1/d (kRow, kColumn), 1/sqrt(d) (kSymmetric), 1.
double DegreeFactor(Normalization norm, double degree);

/// Self-loop coefficient of a node: 1 for kNone, else 1/d (for
/// kSymmetric that is 1/sqrt(d) * 1/sqrt(d), taken exactly).
float LoopCoefficient(Normalization norm, double degree);

/// The per-node half of \hat{A} for every node of `graph`: `DegreeFactor`
/// of the weighted degree (+1 with `add_self_loops`) into `factor` and,
/// with `add_self_loops`, `LoopCoefficient` into `self_loop` (emptied
/// otherwise). Every holder of a per-node table takes it from here, so
/// their edge coefficients are `Propagator`'s bits.
void NodeFactors(const CsrGraph& graph, Normalization norm,
                 bool add_self_loops, std::vector<double>* factor,
                 std::vector<float>* self_loop);

/// Coefficient of edge (u, v) with weight `weight`, from the degree
/// factors of its endpoints: evaluated in double, rounded to float once.
inline float EdgeCoefficient(Normalization norm, float weight, double factor_u,
                             double factor_v) {
  double c = weight;
  switch (norm) {
    case Normalization::kNone:
      break;
    case Normalization::kRow:
      c *= factor_u;
      break;
    case Normalization::kColumn:
      c *= factor_v;
      break;
    case Normalization::kSymmetric:
      c *= factor_u * factor_v;
      break;
  }
  return static_cast<float>(c);
}

/// Edge-balanced `par` shards over CSR `offsets` (starting at 0) for
/// `SpmmRows` sections; a pure function of the offsets.
std::vector<par::Range> EdgeShards(std::span<const EdgeIndex> offsets);

/// The SpMM bill, written once: `edges` edges (and `edges * cols` floats),
/// each scanning a float coefficient and a NodeId index, and `applied`
/// scaled rows of `cols` floats (nonzero coefficients and self loops),
/// each billed as reading the gathered x slice plus the output row (RMW)
/// and writing the output row. The bill is logical: it does not follow the
/// kernel's register blocking.
void BillSpmm(uint64_t edges, uint64_t applied, int64_t cols);

/// Rows with stored coefficients, the `SpmmRows` view of an in-memory
/// operator: CSR `offsets` over `neighbors` (rows of x) and per-edge
/// `coefficients`, plus one self-loop coefficient per row (`self_loop`
/// empty = none). Kernel row r writes output row r.
struct CoefficientRows {
  std::span<const EdgeIndex> offsets;
  std::span<const NodeId> neighbors;
  std::span<const float> coefficients;
  std::span<const float> self_loop;

  EdgeIndex EdgeBegin(int64_t r) const { return offsets[r]; }
  int64_t OutRow(int64_t r) const { return r; }
  std::span<const NodeId> Neighbors(int64_t r) const {
    return neighbors.subspan(offsets[r], offsets[r + 1] - offsets[r]);
  }
  std::span<const float> Coefficients(int64_t r) const {
    return coefficients.subspan(offsets[r], offsets[r + 1] - offsets[r]);
  }
  float SelfLoop(int64_t r) const {
    return self_loop.empty() ? 0.0f : self_loop[r];
  }
};

/// Edges per `spmm_row` call for views that compute their ids or
/// coefficients per edge: `SpmmRows` gathers what they compute into a
/// stack chunk of this many entries.
inline constexpr int64_t kSpmmChunkEdges = 64;

/// The SpMM row-range kernel every placement of \hat{A} x runs:
/// out[OutRow(r)] += sum_i c_i x[n_i] + s x[OutRow(r)] for kernel rows r in
/// `range`, where `rows` is a view offering, per row r:
///
///   EdgeIndex EdgeBegin(r)  — r's edges are [EdgeBegin(r), EdgeBegin(r+1))
///   Neighbors(r)            — indexable rows n_i of `x`
///   Coefficients(r)         — indexable float c_i, aligned with Neighbors
///   float SelfLoop(r)       — s, 0 for none
///   int64_t OutRow(r)       — the row of `out` (and of `x`, for s) r owns
///
/// Each row makes one `spmm_row` call (simd contract #1), which holds the
/// output row in registers across the row's edges, then adds its self
/// loop, the last term, with one `axpy`. Neighbors and Coefficients that
/// are stored spans go to the kernel in place; a view that computes
/// either per edge has it gathered into a stack chunk of kSpmmChunkEdges
/// entries, and makes one call per chunk. Zero coefficients are skipped
/// and edges are added in view order, so equal coefficient bits give
/// equal output bits on any view, backend, width or range split.
/// Accumulates into `out` (callers size and zero it; it must not be `x`)
/// and bills `BillSpmm`. Touches no `par` state, so a forked process may
/// call it.
template <typename Rows>
void SpmmRows(const Rows& rows, par::Range range, const tensor::Matrix& x,
              tensor::Matrix* out) {
  SGNN_DCHECK(&x != out);
  const int64_t cols = x.cols();
  const simd::KernelTable& kt = simd::Active();
  constexpr bool kStoredIds =
      std::is_same_v<decltype(rows.Neighbors(0)), std::span<const NodeId>>;
  constexpr bool kStoredCoefficients =
      std::is_same_v<decltype(rows.Coefficients(0)), std::span<const float>>;
  // Applied rows (nonzero edge coefficients + engaged self-loops): the
  // data-movement term of the byte bill.
  uint64_t applied = 0;
  for (int64_t r = range.begin; r < range.end; ++r) {
    const auto nbrs = rows.Neighbors(r);
    const auto cs = rows.Coefficients(r);
    const int64_t o = rows.OutRow(r);
    const int64_t count = static_cast<int64_t>(nbrs.size());
    float* orow = out->data() + o * cols;
    // A row read wholly in place is one call; otherwise one per chunk.
    const int64_t chunk =
        kStoredIds && kStoredCoefficients ? count : kSpmmChunkEdges;
    [[maybe_unused]] NodeId ids[kSpmmChunkEdges];
    [[maybe_unused]] float coeffs[kSpmmChunkEdges];
    for (int64_t e0 = 0; e0 < count; e0 += chunk) {
      const int64_t m = std::min(chunk, count - e0);
      const NodeId* id = ids;
      const float* c = coeffs;
      if constexpr (kStoredIds) {
        id = nbrs.data() + e0;
      } else {
        for (int64_t i = 0; i < m; ++i) ids[i] = nbrs[e0 + i];
      }
      if constexpr (kStoredCoefficients) {
        c = cs.data() + e0;
      } else {
        for (int64_t i = 0; i < m; ++i) coeffs[i] = cs[e0 + i];
      }
      applied += kt.spmm_row(x.data(), cols, id, c, m, orow, cols);
    }
    // The self loop is the row's last term.
    const float s = rows.SelfLoop(r);
    if (s != 0.0f) {
      ++applied;
      kt.axpy(s, x.data() + o * cols, orow, cols);
    }
  }
  BillSpmm(static_cast<uint64_t>(rows.EdgeBegin(range.end) -
                                 rows.EdgeBegin(range.begin)),
           applied, cols);
}

/// The transposed sibling of `SpmmRows` over the same view, for backward
/// passes and \hat{A}^T x: for kernel rows r in `range`, in order,
/// out[n_i] += c_i x[OutRow(r)] in view order, then out[OutRow(r)] +=
/// s x[OutRow(r)]. Same axpy microkernel, zero skip and bill as
/// `SpmmRows`. Serial: the writes scatter into neighbour rows, so a row
/// partition does not give disjoint writes and one call must own `out`.
template <typename Rows>
void SpmmTransposeRows(const Rows& rows, par::Range range,
                       const tensor::Matrix& x, tensor::Matrix* out) {
  const int64_t cols = x.cols();
  const simd::KernelTable& kt = simd::Active();
  uint64_t applied = 0;
  for (int64_t r = range.begin; r < range.end; ++r) {
    const auto nbrs = rows.Neighbors(r);
    const auto cs = rows.Coefficients(r);
    const int64_t o = rows.OutRow(r);
    const float* xrow = x.data() + o * cols;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const float c = cs[i];
      if (c == 0.0f) continue;
      ++applied;
      kt.axpy(c, xrow, out->data() + static_cast<int64_t>(nbrs[i]) * cols,
              cols);
    }
    const float s = rows.SelfLoop(r);
    if (s != 0.0f) {
      ++applied;
      kt.axpy(s, xrow, out->data() + o * cols, cols);
    }
  }
  BillSpmm(static_cast<uint64_t>(rows.EdgeBegin(range.end) -
                                 rows.EdgeBegin(range.begin)),
           applied, cols);
}

/// Precomputed normalised sparse operator \hat{A}; the message-passing /
/// propagation kernel shared by all GNN models and decoupled methods.
///
/// With `add_self_loops`, the operator is built on A + I with degrees
/// incremented accordingly (the GCN "renormalisation trick"). Construction
/// normalises by *weighted* degree; zero-degree nodes propagate nothing.
class Propagator {
 public:
  Propagator(const CsrGraph& graph, Normalization norm, bool add_self_loops);

  /// out = \hat{A} x, dense feature version. `out` is overwritten.
  /// Instruments `common::GlobalCounters()` with edges touched and floats
  /// moved.
  void Apply(const tensor::Matrix& x, tensor::Matrix* out) const;

  /// Double-precision vector version (used by PPR / spectral iteration).
  void ApplyVector(const std::vector<double>& x, std::vector<double>* out) const;

  /// Applies the transpose operator \hat{A}^T (needed for backward passes
  /// on non-symmetric normalisations).
  void ApplyTranspose(const tensor::Matrix& x, tensor::Matrix* out) const;

  NodeId num_nodes() const { return graph_.num_nodes(); }
  EdgeIndex num_edges() const { return graph_.num_edges(); }
  Normalization normalization() const { return norm_; }
  bool self_loops() const { return self_loop_coeff_.size() > 0; }

  /// Normalised coefficient for the i-th stored edge of node u (aligned
  /// with `graph().Neighbors(u)`).
  std::span<const float> Coefficients(NodeId u) const {
    SGNN_DCHECK_LT(u, graph_.num_nodes());
    return {coeff_.data() + graph_.OffsetOf(u),
            static_cast<size_t>(graph_.OutDegree(u))};
  }

  /// Self-loop coefficient of node u (0 when self loops are disabled).
  float SelfLoopCoefficient(NodeId u) const {
    SGNN_DCHECK_LT(u, graph_.num_nodes());
    return self_loop_coeff_.empty() ? 0.0f : self_loop_coeff_[u];
  }

  const CsrGraph& graph() const { return graph_; }

 private:
  const CsrGraph& graph_;  // Not owned; must outlive the propagator.
  Normalization norm_;
  std::vector<float> coeff_;            // Per stored edge.
  std::vector<float> self_loop_coeff_;  // Per node; empty if no self loops.
};

/// Convenience: returns \hat{A}^k x by repeated application.
tensor::Matrix PropagateKHops(const Propagator& prop, const tensor::Matrix& x,
                              int hops);

}  // namespace sgnn::graph

#endif  // SGNN_GRAPH_PROPAGATE_H_
