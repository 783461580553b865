#ifndef EDGESHED_CORE_DISCREPANCY_H_
#define EDGESHED_CORE_DISCREPANCY_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace edgeshed::core {

/// Incremental bookkeeping for the paper's optimization objective.
///
/// For a reduced graph under construction, tracks per-vertex degree
/// discrepancy  dis(u) = deg_G'(u) − p·deg_G(u)  (Eq. 3) and the total
/// Δ = Σ_u |dis(u)| (Eq. 4) as edges are added and removed. Both shedding
/// algorithms and the swap-acceptance tests are expressed against this
/// class, so the objective arithmetic lives in exactly one place.
class DegreeDiscrepancy {
 public:
  /// Starts from the empty reduced graph: deg_G'(u) = 0 for all u, so
  /// dis(u) = −p·deg_G(u) and Δ = 2p|E|.
  DegreeDiscrepancy(const graph::Graph& g, double p);

  /// Records that edge {u, v} joined the reduced graph.
  void AddEdge(graph::NodeId u, graph::NodeId v);

  /// Records that edge {u, v} left the reduced graph. The caller must have
  /// added it before (degrees stay non-negative; DCHECKed).
  void RemoveEdge(graph::NodeId u, graph::NodeId v);

  /// Re-bases `u` on a changed original-graph degree: sets the expected
  /// degree to p·new_base_degree and folds the |dis(u)| change into Δ in
  /// O(1). This is the dynamic-graph hook (DESIGN.md §15) — after a
  /// mutation batch only the touched endpoints change their expected term,
  /// so a re-shed updates Δ in O(touched vertices) instead of O(|V|).
  void UpdateBaseDegree(graph::NodeId u, uint64_t new_base_degree);

  /// Current discrepancy of `u`.
  double Dis(graph::NodeId u) const {
    return static_cast<double>(reduced_degree_[u]) - expected_degree_[u];
  }

  /// Expected degree p·deg_G(u) (Eq. 1).
  double ExpectedDegree(graph::NodeId u) const { return expected_degree_[u]; }

  /// Current degree of `u` in the reduced graph.
  uint64_t ReducedDegree(graph::NodeId u) const { return reduced_degree_[u]; }

  /// Δ, maintained incrementally. Numerically exact up to accumulated
  /// floating rounding; see RecomputeTotalDelta() for the reference value.
  double TotalDelta() const { return total_delta_; }

  /// Average delta Δ/|V| — the paper's "Average delta" quality metric.
  double AverageDelta() const;

  /// Change in Δ that removing edge {u, v} would cause right now — the d1
  /// of CRR (Algorithm 1, line 10). Negative values improve the objective.
  double RemovalDelta(graph::NodeId u, graph::NodeId v) const {
    const double dis_u = Dis(u);
    const double dis_v = Dis(v);
    return std::abs(dis_u - 1.0) + std::abs(dis_v - 1.0) -
           (std::abs(dis_u) + std::abs(dis_v));
  }

  /// Change in Δ that adding edge {u, v} would cause right now — the d2 of
  /// CRR (Algorithm 1, line 11).
  double AdditionDelta(graph::NodeId u, graph::NodeId v) const {
    const double dis_u = Dis(u);
    const double dis_v = Dis(v);
    return std::abs(dis_u + 1.0) + std::abs(dis_v + 1.0) -
           (std::abs(dis_u) + std::abs(dis_v));
  }

  /// O(|V|) recomputation of Δ from scratch (tests / drift control).
  double RecomputeTotalDelta() const;

  uint64_t NumNodes() const { return reduced_degree_.size(); }
  double preservation_ratio() const { return p_; }

 private:
  double p_;
  std::vector<double> expected_degree_;
  std::vector<uint64_t> reduced_degree_;
  double total_delta_;
};

}  // namespace edgeshed::core

#endif  // EDGESHED_CORE_DISCREPANCY_H_
