#include "core/discrepancy.h"

#include <cmath>

#include "common/check.h"

namespace edgeshed::core {

DegreeDiscrepancy::DegreeDiscrepancy(const graph::Graph& g, double p)
    : p_(p) {
  EDGESHED_CHECK(p > 0.0 && p < 1.0)
      << "edge preservation ratio must be in (0,1), got " << p;
  const uint64_t n = g.NumNodes();
  expected_degree_.resize(n);
  reduced_degree_.assign(n, 0);
  total_delta_ = 0.0;
  for (graph::NodeId u = 0; u < n; ++u) {
    expected_degree_[u] = p * static_cast<double>(g.Degree(u));
    total_delta_ += expected_degree_[u];
  }
}

void DegreeDiscrepancy::AddEdge(graph::NodeId u, graph::NodeId v) {
  EDGESHED_DCHECK(u != v);
  total_delta_ += AdditionDelta(u, v);
  ++reduced_degree_[u];
  ++reduced_degree_[v];
}

void DegreeDiscrepancy::RemoveEdge(graph::NodeId u, graph::NodeId v) {
  EDGESHED_DCHECK(u != v);
  EDGESHED_DCHECK(reduced_degree_[u] > 0);
  EDGESHED_DCHECK(reduced_degree_[v] > 0);
  total_delta_ += RemovalDelta(u, v);
  --reduced_degree_[u];
  --reduced_degree_[v];
}

void DegreeDiscrepancy::UpdateBaseDegree(graph::NodeId u,
                                         uint64_t new_base_degree) {
  total_delta_ -= std::abs(Dis(u));
  expected_degree_[u] = p_ * static_cast<double>(new_base_degree);
  total_delta_ += std::abs(Dis(u));
}

double DegreeDiscrepancy::AverageDelta() const {
  return NumNodes() == 0
             ? 0.0
             : total_delta_ / static_cast<double>(NumNodes());
}

double DegreeDiscrepancy::RecomputeTotalDelta() const {
  double total = 0.0;
  for (uint64_t u = 0; u < NumNodes(); ++u) {
    total += std::abs(Dis(static_cast<graph::NodeId>(u)));
  }
  return total;
}

}  // namespace edgeshed::core
