#include "analytics/eigenvector.h"

#include <cmath>

#include "common/parallel.h"

namespace edgeshed::analytics {

std::vector<double> EigenvectorCentrality(const graph::Graph& g,
                                          const EigenvectorOptions& options) {
  const uint64_t n = g.NumNodes();
  if (n == 0) return {};
  if (g.NumEdges() == 0) return std::vector<double>(n, 0.0);
  std::vector<double> current(n, 1.0 / std::sqrt(static_cast<double>(n)));
  std::vector<double> next(n, 0.0);

  for (uint32_t iteration = 0; iteration < options.max_iterations;
       ++iteration) {
    // Iterate (A + I) rather than A: same principal eigenvector, but the
    // shift breaks the ±λ degeneracy of bipartite graphs (a star would
    // otherwise oscillate forever with period 2).
    ParallelForEach(
        0, n,
        [&](uint64_t u_index) {
          const auto u = static_cast<graph::NodeId>(u_index);
          double sum = current[u_index];
          for (graph::NodeId v : g.Neighbors(u)) sum += current[v];
          next[u_index] = sum;
        },
        options.threads);
    double norm = 0.0;
    for (double value : next) norm += value * value;
    norm = std::sqrt(norm);
    if (norm <= 0.0) {
      // Edgeless graph: no centrality signal.
      return std::vector<double>(n, 0.0);
    }
    double change = 0.0;
    for (uint64_t u = 0; u < n; ++u) {
      next[u] /= norm;
      const double diff = next[u] - current[u];
      change += diff * diff;
    }
    current.swap(next);
    if (std::sqrt(change) < options.tolerance) break;
  }
  // Isolated vertices carry residual mass from the +I shift; the principal
  // eigenvector of A assigns them 0. Zero them and renormalize.
  double norm = 0.0;
  for (graph::NodeId u = 0; u < n; ++u) {
    if (g.Degree(u) == 0) current[u] = 0.0;
    norm += current[u] * current[u];
  }
  norm = std::sqrt(norm);
  if (norm > 0.0) {
    for (double& value : current) value /= norm;
  }
  return current;
}

}  // namespace edgeshed::analytics
