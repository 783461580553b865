#include "analytics/pagerank.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/parallel.h"

namespace edgeshed::analytics {

std::vector<double> PageRank(const graph::Graph& g,
                             const PageRankOptions& options) {
  const uint64_t n = g.NumNodes();
  if (n == 0) return {};
  const double uniform = 1.0 / static_cast<double>(n);
  std::vector<double> rank(n, uniform);
  std::vector<double> next(n, 0.0);

  for (uint32_t iteration = 0; iteration < options.max_iterations;
       ++iteration) {
    // Mass parked on dangling vertices is redistributed uniformly.
    double dangling_mass = 0.0;
    for (uint64_t u = 0; u < n; ++u) {
      if (g.Degree(static_cast<graph::NodeId>(u)) == 0) {
        dangling_mass += rank[u];
      }
    }
    const double base =
        (1.0 - options.damping) * uniform +
        options.damping * dangling_mass * uniform;

    ParallelForEach(
        0, n,
        [&](uint64_t u_index) {
          auto u = static_cast<graph::NodeId>(u_index);
          double incoming = 0.0;
          for (graph::NodeId v : g.Neighbors(u)) {
            incoming += rank[v] / static_cast<double>(g.Degree(v));
          }
          next[u_index] = base + options.damping * incoming;
        },
        options.threads);

    double change = 0.0;
    for (uint64_t u = 0; u < n; ++u) change += std::abs(next[u] - rank[u]);
    rank.swap(next);
    if (change < options.tolerance) break;
  }
  return rank;
}

std::vector<uint32_t> TopKIndices(const std::vector<double>& scores,
                                  uint64_t k) {
  k = std::min<uint64_t>(k, scores.size());
  std::vector<uint32_t> indices(scores.size());
  std::iota(indices.begin(), indices.end(), 0u);
  std::partial_sort(indices.begin(), indices.begin() + static_cast<long>(k),
                    indices.end(), [&scores](uint32_t a, uint32_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  indices.resize(k);
  return indices;
}

}  // namespace edgeshed::analytics
