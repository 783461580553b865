#include "analytics/closeness.h"

#include <mutex>
#include <numeric>

#include "analytics/bfs.h"
#include "common/parallel.h"
#include "common/random.h"

namespace edgeshed::analytics {

std::vector<double> HarmonicCentrality(const graph::Graph& g,
                                       const ClosenessOptions& options) {
  const uint64_t n = g.NumNodes();
  std::vector<double> centrality(n, 0.0);
  if (n == 0) return centrality;

  std::vector<graph::NodeId> sources;
  double rescale = 1.0;
  if (n <= options.exact_node_threshold || options.sample_sources >= n) {
    sources.resize(n);
    std::iota(sources.begin(), sources.end(), graph::NodeId{0});
  } else {
    Rng rng(options.seed);
    for (uint64_t index : rng.SampleIndices(n, options.sample_sources)) {
      sources.push_back(static_cast<graph::NodeId>(index));
    }
    rescale = static_cast<double>(n) / static_cast<double>(sources.size());
  }

  // H(u) = Σ_s 1/d(s, u): accumulate per target from each source's BFS.
  // (d is symmetric, so summing over sampled sources estimates the sum
  // over all counterparts.)
  std::mutex merge_mutex;
  ParallelFor(
      0, sources.size(),
      [&](uint64_t begin, uint64_t end) {
        std::vector<int32_t> distances;
        std::vector<graph::NodeId> queue;
        std::vector<double> local(n, 0.0);
        for (uint64_t i = begin; i < end; ++i) {
          BfsDistancesInto(g, sources[i], &distances, &queue);
          for (graph::NodeId reached : queue) {
            const int32_t d = distances[reached];
            if (d > 0) local[reached] += 1.0 / static_cast<double>(d);
          }
        }
        std::lock_guard<std::mutex> lock(merge_mutex);
        for (uint64_t u = 0; u < n; ++u) centrality[u] += local[u];
      },
      options.threads);
  for (double& value : centrality) value *= rescale;
  return centrality;
}

std::vector<double> ClosenessCentrality(const graph::Graph& g, int threads) {
  const uint64_t n = g.NumNodes();
  std::vector<double> centrality(n, 0.0);
  if (n <= 1) return centrality;
  ParallelForEach(
      0, n,
      [&](uint64_t u_index) {
        thread_local std::vector<int32_t> distances;
        thread_local std::vector<graph::NodeId> queue;
        BfsDistancesInto(g, static_cast<graph::NodeId>(u_index), &distances,
                         &queue);
        uint64_t reachable = queue.size();  // includes u itself
        if (reachable <= 1) return;
        double distance_sum = 0.0;
        for (graph::NodeId reached : queue) {
          distance_sum += static_cast<double>(distances[reached]);
        }
        const double r = static_cast<double>(reachable);
        // Wasserman-Faust: scale by component coverage.
        centrality[u_index] =
            (r - 1.0) / distance_sum * (r - 1.0) /
            (static_cast<double>(n) - 1.0);
      },
      threads);
  return centrality;
}

}  // namespace edgeshed::analytics
