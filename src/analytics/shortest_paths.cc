#include "analytics/shortest_paths.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <vector>

#include "analytics/bfs.h"
#include "common/parallel.h"

namespace edgeshed::analytics {

Histogram DistanceProfile(const graph::Graph& g,
                          const DistanceProfileOptions& options) {
  const uint64_t n = g.NumNodes();
  Histogram profile;
  if (n == 0) return profile;

  std::vector<graph::NodeId> sources;
  if (n <= options.exact_node_threshold || options.sample_sources >= n) {
    sources.resize(n);
    std::iota(sources.begin(), sources.end(), graph::NodeId{0});
  } else {
    Rng rng(options.seed);
    for (uint64_t index : rng.SampleIndices(n, options.sample_sources)) {
      sources.push_back(static_cast<graph::NodeId>(index));
    }
  }

  std::mutex merge_mutex;
  ParallelFor(
      0, sources.size(),
      [&](uint64_t begin, uint64_t end) {
        std::vector<int32_t> distances;
        std::vector<graph::NodeId> queue;
        // Dense local tally per distance; merged under the lock once per
        // chunk. Distances are bounded by the graph diameter (small).
        std::vector<uint64_t> local;
        for (uint64_t i = begin; i < end; ++i) {
          BfsDistancesInto(g, sources[i], &distances, &queue);
          for (graph::NodeId reached : queue) {
            int32_t d = distances[reached];
            if (d <= 0) continue;  // skip the source itself
            if (static_cast<size_t>(d) >= local.size()) {
              local.resize(static_cast<size_t>(d) + 1, 0);
            }
            ++local[static_cast<size_t>(d)];
          }
        }
        std::lock_guard<std::mutex> lock(merge_mutex);
        for (size_t d = 1; d < local.size(); ++d) {
          if (local[d] > 0) profile.Add(static_cast<int64_t>(d), local[d]);
        }
      },
      options.threads);
  return profile;
}

double HopPlotFraction(const Histogram& distance_profile, int64_t hops) {
  return distance_profile.CumulativeFractionUpTo(hops);
}

}  // namespace edgeshed::analytics
