#include "embedding/random_walks.h"

#include <algorithm>
#include <mutex>

#include "common/parallel.h"
#include "common/random.h"

namespace edgeshed::embedding {

namespace {

/// One node2vec step from `current`, given the previous vertex (or
/// kInvalidNode for the first step). Rejection sampling against the
/// unnormalized weights {1/p returns, 1 triangle, 1/q outward}.
graph::NodeId NextStep(const graph::Graph& g, graph::NodeId previous,
                       graph::NodeId current, double p, double q, Rng& rng) {
  auto neighbors = g.Neighbors(current);
  if (neighbors.empty()) return graph::kInvalidNode;
  if (previous == graph::kInvalidNode || (p == 1.0 && q == 1.0)) {
    return neighbors[rng.UniformIndex(neighbors.size())];
  }
  const double w_return = 1.0 / p;
  const double w_common = 1.0;
  const double w_out = 1.0 / q;
  const double w_max = std::max({w_return, w_common, w_out});
  for (;;) {
    graph::NodeId candidate = neighbors[rng.UniformIndex(neighbors.size())];
    double weight;
    if (candidate == previous) {
      weight = w_return;
    } else if (g.HasEdge(candidate, previous)) {
      weight = w_common;
    } else {
      weight = w_out;
    }
    if (rng.UniformDouble() * w_max <= weight) return candidate;
  }
}

}  // namespace

WalkCorpus GenerateWalks(const graph::Graph& g, const WalkOptions& options) {
  const uint64_t n = g.NumNodes();
  WalkCorpus corpus;
  if (n == 0 || options.walks_per_node == 0 || options.walk_length == 0) {
    corpus.offsets.push_back(0);
    return corpus;
  }

  // One independently seeded stream per (round, start) keeps the corpus
  // deterministic under any thread count.
  const uint64_t total_walks = options.walks_per_node * n;
  std::vector<std::vector<graph::NodeId>> walks(total_walks);
  ParallelForEach(
      0, total_walks,
      [&](uint64_t walk_index) {
        const auto start =
            static_cast<graph::NodeId>(walk_index % n);
        if (g.Degree(start) == 0) return;
        Rng rng(options.seed ^ (walk_index * 0x9e3779b97f4a7c15ULL + 1));
        std::vector<graph::NodeId>& walk = walks[walk_index];
        walk.reserve(options.walk_length);
        graph::NodeId previous = graph::kInvalidNode;
        graph::NodeId current = start;
        walk.push_back(current);
        for (uint32_t step = 1; step < options.walk_length; ++step) {
          graph::NodeId next =
              NextStep(g, previous, current, options.p, options.q, rng);
          if (next == graph::kInvalidNode) break;
          walk.push_back(next);
          previous = current;
          current = next;
        }
      },
      options.threads);

  corpus.offsets.push_back(0);
  for (const auto& walk : walks) {
    if (walk.empty()) continue;
    corpus.tokens.insert(corpus.tokens.end(), walk.begin(), walk.end());
    corpus.offsets.push_back(corpus.tokens.size());
  }
  return corpus;
}

}  // namespace edgeshed::embedding
