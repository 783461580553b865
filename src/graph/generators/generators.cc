#include "graph/generators/generators.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "graph/graph_builder.h"

namespace edgeshed::graph {

namespace {

uint64_t PackEdge(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

/// Visits each index in [0, total) independently with probability `prob`,
/// using geometric gap-skipping so the cost is O(prob * total) instead of
/// O(total). Used by the planted-partition generator where edge
/// probabilities are small.
template <typename Callback>
void VisitBernoulliIndices(uint64_t total, double prob, Rng& rng,
                           Callback&& callback) {
  if (prob <= 0.0 || total == 0) return;
  if (prob >= 1.0) {
    for (uint64_t i = 0; i < total; ++i) callback(i);
    return;
  }
  const double log_one_minus_p = std::log1p(-prob);
  double position = -1.0;
  for (;;) {
    double u = rng.UniformDouble();
    // Skip a Geometric(prob)-distributed number of indices.
    position += 1.0 + std::floor(std::log1p(-u) / log_one_minus_p);
    if (position >= static_cast<double>(total)) return;
    callback(static_cast<uint64_t>(position));
  }
}

}  // namespace

Graph ErdosRenyi(NodeId num_nodes, uint64_t num_edges, Rng& rng) {
  const uint64_t n = num_nodes;
  const uint64_t max_edges = n * (n - 1) / 2;
  EDGESHED_CHECK_LE(num_edges, max_edges)
      << "G(n,m) cannot place " << num_edges << " distinct edges on " << n
      << " nodes";
  GraphBuilder builder;
  builder.ReserveNodes(num_nodes);
  builder.ReserveEdges(num_edges);
  std::unordered_set<uint64_t> used;
  used.reserve(num_edges * 2);
  while (used.size() < num_edges) {
    NodeId u = static_cast<NodeId>(rng.UniformU64(n));
    NodeId v = static_cast<NodeId>(rng.UniformU64(n));
    if (u == v) continue;
    if (used.insert(PackEdge(u, v)).second) {
      builder.AddEdge(u, v);
    }
  }
  return builder.Build();
}

Graph BarabasiAlbert(NodeId num_nodes, uint32_t edges_per_node, Rng& rng) {
  EDGESHED_CHECK_GE(num_nodes, edges_per_node + 1);
  EDGESHED_CHECK_GT(edges_per_node, 0u);
  GraphBuilder builder;
  builder.ReserveNodes(num_nodes);

  // `targets` holds every node once per unit of degree; uniform sampling
  // from it implements preferential attachment.
  std::vector<NodeId> targets;
  const NodeId seed_size = edges_per_node + 1;
  for (NodeId u = 0; u < seed_size; ++u) {
    for (NodeId v = u + 1; v < seed_size; ++v) {
      builder.AddEdge(u, v);
      targets.push_back(u);
      targets.push_back(v);
    }
  }

  std::unordered_set<NodeId> chosen;
  for (NodeId v = seed_size; v < num_nodes; ++v) {
    chosen.clear();
    while (chosen.size() < edges_per_node) {
      NodeId candidate = targets[rng.UniformIndex(targets.size())];
      chosen.insert(candidate);
    }
    for (NodeId u : chosen) {
      builder.AddEdge(u, v);
      targets.push_back(u);
      targets.push_back(v);
    }
  }
  return builder.Build();
}

Graph PowerlawCluster(NodeId num_nodes, uint32_t edges_per_node,
                      double triangle_prob, Rng& rng) {
  EDGESHED_CHECK_GE(num_nodes, edges_per_node + 1);
  EDGESHED_CHECK_GT(edges_per_node, 0u);
  GraphBuilder builder;
  builder.ReserveNodes(num_nodes);

  std::vector<std::vector<NodeId>> adjacency(num_nodes);
  std::vector<NodeId> targets;
  auto connect = [&](NodeId u, NodeId v) {
    builder.AddEdge(u, v);
    adjacency[u].push_back(v);
    adjacency[v].push_back(u);
    targets.push_back(u);
    targets.push_back(v);
  };

  const NodeId seed_size = edges_per_node + 1;
  for (NodeId u = 0; u < seed_size; ++u) {
    for (NodeId v = u + 1; v < seed_size; ++v) connect(u, v);
  }

  std::unordered_set<NodeId> linked;
  for (NodeId v = seed_size; v < num_nodes; ++v) {
    linked.clear();
    NodeId last_target = kInvalidNode;
    uint32_t formed = 0;
    // Bounded retries keep degenerate corners (tiny target pools) from
    // spinning; falling short by an edge or two is acceptable noise.
    uint32_t attempts = 0;
    const uint32_t max_attempts = 64 * edges_per_node + 64;
    while (formed < edges_per_node && attempts++ < max_attempts) {
      NodeId candidate;
      if (last_target != kInvalidNode && rng.Bernoulli(triangle_prob) &&
          !adjacency[last_target].empty()) {
        // Triad step: close a triangle through a neighbor of the previous
        // attachment point (Holme–Kim).
        candidate = adjacency[last_target]
                              [rng.UniformIndex(adjacency[last_target].size())];
      } else {
        candidate = targets[rng.UniformIndex(targets.size())];
      }
      if (candidate == v || linked.contains(candidate)) continue;
      linked.insert(candidate);
      connect(candidate, v);
      last_target = candidate;
      ++formed;
    }
  }
  return builder.Build();
}

Graph WattsStrogatz(NodeId num_nodes, uint32_t k, double beta, Rng& rng) {
  EDGESHED_CHECK_EQ(k % 2, 0u) << "Watts-Strogatz requires even k";
  EDGESHED_CHECK_GT(num_nodes, k);
  std::unordered_set<uint64_t> present;
  std::vector<Edge> edges;
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (uint32_t j = 1; j <= k / 2; ++j) {
      NodeId v = static_cast<NodeId>((u + j) % num_nodes);
      edges.push_back(Edge{u, v});
      present.insert(PackEdge(u, v));
    }
  }
  for (Edge& e : edges) {
    if (!rng.Bernoulli(beta)) continue;
    // Rewire the far endpoint to a uniform non-duplicate, non-self target.
    for (int tries = 0; tries < 32; ++tries) {
      NodeId w = static_cast<NodeId>(rng.UniformU64(num_nodes));
      if (w == e.u || w == e.v) continue;
      if (present.contains(PackEdge(e.u, w))) continue;
      present.erase(PackEdge(e.u, e.v));
      present.insert(PackEdge(e.u, w));
      e.v = w;
      break;
    }
  }
  GraphBuilder builder;
  builder.ReserveNodes(num_nodes);
  for (const Edge& e : edges) builder.AddEdge(e.u, e.v);
  return builder.Build();
}

Graph RMat(uint32_t scale, uint32_t edge_factor, double a, double b, double c,
           Rng& rng) {
  EDGESHED_CHECK_LT(scale, 32u);
  const double d = 1.0 - a - b - c;
  EDGESHED_CHECK(a >= 0 && b >= 0 && c >= 0 && d >= 0)
      << "R-MAT probabilities must be a non-negative partition of 1";
  const NodeId n = static_cast<NodeId>(1u) << scale;
  const uint64_t nominal_edges = static_cast<uint64_t>(edge_factor) * n;
  GraphBuilder builder;
  builder.ReserveNodes(n);
  builder.ReserveEdges(nominal_edges);
  for (uint64_t i = 0; i < nominal_edges; ++i) {
    NodeId u = 0;
    NodeId v = 0;
    for (uint32_t level = 0; level < scale; ++level) {
      double r = rng.UniformDouble();
      u <<= 1;
      v <<= 1;
      if (r < a) {
        // top-left quadrant: no bits set
      } else if (r < a + b) {
        v |= 1;
      } else if (r < a + b + c) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    if (u != v) builder.AddEdge(u, v);
  }
  return builder.Build();
}

Graph PlantedPartition(NodeId num_nodes, uint32_t num_communities,
                       double p_in, double p_out, Rng& rng) {
  EDGESHED_CHECK_GT(num_communities, 0u);
  GraphBuilder builder;
  builder.ReserveNodes(num_nodes);

  // Communities are contiguous blocks: node u belongs to community
  // u / ceil(n / k). (Documented; consumers that need ground truth use the
  // same arithmetic.)
  const NodeId block = (num_nodes + num_communities - 1) / num_communities;

  // Intra-community edges, one community at a time.
  for (uint32_t community = 0; community < num_communities; ++community) {
    const NodeId begin = static_cast<NodeId>(community * block);
    if (begin >= num_nodes) break;
    const NodeId end = std::min<NodeId>(num_nodes, begin + block);
    const uint64_t size = end - begin;
    const uint64_t pairs = size * (size - 1) / 2;
    VisitBernoulliIndices(pairs, p_in, rng, [&](uint64_t index) {
      // Unrank `index` into a pair (row, col), row < col, within the block.
      uint64_t row = static_cast<uint64_t>(
          (1.0 + std::sqrt(1.0 + 8.0 * static_cast<double>(index))) / 2.0);
      if (row == 0) row = 1;
      while (row > 1 && row * (row - 1) / 2 > index) --row;
      while ((row + 1) * row / 2 <= index) ++row;
      uint64_t col = index - row * (row - 1) / 2;
      builder.AddEdge(static_cast<NodeId>(begin + row),
                      static_cast<NodeId>(begin + col));
    });
  }

  // Inter-community edges over ordered community pairs.
  for (uint32_t ci = 0; ci < num_communities; ++ci) {
    const NodeId ci_begin = static_cast<NodeId>(ci * block);
    if (ci_begin >= num_nodes) break;
    const NodeId ci_end = std::min<NodeId>(num_nodes, ci_begin + block);
    for (uint32_t cj = ci + 1; cj < num_communities; ++cj) {
      const NodeId cj_begin = static_cast<NodeId>(cj * block);
      if (cj_begin >= num_nodes) break;
      const NodeId cj_end = std::min<NodeId>(num_nodes, cj_begin + block);
      const uint64_t rows = ci_end - ci_begin;
      const uint64_t cols = cj_end - cj_begin;
      VisitBernoulliIndices(rows * cols, p_out, rng, [&](uint64_t index) {
        builder.AddEdge(static_cast<NodeId>(ci_begin + index / cols),
                        static_cast<NodeId>(cj_begin + index % cols));
      });
    }
  }
  return builder.Build();
}

}  // namespace edgeshed::graph
