#ifndef EDGESHED_GRAPH_GENERATORS_GENERATORS_H_
#define EDGESHED_GRAPH_GENERATORS_GENERATORS_H_

#include <cstdint>

#include "common/random.h"
#include "graph/graph.h"

namespace edgeshed::graph {

/// Synthetic graph generators.
///
/// These stand in for the paper's SNAP downloads in offline environments
/// (DESIGN.md §3): each family matches the structural regime of one of the
/// paper's datasets. All generators are deterministic given the Rng seed and
/// always return simple undirected graphs (self-loops dropped, parallel
/// edges collapsed), which can make the realized |E| slightly smaller than
/// the nominal target for the collision-prone families (R-MAT).

/// G(n, m): exactly `num_edges` distinct uniform edges over `num_nodes`
/// vertices. Requires num_edges <= n*(n-1)/2.
Graph ErdosRenyi(NodeId num_nodes, uint64_t num_edges, Rng& rng);

/// Barabási–Albert preferential attachment: starts from a clique of
/// `edges_per_node` + 1 vertices, then each new vertex attaches to
/// `edges_per_node` distinct existing vertices chosen proportionally to
/// degree. Produces the heavy-tailed degree laws of collaboration networks.
Graph BarabasiAlbert(NodeId num_nodes, uint32_t edges_per_node, Rng& rng);

/// Holme–Kim "powerlaw cluster" model: Barabási–Albert plus, after each
/// preferential attachment, a triad-closing step with probability
/// `triangle_prob`. Matches the high clustering of co-authorship graphs.
Graph PowerlawCluster(NodeId num_nodes, uint32_t edges_per_node,
                      double triangle_prob, Rng& rng);

/// Watts–Strogatz small world: ring lattice with `k` nearest neighbors per
/// side pair (k even), each lattice edge rewired with probability `beta`.
Graph WattsStrogatz(NodeId num_nodes, uint32_t k, double beta, Rng& rng);

/// R-MAT / Kronecker-style generator (Chakrabarti et al.): 2^scale vertices,
/// `edge_factor * 2^scale` nominal edges, recursive quadrant probabilities
/// (a, b, c, implicit d = 1-a-b-c). Skewed, community-like, the standard
/// surrogate for large social networks (our com-LiveJournal stand-in).
Graph RMat(uint32_t scale, uint32_t edge_factor, double a, double b, double c,
           Rng& rng);

/// Planted-partition model: `num_communities` equal-size groups; each
/// potential intra-community edge appears with probability `p_in`, each
/// inter-community edge with `p_out`. Ground truth for community-sensitive
/// tasks (link prediction within community).
Graph PlantedPartition(NodeId num_nodes, uint32_t num_communities,
                       double p_in, double p_out, Rng& rng);

}  // namespace edgeshed::graph

#endif  // EDGESHED_GRAPH_GENERATORS_GENERATORS_H_
