#ifndef EDGESHED_DIST_SHARD_H_
#define EDGESHED_DIST_SHARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "dist/partitioner.h"
#include "graph/graph.h"

namespace edgeshed::dist {

/// One shard of a partitioned graph, in shard-local id space.
///
/// Local node ids are assigned densely over the shard's touched vertices in
/// increasing *global* id order, so the local -> global map `to_global` is
/// strictly increasing. That monotonicity is the merge stage's load-bearing
/// invariant: canonical edge order is preserved by the mapping, so shard-
/// local EdgeIds line up 1:1 with `global_edge_ids` and a kept subgraph
/// round-tripped through a worker maps back to global edges without any
/// ambiguity.
struct Shard {
  /// The shard's edges re-labelled into [0, to_global.size()).
  graph::Graph graph;
  /// to_global[local_node] = global NodeId; strictly increasing.
  std::vector<graph::NodeId> to_global;
  /// global_edge_ids[local_edge] = EdgeId in the parent graph; strictly
  /// increasing (both edge lists are in canonical order).
  std::vector<graph::EdgeId> global_edge_ids;
};

/// Materializes every shard of `partition` over `parent`.
///
/// Single-shard special case: K == 1 returns the parent graph itself with
/// identity node/edge maps over the *full* vertex set (isolated vertices
/// included), so a one-shard fleet is bit-identical to single-node shedding.
StatusOr<std::vector<Shard>> BuildShards(const graph::Graph& parent,
                                         const EdgePartition& partition);

/// Maps a shard-local kept edge list (local EdgeIds into `shard.graph`) back
/// to parent-graph EdgeIds.
std::vector<graph::EdgeId> MapLocalEdgesToGlobal(
    const Shard& shard, const std::vector<graph::EdgeId>& local_edges);

/// Maps a kept *subgraph* of `shard.graph` (as reloaded from a worker's v3
/// binary snapshot, which preserves node count but re-canonicalizes edges)
/// back to parent EdgeIds. Fails with InvalidArgument if `kept` contains a
/// node or edge that is not part of the shard — a corrupt or mismatched
/// snapshot must not silently contribute bogus edges to the merge.
StatusOr<std::vector<graph::EdgeId>> MapKeptSubgraphToGlobal(
    const Shard& shard, const graph::Graph& kept);

}  // namespace edgeshed::dist

#endif  // EDGESHED_DIST_SHARD_H_
