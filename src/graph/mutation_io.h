#ifndef EDGESHED_GRAPH_MUTATION_IO_H_
#define EDGESHED_GRAPH_MUTATION_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "graph/graph.h"

namespace edgeshed::graph {

/// One batch of edge mutations against a dynamic graph. Batches are the
/// atomicity unit: ApplyBatch either installs every mutation in the batch as
/// one new version or rejects the whole batch.
struct MutationBatch {
  std::vector<Edge> inserts;
  std::vector<Edge> deletes;

  bool empty() const { return inserts.empty() && deletes.empty(); }
  size_t size() const { return inserts.size() + deletes.size(); }
};

/// Canonical packed key for an undirected edge with u <= v. Used by
/// batch-level duplicate detection and the incremental shedder's rank slots.
inline uint64_t EdgeKey(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | static_cast<uint64_t>(v);
}
inline uint64_t EdgeKey(const Edge& e) { return EdgeKey(e.u, e.v); }

/// Structural validation of one batch, in place: canonicalizes every edge to
/// u < v, then rejects self-loops and duplicates *within the batch* — a pair
/// listed twice among inserts, twice among deletes, or on both sides — with
/// InvalidArgument naming the offending pair. Silent dedup here would let
/// the overlay and the compacted CSR disagree about multiplicity, so
/// ambiguity is an error, never a guess. Does NOT check liveness against any
/// particular graph version; VersionedGraph::ApplyBatch does that under its
/// own lock.
Status ValidateAndCanonicalizeBatch(MutationBatch* batch);

/// Parses a mutation stream from text. Line format:
///
///   + u v     insert edge {u, v}
///   - u v     delete edge {u, v}
///   ---       batch separator (end the current batch, start a new one)
///   # ...     comment (also '%'); blank lines ignored
///
/// Returns the batches in file order; a trailing separator or an empty
/// final batch is dropped. Every batch is validated with
/// ValidateAndCanonicalizeBatch, so the parser enforces the same
/// self-loop/duplicate rejection as ApplyBatch and errors name both the
/// offending pair and the 1-based line. Node ids must fit NodeId (u32).
StatusOr<std::vector<MutationBatch>> ParseMutationText(std::string_view text);

/// ParseMutationText over the contents of `path`.
StatusOr<std::vector<MutationBatch>> ParseMutationFile(
    const std::string& path);

}  // namespace edgeshed::graph

#endif  // EDGESHED_GRAPH_MUTATION_IO_H_
