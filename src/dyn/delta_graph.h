#ifndef EDGESHED_DYN_DELTA_GRAPH_H_
#define EDGESHED_DYN_DELTA_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/statusor.h"
#include "graph/graph.h"
#include "graph/mutation_io.h"

namespace edgeshed::dyn {

/// One immutable version of a dynamic graph: a hash-indexed delta overlay on
/// top of a shared immutable CSR base (DESIGN.md §15).
///
/// A DeltaGraph is the subsystem's `GraphView`: it exposes the same accessor
/// shapes as `graph::Graph` (NumNodes/NumEdges/Degree/HasEdge plus sorted
/// neighbor and canonical edge iteration), so view-aware kernels — the
/// incremental shedder's degree-discrepancy maintenance and dirty-region
/// BFS — run on it without materializing a CSR. Iteration order is exactly
/// the order a from-scratch `Graph::FromEdges` build over the live edge set
/// would produce, which is what makes `Materialize()` bit-identical to a
/// rebuild and the overlay-vs-rebuild equivalence suite meaningful.
///
/// Instances are created only by `VersionedGraph` and are immutable
/// afterwards; readers pin a version by holding the shared_ptr returned
/// from `VersionedGraph::Snapshot()`. The base Graph is held by shared_ptr
/// too, so a snapshot keeps a replaced/compacted (possibly mmap-backed)
/// base alive for as long as any reader needs it.
class DeltaGraph {
 public:
  uint64_t version() const { return version_; }
  const std::shared_ptr<const graph::Graph>& base() const { return base_; }

  uint64_t NumNodes() const { return base_->NumNodes(); }
  uint64_t NumEdges() const {
    return base_->NumEdges() - deleted_ids_.size() + inserted_.size();
  }

  uint64_t Degree(graph::NodeId u) const {
    return base_->Degree(u) - DeletedAdj(u).size() + InsertedAdj(u).size();
  }

  /// True iff {u, v} is live in this version.
  bool HasEdge(graph::NodeId u, graph::NodeId v) const {
    if (inserted_keys_.count(graph::EdgeKey(u, v)) != 0) return true;
    const graph::EdgeId id = base_->FindEdge(u, v);
    return id != graph::kInvalidEdge && deleted_ids_.count(id) == 0;
  }

  /// Overlay size: edges inserted plus edges deleted relative to the base.
  uint64_t OverlaySize() const {
    return inserted_.size() + deleted_ids_.size();
  }

  /// Overlay size over live edge count — the compaction trigger input.
  double DeltaRatio() const {
    const uint64_t live = NumEdges();
    return static_cast<double>(OverlaySize()) /
           static_cast<double>(live == 0 ? 1 : live);
  }

  /// Calls `fn(NodeId)` for every live neighbor of `u`, ascending — the
  /// same order Graph::Neighbors would give on the materialized graph.
  /// Three-way sorted merge: base neighbors minus the deleted skip-list,
  /// interleaved with inserted neighbors. Inserted edges are never base
  /// edges (re-inserting a deleted base edge un-deletes it instead), so
  /// the merge never sees equal keys.
  template <typename Fn>
  void ForEachNeighbor(graph::NodeId u, Fn&& fn) const {
    const std::span<const graph::NodeId> base_nbrs = base_->Neighbors(u);
    const std::span<const graph::NodeId> del = DeletedAdj(u);
    const std::span<const graph::NodeId> ins = InsertedAdj(u);
    size_t bi = 0;
    size_t di = 0;
    size_t ii = 0;
    while (bi < base_nbrs.size() || ii < ins.size()) {
      const bool take_base =
          bi < base_nbrs.size() &&
          (ii >= ins.size() || base_nbrs[bi] < ins[ii]);
      if (take_base) {
        const graph::NodeId n = base_nbrs[bi++];
        while (di < del.size() && del[di] < n) ++di;
        if (di < del.size() && del[di] == n) {
          ++di;
          continue;
        }
        fn(n);
      } else {
        fn(ins[ii++]);
      }
    }
  }

  /// Calls `fn(const Edge&)` for every live edge in canonical sorted order —
  /// exactly the edges() order of the materialized graph. Sorted merge of
  /// the base edge list with the sorted insert list; deleted base ids are
  /// sorted once per call and skipped with a cursor, since the walk visits
  /// base ids in ascending order.
  template <typename Fn>
  void ForEachLiveEdge(Fn&& fn) const {
    const std::span<const graph::Edge> base_edges = base_->edges();
    std::vector<graph::EdgeId> deleted(deleted_ids_.begin(),
                                       deleted_ids_.end());
    std::sort(deleted.begin(), deleted.end());
    size_t bi = 0;
    size_t di = 0;
    size_t ii = 0;
    while (bi < base_edges.size() || ii < inserted_.size()) {
      const bool take_base =
          bi < base_edges.size() &&
          (ii >= inserted_.size() || base_edges[bi] < inserted_[ii]);
      if (take_base) {
        const graph::EdgeId id = static_cast<graph::EdgeId>(bi);
        const graph::Edge& e = base_edges[bi++];
        if (di < deleted.size() && deleted[di] == id) {
          ++di;
          continue;
        }
        fn(e);
      } else {
        fn(inserted_[ii++]);
      }
    }
  }

  /// The live edge set in canonical sorted order.
  std::vector<graph::Edge> LiveEdges() const;

  /// Folds the overlay into a fresh owned CSR. Bit-identical to
  /// Graph::FromEdges(NumNodes(), <live edges from scratch>) because the
  /// live edges are already canonical, sorted, and duplicate-free.
  StatusOr<graph::Graph> Materialize() const;

  /// Edges inserted relative to the base, canonical sorted order.
  const std::vector<graph::Edge>& inserted() const { return inserted_; }
  /// Base EdgeIds deleted in this version.
  const std::unordered_set<graph::EdgeId>& deleted_ids() const {
    return deleted_ids_;
  }

 private:
  friend class VersionedGraph;

  DeltaGraph() = default;

  std::span<const graph::NodeId> InsertedAdj(graph::NodeId u) const {
    const auto it = ins_adj_.find(u);
    return it == ins_adj_.end() ? std::span<const graph::NodeId>()
                                : std::span<const graph::NodeId>(it->second);
  }
  std::span<const graph::NodeId> DeletedAdj(graph::NodeId u) const {
    const auto it = del_adj_.find(u);
    return it == del_adj_.end() ? std::span<const graph::NodeId>()
                                : std::span<const graph::NodeId>(it->second);
  }

  std::shared_ptr<const graph::Graph> base_;
  uint64_t version_ = 0;

  // Inserted edges: canonical sorted list + packed-key hash index.
  std::vector<graph::Edge> inserted_;
  std::unordered_set<uint64_t> inserted_keys_;
  // Deleted base edges by EdgeId, plus a per-vertex sorted skip-list of
  // deleted neighbors (the degree adjustment and merge input).
  std::unordered_set<graph::EdgeId> deleted_ids_;
  std::unordered_map<graph::NodeId, std::vector<graph::NodeId>> ins_adj_;
  std::unordered_map<graph::NodeId, std::vector<graph::NodeId>> del_adj_;
};

}  // namespace edgeshed::dyn

#endif  // EDGESHED_DYN_DELTA_GRAPH_H_
