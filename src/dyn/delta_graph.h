#ifndef EDGESHED_DYN_DELTA_GRAPH_H_
#define EDGESHED_DYN_DELTA_GRAPH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/statusor.h"
#include "graph/graph.h"

namespace edgeshed::dyn {

/// One immutable version of a dynamic graph: a delta overlay of flat sorted
/// arrays on top of a shared immutable CSR base (DESIGN.md §15).
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
    const graph::Edge key{std::min(u, v), std::max(u, v)};
    if (std::binary_search(inserted_.begin(), inserted_.end(), key)) {
      return true;
    }
    const graph::EdgeId id = base_->FindEdge(u, v);
    return id != graph::kInvalidEdge &&
           !std::binary_search(deleted_ids_.begin(), deleted_ids_.end(), id);
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
    const std::span<const graph::Edge> del = DeletedAdj(u);
    const std::span<const graph::Edge> ins = InsertedAdj(u);
    size_t bi = 0;
    size_t di = 0;
    size_t ii = 0;
    while (bi < base_nbrs.size() || ii < ins.size()) {
      const bool take_base =
          bi < base_nbrs.size() &&
          (ii >= ins.size() || base_nbrs[bi] < ins[ii].v);
      if (take_base) {
        const graph::NodeId n = base_nbrs[bi++];
        while (di < del.size() && del[di].v < n) ++di;
        if (di < del.size() && del[di].v == n) {
          ++di;
          continue;
        }
        fn(n);
      } else {
        fn(ins[ii++].v);
      }
    }
  }

  /// Calls `fn(const Edge&)` for every live edge in canonical sorted order —
  /// exactly the edges() order of the materialized graph. Sorted merge of
  /// the base edge list with the sorted insert list; the ascending deleted
  /// ids are skipped with a cursor, since the walk visits base ids in
  /// ascending order.
  template <typename Fn>
  void ForEachLiveEdge(Fn&& fn) const {
    const std::span<const graph::Edge> base_edges = base_->edges();
    const std::vector<graph::EdgeId>& deleted = deleted_ids_;
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

  /// EdgeIds of `edges` in this version: their positions in the order
  /// ForEachLiveEdge walks, which are their ids in Materialize(). `edges`
  /// must be canonical and strictly ascending. The composition of
  /// BaseRanksOf and IdsFromRanks, so no live edge is visited that `edges`
  /// does not hold. Ranges of `edges` run on up to `threads` threads
  /// (0 = DefaultThreadCount()). Internal naming the first edge that is not
  /// live or not above the one before it.
  StatusOr<std::vector<graph::EdgeId>> EdgeIdsOf(
      std::span<const graph::Edge> edges, int threads = 0) const {
    return IdsFromRanks(edges, BaseRanksOf(edges, threads), threads);
  }

  /// Each edge's base rank r: the number of base edges below it, which is
  /// its base EdgeId for a base edge and its lower bound in base()->edges()
  /// otherwise. r is the id of the least base edge (u, w >= v) in the lower
  /// endpoint's CSR run, found by a cursor that moves forward along an
  /// ascending stretch of `edges`, or one past u's last edge (u, w > u);
  /// only when u has none, or the edge is not canonical, does r take a
  /// binary search of the base edge list. r depends on the base alone, so
  /// it holds across versions that share one. Ranges of `edges` run on up
  /// to `threads` threads. The base must have fewer than 2^32 edges.
  std::vector<uint32_t> BaseRanksOf(std::span<const graph::Edge> edges,
                                    int threads = 0) const;

  /// EdgeIds of `edges` from their base ranks (aligned): id = r − (deleted
  /// base ids below r) + (inserted edges below the edge), from forward
  /// cursors over deleted_ids() and inserted() split over up to `threads`
  /// threads. An edge is live when it is in inserted() with r its lower
  /// bound in the base, or base()->edges()[r] is the edge and r is not
  /// deleted; anything else, or an edge not canonical or not above the one
  /// before it, is Internal naming the first such edge.
  StatusOr<std::vector<graph::EdgeId>> IdsFromRanks(
      std::span<const graph::Edge> edges, std::span<const uint32_t> ranks,
      int threads = 0) const;

  /// Folds the overlay into a fresh owned CSR. Bit-identical to
  /// Graph::FromEdges(NumNodes(), <live edges from scratch>) because the
  /// live edges are already canonical, sorted, and duplicate-free.
  StatusOr<graph::Graph> Materialize() const;

  /// Edges inserted relative to the base, canonical sorted order.
  const std::vector<graph::Edge>& inserted() const { return inserted_; }
  /// Base EdgeIds deleted in this version, ascending.
  const std::vector<graph::EdgeId>& deleted_ids() const {
    return deleted_ids_;
  }

 private:
  friend class VersionedGraph;

  DeltaGraph() = default;

  /// Vertices per stretch of a source index: 64.
  static constexpr int kIndexShift = 6;

  /// index[b] is the first position in `adj` (sorted by (u, v)) whose
  /// source is at least b << kIndexShift, for b up to
  /// (num_nodes >> kIndexShift) + 1, so a lookup searches one stretch of
  /// 64 vertices instead of the whole array. Empty for an empty `adj`.
  static std::vector<size_t> SourceIndex(const std::vector<graph::Edge>& adj,
                                         uint64_t num_nodes);

  /// The (u, v) pairs of `adj` with source u: one contiguous run inside
  /// u's stretch of `index`.
  static std::span<const graph::Edge> AdjOf(const std::vector<graph::Edge>& adj,
                                            const std::vector<size_t>& index,
                                            graph::NodeId u) {
    if (adj.empty()) return {};
    const size_t b = u >> kIndexShift;
    const auto last = adj.begin() + static_cast<ptrdiff_t>(index[b + 1]);
    const auto lo = std::lower_bound(
        adj.begin() + static_cast<ptrdiff_t>(index[b]), last, u,
        [](const graph::Edge& e, graph::NodeId x) { return e.u < x; });
    auto hi = lo;
    while (hi != last && hi->u == u) ++hi;
    return {lo, hi};
  }
  std::span<const graph::Edge> InsertedAdj(graph::NodeId u) const {
    return AdjOf(ins_adj_, ins_index_, u);
  }
  std::span<const graph::Edge> DeletedAdj(graph::NodeId u) const {
    return AdjOf(del_adj_, del_index_, u);
  }

  std::shared_ptr<const graph::Graph> base_;
  uint64_t version_ = 0;

  // The overlay, four flat sorted arrays rebuilt by one merge per batch
  // (VersionedGraph::ApplyToDelta). Inserted edges, canonical sorted; they
  // are never base edges (re-inserting a deleted base edge un-deletes it).
  std::vector<graph::Edge> inserted_;
  // Deleted base edges by EdgeId, ascending.
  std::vector<graph::EdgeId> deleted_ids_;
  // Both directions (u, v) and (v, u) of every inserted / deleted edge,
  // sorted by (u, v): a vertex's overlay neighbors are one ascending run.
  // Each has its SourceIndex beside it.
  std::vector<graph::Edge> ins_adj_;
  std::vector<graph::Edge> del_adj_;
  std::vector<size_t> ins_index_;
  std::vector<size_t> del_index_;
};

}  // namespace edgeshed::dyn

#endif  // EDGESHED_DYN_DELTA_GRAPH_H_
