#include "dyn/delta_graph.h"

#include <atomic>

#include "common/parallel.h"
#include "common/strings.h"

namespace edgeshed::dyn {

std::vector<graph::Edge> DeltaGraph::LiveEdges() const {
  std::vector<graph::Edge> live;
  live.reserve(NumEdges());
  ForEachLiveEdge([&](const graph::Edge& e) { live.push_back(e); });
  return live;
}

StatusOr<std::vector<graph::EdgeId>> DeltaGraph::EdgeIdsOf(
    std::span<const graph::Edge> edges, int threads) const {
  constexpr uint64_t kNone = ~uint64_t{0};
  const uint64_t num_nodes = NumNodes();
  const graph::Graph& base = *base_;
  const std::span<const graph::Edge> base_edges = base.edges();
  std::vector<graph::EdgeId> ids(edges.size());
  std::atomic<uint64_t> first_bad{kNone};
  ParallelFor(
      0, edges.size(),
      [&](uint64_t begin, uint64_t end) {
        // The cursors start where binary searches put this range's first
        // edge and only move forward: `rank` (base edges below the current
        // edge) never falls along a sorted range.
        size_t ins = static_cast<size_t>(
            std::lower_bound(inserted_.begin(), inserted_.end(),
                             edges[begin]) -
            inserted_.begin());
        size_t del = kNone;
        graph::NodeId run_vertex = graph::kInvalidNode;
        std::span<const graph::NodeId> run;
        std::span<const graph::EdgeId> run_ids;
        size_t at = 0;
        for (uint64_t i = begin; i < end; ++i) {
          const graph::Edge& e = edges[i];
          bool live = e.u < e.v && e.v < num_nodes &&
                      (i == 0 || edges[i - 1] < e);
          while (live && ins < inserted_.size() && inserted_[ins] < e) ++ins;
          const bool inserted =
              live && ins < inserted_.size() && inserted_[ins] == e;
          graph::EdgeId rank = 0;
          if (inserted) {
            rank = static_cast<graph::EdgeId>(
                std::lower_bound(base_edges.begin(), base_edges.end(), e) -
                base_edges.begin());
          } else if (live) {
            if (e.u != run_vertex) {
              run_vertex = e.u;
              run = base.Neighbors(e.u);
              run_ids = base.IncidentEdges(e.u);
              at = static_cast<size_t>(
                  std::lower_bound(run.begin(), run.end(), e.v) -
                  run.begin());
            }
            while (at < run.size() && run[at] < e.v) ++at;
            live = at < run.size() && run[at] == e.v;
            if (live) rank = run_ids[at];
          }
          if (live) {
            if (del == kNone) {
              del = static_cast<size_t>(
                  std::lower_bound(deleted_ids_.begin(), deleted_ids_.end(),
                                   rank) -
                  deleted_ids_.begin());
            }
            while (del < deleted_ids_.size() && deleted_ids_[del] < rank) {
              ++del;
            }
            live = inserted || del == deleted_ids_.size() ||
                   deleted_ids_[del] != rank;
          }
          if (!live) {
            uint64_t seen = first_bad.load(std::memory_order_relaxed);
            while (i < seen && !first_bad.compare_exchange_weak(
                                   seen, i, std::memory_order_relaxed)) {
            }
            return;
          }
          ids[i] = rank - del + ins;
        }
      },
      threads);
  if (const uint64_t i = first_bad.load(); i != kNone) {
    return Status::Internal(StrFormat(
        "edge %llu {%u, %u} is not live in version %llu or not above the "
        "edge before it",
        static_cast<unsigned long long>(i), edges[i].u, edges[i].v,
        static_cast<unsigned long long>(version_)));
  }
  return ids;
}

std::vector<size_t> DeltaGraph::SourceIndex(
    const std::vector<graph::Edge>& adj, uint64_t num_nodes) {
  if (adj.empty()) return {};
  std::vector<size_t> index((num_nodes >> kIndexShift) + 2);
  size_t i = 0;
  for (size_t b = 0; b < index.size(); ++b) {
    const uint64_t first = static_cast<uint64_t>(b) << kIndexShift;
    while (i < adj.size() && adj[i].u < first) ++i;
    index[b] = i;
  }
  return index;
}

StatusOr<graph::Graph> DeltaGraph::Materialize() const {
  return graph::Graph::FromEdges(static_cast<graph::NodeId>(NumNodes()),
                                 LiveEdges());
}

}  // namespace edgeshed::dyn
