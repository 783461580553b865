#include "dyn/delta_graph.h"

#include <atomic>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "common/strings.h"

namespace edgeshed::dyn {

std::vector<graph::Edge> DeltaGraph::LiveEdges() const {
  std::vector<graph::Edge> live;
  live.reserve(NumEdges());
  ForEachLiveEdge([&](const graph::Edge& e) { live.push_back(e); });
  return live;
}

std::vector<uint32_t> DeltaGraph::BaseRanksOf(
    std::span<const graph::Edge> edges, int threads) const {
  const graph::Graph& base = *base_;
  EDGESHED_CHECK(base.NumEdges() <= std::numeric_limits<uint32_t>::max())
      << "base ranks are 32-bit";
  const uint64_t num_nodes = NumNodes();
  const std::span<const graph::Edge> base_edges = base.edges();
  std::vector<uint32_t> ranks(edges.size());
  ParallelFor(
      0, edges.size(),
      [&](uint64_t begin, uint64_t end) {
        // The cursor moves forward along an ascending stretch and restarts
        // with a binary search anywhere else.
        graph::Edge last{graph::kInvalidNode, 0};
        std::span<const graph::NodeId> run;
        std::span<const graph::EdgeId> run_ids;
        size_t at = 0;
        // Sparse lower endpoints (the joiners of a kept-set log) miss the
        // cache on each CSR run: fetch the offsets 16 edges ahead and the
        // runs 8 ahead.
        constexpr uint64_t kAhead = 8;
        const std::span<const uint64_t> offsets = base.RawOffsets();
        const graph::NodeId* adjacency = base.RawAdjacency().data();
        const graph::EdgeId* incident = base.RawIncident().data();
        for (uint64_t i = begin; i < end; ++i) {
          if (i + 2 * kAhead < end && edges[i + 2 * kAhead].u < num_nodes) {
            __builtin_prefetch(&offsets[edges[i + 2 * kAhead].u]);
          }
          if (i + kAhead < end && edges[i + kAhead].u < num_nodes) {
            const uint64_t first = offsets[edges[i + kAhead].u];
            __builtin_prefetch(adjacency + first);
            __builtin_prefetch(incident + first);
          }
          const graph::Edge& e = edges[i];
          if (e.u < e.v && e.v < num_nodes) {
            const bool forward = e.u == last.u && last.v < e.v;
            last = e;
            if (!forward) {
              run = base.Neighbors(e.u);
              run_ids = base.IncidentEdges(e.u);
              at = static_cast<size_t>(
                  std::lower_bound(run.begin(), run.end(), e.v) -
                  run.begin());
            }
            while (at < run.size() && run[at] < e.v) ++at;
            // Base ids follow the canonical order, so the least base edge
            // not below e — (u, run[at]) when u has a neighbor w >= v, else
            // the edge after u's last edge (u, w > u) — has id r.
            if (at < run.size()) {
              ranks[i] = static_cast<uint32_t>(run_ids[at]);
              continue;
            }
            if (!run.empty() && run.back() > e.u) {
              ranks[i] = static_cast<uint32_t>(run_ids.back() + 1);
              continue;
            }
          }
          ranks[i] = static_cast<uint32_t>(
              std::lower_bound(base_edges.begin(), base_edges.end(), e) -
              base_edges.begin());
        }
      },
      threads);
  return ranks;
}

StatusOr<std::vector<graph::EdgeId>> DeltaGraph::IdsFromRanks(
    std::span<const graph::Edge> edges, std::span<const uint32_t> ranks,
    int threads) const {
  EDGESHED_CHECK_EQ(edges.size(), ranks.size());
  constexpr uint64_t kNone = ~uint64_t{0};
  const uint64_t num_nodes = NumNodes();
  const std::span<const graph::Edge> base_edges = base_->edges();
  std::vector<graph::EdgeId> ids(edges.size());
  std::atomic<uint64_t> first_bad{kNone};
  ParallelFor(
      0, edges.size(),
      [&](uint64_t begin, uint64_t end) {
        // Edges compare as packed (u, v) keys. The cursors start where
        // binary searches put this range's first edge and only move
        // forward, since r never falls along a sorted range; `next_ins` and
        // `next_del` are what they point at, kNone past the end.
        const auto key_of = [](const graph::Edge& e) {
          return (uint64_t{e.u} << 32) | e.v;
        };
        const std::span<const graph::Edge> ins_edges = inserted_;
        const std::span<const graph::EdgeId> del_ids = deleted_ids_;
        size_t ins = static_cast<size_t>(
            std::lower_bound(ins_edges.begin(), ins_edges.end(),
                             edges[begin]) -
            ins_edges.begin());
        size_t del = static_cast<size_t>(
            std::lower_bound(del_ids.begin(), del_ids.end(),
                             graph::EdgeId{ranks[begin]}) -
            del_ids.begin());
        const auto ins_key = [&] {
          return ins < ins_edges.size() ? key_of(ins_edges[ins]) : kNone;
        };
        const auto del_id = [&] {
          return del < del_ids.size() ? del_ids[del] : kNone;
        };
        uint64_t next_ins = ins_key();
        uint64_t next_del = del_id();
        // A canonical key is above 0, so 0 lets the first edge through.
        uint64_t prev = begin == 0 ? 0 : key_of(edges[begin - 1]);
        for (uint64_t i = begin; i < end; ++i) {
          const graph::Edge e = edges[i];
          const uint64_t key = key_of(e);
          const uint64_t rank = ranks[i];
          bool live = (e.u < e.v) & (e.v < num_nodes) & (prev < key) &
                      (rank <= base_edges.size());
          if (live) {
            for (; next_ins < key; next_ins = ins_key()) ++ins;
            for (; next_del < rank; next_del = del_id()) ++del;
            if (next_ins == key) {
              live = (rank == 0 || key_of(base_edges[rank - 1]) < key) &&
                     (rank == base_edges.size() ||
                      key < key_of(base_edges[rank]));
            } else {
              live = rank < base_edges.size() &&
                     key_of(base_edges[rank]) == key && next_del != rank;
            }
          }
          if (!live) {
            uint64_t seen = first_bad.load(std::memory_order_relaxed);
            while (i < seen && !first_bad.compare_exchange_weak(
                                   seen, i, std::memory_order_relaxed)) {
            }
            return;
          }
          ids[i] = rank - del + ins;
          prev = key;
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
