#include "graph/graph.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "common/parallel.h"
#include "common/strings.h"

namespace edgeshed::graph {

namespace {

constexpr uint64_t kNone = static_cast<uint64_t>(-1);

/// Lowers `candidate` into `slot` if it is smaller — used to report the
/// first (lowest-index) offending edge deterministically regardless of which
/// worker finds it.
void AtomicMinIndex(std::atomic<uint64_t>* slot, uint64_t candidate) {
  uint64_t current = slot->load(std::memory_order_relaxed);
  while (candidate < current &&
         !slot->compare_exchange_weak(current, candidate,
                                      std::memory_order_relaxed)) {
  }
}

/// Blocked parallel in-place inclusive prefix sum. Integer additions are
/// associative, so any chunk layout produces the same offsets.
void ParallelInclusivePrefixSum(std::vector<uint64_t>* values) {
  const uint64_t n = values->size();
  constexpr uint64_t kMinPerChunk = uint64_t{1} << 15;
  const uint64_t threads = static_cast<uint64_t>(DefaultThreadCount());
  const uint64_t chunks =
      std::min<uint64_t>(threads, std::max<uint64_t>(1, n / kMinPerChunk));
  if (chunks <= 1) {
    for (uint64_t i = 1; i < n; ++i) (*values)[i] += (*values)[i - 1];
    return;
  }
  std::vector<uint64_t> bounds(chunks + 1);
  for (uint64_t c = 0; c <= chunks; ++c) bounds[c] = n * c / chunks;
  std::vector<uint64_t> chunk_totals(chunks, 0);
  ParallelForEach(
      0, chunks,
      [&](uint64_t c) {
        uint64_t* data = values->data();
        for (uint64_t i = bounds[c] + 1; i < bounds[c + 1]; ++i) {
          data[i] += data[i - 1];
        }
        chunk_totals[c] = data[bounds[c + 1] - 1];
      },
      0, /*grain=*/1);
  std::vector<uint64_t> chunk_offsets(chunks, 0);
  for (uint64_t c = 1; c < chunks; ++c) {
    chunk_offsets[c] = chunk_offsets[c - 1] + chunk_totals[c - 1];
  }
  ParallelForEach(
      1, chunks,
      [&](uint64_t c) {
        uint64_t* data = values->data();
        for (uint64_t i = bounds[c]; i < bounds[c + 1]; ++i) {
          data[i] += chunk_offsets[c];
        }
      },
      0, /*grain=*/1);
}

}  // namespace

StatusOr<Graph> Graph::FromEdges(NodeId num_nodes, std::vector<Edge> edges) {
  const uint64_t m = edges.size();

  // Validate endpoints / self-loops and canonicalize (u <= v) in parallel,
  // tracking the lowest offending index so the reported error matches what a
  // serial scan would find first.
  std::atomic<uint64_t> first_bad{kNone};
  ParallelFor(0, m, [&](uint64_t begin, uint64_t end) {
    uint64_t local_bad = kNone;
    for (uint64_t i = begin; i < end; ++i) {
      Edge& e = edges[i];
      if (e.u >= num_nodes || e.v >= num_nodes || e.u == e.v) {
        local_bad = i;
        break;
      }
      if (e.u > e.v) std::swap(e.u, e.v);
    }
    if (local_bad != kNone) AtomicMinIndex(&first_bad, local_bad);
  });
  if (first_bad.load(std::memory_order_relaxed) != kNone) {
    const Edge& e = edges[first_bad.load(std::memory_order_relaxed)];
    if (e.u >= num_nodes || e.v >= num_nodes) {
      return Status::InvalidArgument(StrFormat(
          "edge (%u, %u) has endpoint outside [0, %u)", e.u, e.v, num_nodes));
    }
    return Status::InvalidArgument(
        StrFormat("self-loop at node %u; simple graphs only", e.u));
  }

  // Input that is already strictly ascending (kept pairs, live-edge walks,
  // subgraphs of ascending ids) is sorted and duplicate-free as given: skip
  // the sort and the duplicate scan. Anything else takes the general path,
  // so errors and their first offenders are unchanged.
  std::atomic<bool> unsorted{false};
  ParallelFor(1, m, [&](uint64_t begin, uint64_t end) {
    if (unsorted.load(std::memory_order_relaxed)) return;
    for (uint64_t i = begin; i < end; ++i) {
      if (!(edges[i - 1] < edges[i])) {
        unsorted.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  if (!unsorted.load(std::memory_order_relaxed)) {
    return Graph(num_nodes, std::move(edges));
  }

  ParallelSort(edges.begin(), edges.end());

  // Duplicate detection: each pair of adjacent equal edges is visible from
  // the second element, so a parallel scan over [1, m) finds them all.
  std::atomic<uint64_t> first_dup{kNone};
  ParallelFor(1, m, [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      if (edges[i - 1] == edges[i]) {
        AtomicMinIndex(&first_dup, i);
        break;
      }
    }
  });
  if (first_dup.load(std::memory_order_relaxed) != kNone) {
    const Edge& e = edges[first_dup.load(std::memory_order_relaxed)];
    return Status::InvalidArgument(
        StrFormat("duplicate edge (%u, %u)", e.u, e.v));
  }
  return Graph(num_nodes, std::move(edges));
}

Graph::Graph(NodeId num_nodes, std::vector<Edge> edges)
    : edges_(std::move(edges)) {
  // Degree count: relaxed atomic increments are safe (counts are integers,
  // so the accumulation order cannot change the result).
  offsets_.assign(static_cast<size_t>(num_nodes) + 1, 0);
  ParallelFor(0, edges_.size(), [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      const Edge& e = edges_[i];
      std::atomic_ref<uint64_t>(offsets_[e.u + 1])
          .fetch_add(1, std::memory_order_relaxed);
      std::atomic_ref<uint64_t>(offsets_[e.v + 1])
          .fetch_add(1, std::memory_order_relaxed);
    }
  });
  ParallelInclusivePrefixSum(&offsets_);

  // Adjacency fill stays serial: the cursor walk writes each slot exactly
  // once in edge-id order, which is what makes every adjacency list come out
  // sorted (and deterministic) without an extra per-node sort pass.
  adjacency_.resize(2 * edges_.size());
  incident_.resize(2 * edges_.size());
  std::vector<uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (EdgeId id = 0; id < edges_.size(); ++id) {
    const Edge& e = edges_[id];
    adjacency_[cursor[e.u]] = e.v;
    incident_[cursor[e.u]++] = id;
    adjacency_[cursor[e.v]] = e.u;
    incident_[cursor[e.v]++] = id;
  }
  // Edges were sorted by (u, v); the u-side adjacency is already ascending,
  // but the v-side entries arrive in u-order which is also ascending per
  // vertex, so each adjacency list is sorted without an extra pass. Verify
  // in debug builds.
#ifndef NDEBUG
  for (NodeId u = 0; u < num_nodes; ++u) {
    auto nbrs = Neighbors(u);
    EDGESHED_DCHECK(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
#endif
}

namespace {

/// Shared validation for adopted CSR storage (mapped or owned). The O(n)
/// shape checks always run; the O(n + m) content sweep (endpoint bounds,
/// adjacency sortedness, incident/edge agreement) runs when `deep` is set
/// and is parallelized — adopting a snapshot must stay far cheaper than
/// rebuilding it.
Status ValidateCsr(std::span<const uint64_t> offsets,
                   std::span<const NodeId> adjacency,
                   std::span<const EdgeId> incident,
                   std::span<const Edge> edges, bool deep) {
  if (offsets.empty()) {
    if (adjacency.empty() && incident.empty() && edges.empty()) {
      return Status::OK();  // the empty graph
    }
    return Status::InvalidArgument("csr: missing offsets section");
  }
  const uint64_t n = offsets.size() - 1;
  const uint64_t m = edges.size();
  if (n > static_cast<uint64_t>(kInvalidNode)) {
    return Status::InvalidArgument("csr: node count exceeds NodeId range");
  }
  if (offsets.front() != 0) {
    return Status::InvalidArgument("csr: offsets[0] != 0");
  }
  if (offsets.back() != adjacency.size() || adjacency.size() != 2 * m ||
      incident.size() != 2 * m) {
    return Status::InvalidArgument(
        "csr: section sizes disagree (offsets/adjacency/incident/edges)");
  }
  std::atomic<bool> bad_shape{false};
  ParallelFor(0, n, [&](uint64_t begin, uint64_t end) {
    for (uint64_t u = begin; u < end; ++u) {
      if (offsets[u] > offsets[u + 1]) {
        bad_shape.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  if (bad_shape.load()) {
    return Status::InvalidArgument("csr: offsets not monotone");
  }
  if (!deep) return Status::OK();

  std::atomic<bool> bad_content{false};
  ParallelFor(0, n, [&](uint64_t begin, uint64_t end) {
    for (uint64_t u = begin; u < end && !bad_content.load(
                                            std::memory_order_relaxed);
         ++u) {
      NodeId prev = kInvalidNode;
      for (uint64_t slot = offsets[u]; slot < offsets[u + 1]; ++slot) {
        const NodeId nbr = adjacency[slot];
        const EdgeId id = incident[slot];
        if (nbr >= n || nbr == u || id >= m ||
            (prev != kInvalidNode && nbr <= prev)) {
          bad_content.store(true, std::memory_order_relaxed);
          return;
        }
        const Edge& e = edges[id];
        const NodeId lo = u < nbr ? static_cast<NodeId>(u) : nbr;
        const NodeId hi = u < nbr ? nbr : static_cast<NodeId>(u);
        if (e.u != lo || e.v != hi) {
          bad_content.store(true, std::memory_order_relaxed);
          return;
        }
        prev = nbr;
      }
    }
  });
  // The canonical edge list itself must be canonical and in bounds; the
  // adjacency sweep only touches edges that some slot references.
  ParallelFor(0, m, [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      const Edge& e = edges[i];
      if (e.u > e.v || e.v >= n || e.u == e.v) {
        bad_content.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  if (bad_content.load()) {
    return Status::InvalidArgument(
        "csr: content check failed (endpoints, adjacency order, or "
        "incident/edge disagreement)");
  }
  return Status::OK();
}

}  // namespace

StatusOr<Graph> Graph::FromCsrView(CsrView view, bool deep_validation) {
  EDGESHED_RETURN_IF_ERROR(ValidateCsr(view.offsets, view.adjacency,
                                       view.incident, view.edges,
                                       deep_validation));
  Graph g;
  g.mapped_ = std::make_shared<const CsrView>(std::move(view));
  return g;
}

StatusOr<Graph> Graph::FromCsrParts(std::vector<uint64_t> offsets,
                                    std::vector<NodeId> adjacency,
                                    std::vector<EdgeId> incident,
                                    std::vector<Edge> edges,
                                    bool deep_validation) {
  EDGESHED_RETURN_IF_ERROR(ValidateCsr(offsets, adjacency, incident, edges,
                                       deep_validation));
  Graph g;
  g.offsets_ = std::move(offsets);
  g.adjacency_ = std::move(adjacency);
  g.incident_ = std::move(incident);
  g.edges_ = std::move(edges);
  return g;
}

uint64_t Graph::HeapBytes() const {
  if (mapped_ != nullptr) return sizeof(CsrView);
  return offsets_.capacity() * sizeof(uint64_t) +
         adjacency_.capacity() * sizeof(NodeId) +
         incident_.capacity() * sizeof(EdgeId) +
         edges_.capacity() * sizeof(Edge);
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  return FindEdge(u, v) != kInvalidEdge;
}

EdgeId Graph::FindEdge(NodeId u, NodeId v) const {
  if (u >= NumNodes() || v >= NumNodes() || u == v) return kInvalidEdge;
  if (Degree(u) > Degree(v)) std::swap(u, v);
  auto nbrs = Neighbors(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return kInvalidEdge;
  return IncidentEdges(u)[static_cast<size_t>(it - nbrs.begin())];
}

Graph SubgraphFromEdgeIds(const Graph& parent,
                          const std::vector<EdgeId>& edge_ids) {
  std::vector<Edge> kept;
  kept.reserve(edge_ids.size());
  for (EdgeId id : edge_ids) {
    EDGESHED_CHECK_LT(id, parent.NumEdges());
    kept.push_back(parent.edge(id));
  }
  auto result = Graph::FromEdges(static_cast<NodeId>(parent.NumNodes()),
                                 std::move(kept));
  // Parent edges are unique, so a subset cannot introduce duplicates unless
  // the caller passed repeated ids — a programming error.
  EDGESHED_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

}  // namespace edgeshed::graph
