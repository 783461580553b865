#include "graph/graph.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "common/parallel.h"
#include "common/radix_sort.h"
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
  // A stable counting scatter. Each chunk of the edge list counts how often
  // every vertex appears in it, and then writes its slots behind those of
  // the chunks before it, so each vertex's slots come out in edge-id order,
  // as one walk over the whole list would write them, at any chunk count.
  // Edges sorted by (u, v) reach a vertex first from its lower neighbors
  // (as v, ascending u) and then from its higher ones (as u, ascending v),
  // so that order is ascending by neighbor: every adjacency list is sorted
  // without a per-vertex sort. The list is split only into chunks of at
  // least 2n edges (RadixChunkCount), so the per-chunk counts stay smaller
  // than the slots they place.
  const uint64_t n = num_nodes;
  const uint64_t m = edges_.size();
  const int threads = DefaultThreadCount();
  const size_t chunks = RadixChunkCount(m, n, threads);
  // Chunk c's count of vertex x at [c * n + x]; then, per vertex, the slots
  // the chunks before c fill; then, during the scatter, the next free slot.
  // Per-vertex counts fit in 32 bits: a degree is below n.
  const auto placed = std::make_unique_for_overwrite<uint32_t[]>(chunks * n);
  ParallelForEach(
      0, chunks,
      [&](uint64_t c) {
        uint32_t* count = placed.get() + c * n;
        std::fill(count, count + n, 0);
        const Edge* edge = edges_.data();
        const uint64_t end = RadixChunkBegin(m, chunks, c + 1);
        for (uint64_t id = RadixChunkBegin(m, chunks, c); id < end; ++id) {
          ++count[edge[id].u];
          ++count[edge[id].v];
        }
      },
      threads, /*grain=*/1);
  offsets_.resize(n + 1);
  ParallelFor(
      0, n,
      [&](uint64_t begin, uint64_t end) {
        for (uint64_t x = begin; x < end; ++x) {
          uint32_t degree = 0;
          for (size_t c = 0; c < chunks; ++c) {
            const uint32_t count = placed[c * n + x];
            placed[c * n + x] = degree;
            degree += count;
          }
          offsets_[x + 1] = degree;
        }
      },
      threads);
  ParallelInclusivePrefixSum(&offsets_);

  adjacency_.resize(2 * m);
  incident_.resize(2 * m);
  ParallelForEach(
      0, chunks,
      [&](uint64_t c) {
        uint32_t* next = placed.get() + c * n;
        const uint64_t* offsets = offsets_.data();
        NodeId* adjacency = adjacency_.data();
        EdgeId* incident = incident_.data();
        const Edge* edge = edges_.data();
        const uint64_t end = RadixChunkBegin(m, chunks, c + 1);
        for (uint64_t id = RadixChunkBegin(m, chunks, c); id < end; ++id) {
          const Edge e = edge[id];
          const uint64_t at_u = offsets[e.u] + next[e.u]++;
          adjacency[at_u] = e.v;
          incident[at_u] = id;
          const uint64_t at_v = offsets[e.v] + next[e.v]++;
          adjacency[at_v] = e.u;
          incident[at_v] = id;
        }
      },
      threads, /*grain=*/1);
#ifndef NDEBUG
  for (NodeId u = 0; u < num_nodes; ++u) {
    auto nbrs = Neighbors(u);
    EDGESHED_DCHECK(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
#endif
}

namespace {

/// ValidateCsr's per-slot content checks over slots [begin, end), whose
/// list starts with vertex `u`. `window` holds slots [first, end): first is
/// begin - 1 when begin falls inside u's list, so the window carries the
/// neighbor that begin's must exceed.
bool SlotsValid(std::span<const uint64_t> offsets, std::span<const Edge> edges,
                uint64_t u, uint64_t first, uint64_t begin, uint64_t end,
                const CsrSlotWindow& window) {
  const uint64_t n = offsets.size() - 1;
  const uint64_t m = edges.size();
  // A vertex's slots for its lower neighbors name edges all over the list;
  // fetch each slot's edge this many slots ahead.
  constexpr uint64_t kLookahead = 16;
  NodeId prev = first < begin ? window.adjacency[0] : kInvalidNode;
  for (uint64_t i = begin - first; i < end - first; ++i) {
    if (i + kLookahead < end - first) {
      __builtin_prefetch(edges.data() + std::min<uint64_t>(
                                            window.incident[i + kLookahead],
                                            m - 1));
    }
    while (first + i == offsets[u + 1]) {
      ++u;
      prev = kInvalidNode;
    }
    const NodeId nbr = window.adjacency[i];
    const EdgeId id = window.incident[i];
    if (nbr >= n || nbr == u || id >= m ||
        (prev != kInvalidNode && nbr <= prev)) {
      return false;
    }
    const Edge& e = edges[id];
    const NodeId lo = u < nbr ? static_cast<NodeId>(u) : nbr;
    const NodeId hi = u < nbr ? nbr : static_cast<NodeId>(u);
    if (e.u != lo || e.v != hi) return false;
    prev = nbr;
  }
  return true;
}

}  // namespace

Status ValidateCsr(std::span<const uint64_t> offsets, uint64_t adjacency_size,
                   uint64_t incident_size, std::span<const Edge> edges,
                   const CsrSlotReader* slots, int threads) {
  if (offsets.empty()) {
    if (adjacency_size == 0 && incident_size == 0 && edges.empty()) {
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
  if (offsets.back() != adjacency_size || adjacency_size != 2 * m ||
      incident_size != 2 * m) {
    return Status::InvalidArgument(
        "csr: section sizes disagree (offsets/adjacency/incident/edges)");
  }
  std::atomic<bool> bad_shape{false};
  ParallelFor(
      0, n,
      [&](uint64_t begin, uint64_t end) {
        for (uint64_t u = begin; u < end; ++u) {
          if (offsets[u] > offsets[u + 1]) {
            bad_shape.store(true, std::memory_order_relaxed);
            return;
          }
        }
      },
      threads);
  if (bad_shape.load()) {
    return Status::InvalidArgument("csr: offsets not monotone");
  }
  if (slots == nullptr) return Status::OK();

  const Status content_error = Status::InvalidArgument(
      "csr: content check failed (endpoints, adjacency order, or "
      "incident/edge disagreement)");
  // The canonical edge list itself must be canonical and in bounds; the
  // slot windows only touch edges that some slot references.
  std::atomic<bool> bad_edge{false};
  ParallelFor(
      0, m,
      [&](uint64_t begin, uint64_t end) {
        for (uint64_t i = begin; i < end; ++i) {
          const Edge& e = edges[i];
          if (e.u > e.v || e.v >= n || e.u == e.v) {
            bad_edge.store(true, std::memory_order_relaxed);
            return;
          }
        }
      },
      threads);
  if (bad_edge.load()) return content_error;

  // Slot windows, pulled in ascending order by one worker per thread, each
  // with its own reusable window. A failed window stops every worker from
  // starting a later one, and every earlier window still runs, so the
  // lowest failing window's status is the one returned.
  if (threads <= 0) threads = DefaultThreadCount();
  const uint64_t windows =
      (adjacency_size + kCsrWindowSlots - 1) / kCsrWindowSlots;
  std::atomic<uint64_t> next_window{0};
  std::atomic<uint64_t> failed_window{windows};
  std::mutex failure_mu;
  Status failure;
  ParallelForEach(
      0, std::min<uint64_t>(static_cast<uint64_t>(threads), windows),
      [&](uint64_t) {
        CsrSlotWindow window;
        for (;;) {
          const uint64_t w = next_window.fetch_add(1, std::memory_order_relaxed);
          if (w >= windows || w > failed_window.load(std::memory_order_relaxed)) {
            return;
          }
          const uint64_t begin = w * kCsrWindowSlots;
          const uint64_t end =
              std::min<uint64_t>(begin + kCsrWindowSlots, adjacency_size);
          // The vertex whose list holds slot `begin`.
          const uint64_t u = static_cast<uint64_t>(
              std::upper_bound(offsets.begin(), offsets.end(), begin) -
              offsets.begin() - 1);
          const uint64_t first = begin > offsets[u] ? begin - 1 : begin;
          Status status = (*slots)(first, end, &window);
          if (status.ok() &&
              !SlotsValid(offsets, edges, u, first, begin, end, window)) {
            status = content_error;
          }
          if (!status.ok()) {
            std::lock_guard<std::mutex> lock(failure_mu);
            if (w < failed_window.load(std::memory_order_relaxed)) {
              failed_window.store(w, std::memory_order_relaxed);
              failure = std::move(status);
            }
            return;
          }
        }
      },
      threads, /*grain=*/1);
  return failure;
}

StatusOr<Graph> Graph::FromCsrView(CsrView view) {
  EDGESHED_RETURN_IF_ERROR(ValidateCsr(view.offsets, view.adjacency.size(),
                                       view.incident.size(), view.edges,
                                       /*slots=*/nullptr));
  Graph g;
  g.mapped_ = std::make_shared<const CsrView>(std::move(view));
  return g;
}

StatusOr<Graph> Graph::FromCsrParts(std::vector<uint64_t> offsets,
                                    std::vector<NodeId> adjacency,
                                    std::vector<EdgeId> incident,
                                    std::vector<Edge> edges) {
  EDGESHED_RETURN_IF_ERROR(ValidateCsr(offsets, adjacency.size(),
                                       incident.size(), edges,
                                       /*slots=*/nullptr));
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
