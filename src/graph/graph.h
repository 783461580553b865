#ifndef EDGESHED_GRAPH_GRAPH_H_
#define EDGESHED_GRAPH_GRAPH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/statusor.h"

namespace edgeshed::graph {

/// Vertex identifier: dense, 0-based.
using NodeId = uint32_t;
/// Edge identifier: index into the graph's canonical edge list.
using EdgeId = uint64_t;

constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

/// An undirected edge. Canonical form has u <= v; the Graph constructor
/// canonicalizes.
struct Edge {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.u == b.u && a.v == b.v;
  }
  friend bool operator<(const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  }
};

// Edges are serialized by memcpy into snapshots and adopted back by
// reinterpreting mapped bytes; the layout must stay two packed u32s.
static_assert(sizeof(Edge) == 2 * sizeof(NodeId) &&
                  std::is_trivially_copyable_v<Edge>,
              "Edge must stay a packed pair of NodeIds (snapshot ABI)");

/// Element-wise equality for edge-list views (found by ADL through Edge).
/// Graph::edges() returns a span, and call sites — tests above all — compare
/// whole edge lists for bit-identity.
inline bool operator==(std::span<const Edge> a, std::span<const Edge> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

/// Immutable simple undirected graph in CSR (compressed sparse row) form.
///
/// Design notes (see DESIGN.md §1):
///  * The node set is dense [0, NumNodes()); isolated vertices are legal —
///    reduced graphs keep the original vertex set and may have degree-0
///    nodes, exactly as in the paper's G' = (V, E').
///  * Every undirected edge {u,v} is stored once in `edges()` (u <= v) and
///    twice in the adjacency arrays (at u and at v). Each adjacency slot
///    also records the EdgeId, so edge-centric algorithms (edge betweenness,
///    shedding) can map a traversal step back to its undirected edge in O(1).
///  * Self-loops and duplicate edges are rejected at construction: the
///    paper's datasets and algorithms assume a simple graph.
///
/// Storage variants (DESIGN.md §14): a Graph either *owns* its CSR arrays
/// (the historical vector-backed mode, produced by FromEdges/GraphBuilder)
/// or *maps* them — read-only spans into a shared memory-mapped v3 snapshot
/// kept alive by a refcounted backing handle. Every accessor below works
/// identically on both; algorithms cannot tell the difference. Copying a
/// mapped Graph copies the (cheap) handle, not the pages, so N copies in a
/// process — or N processes on one box — share one physical CSR.
class Graph {
 public:
  /// Zero-copy CSR adoption input: spans over externally owned storage plus
  /// the handle that keeps that storage alive (typically a MappedFile).
  /// Produced by the v3 snapshot loader (graph/binary_io.h).
  struct CsrView {
    std::span<const uint64_t> offsets;   // size num_nodes + 1
    std::span<const NodeId> adjacency;   // size 2 * num_edges
    std::span<const EdgeId> incident;    // size 2 * num_edges
    std::span<const Edge> edges;         // size num_edges, canonical
    std::shared_ptr<const void> backing; // keeps the spans' storage alive
  };

  /// Builds a graph over `num_nodes` vertices from an arbitrary-order edge
  /// list. Returns InvalidArgument on self-loops, duplicates, or endpoints
  /// outside [0, num_nodes). Use GraphBuilder to clean raw data first.
  /// Input that is strictly ascending once canonicalized skips the sort.
  static StatusOr<Graph> FromEdges(NodeId num_nodes, std::vector<Edge> edges);

  /// Adopts pre-built CSR arrays without copying them (mmap zero-copy
  /// loads) after ValidateCsr's (below) O(n) shape checks. The O(n + m)
  /// content checks are the caller's: the snapshot loader runs them, with
  /// the chunk CRCs, before adopting. InvalidArgument on a shape violation.
  static StatusOr<Graph> FromCsrView(CsrView view);

  /// Owned-storage sibling of FromCsrView: adopts CSR vectors wholesale
  /// (snapshot copy loads) after the same shape checks.
  static StatusOr<Graph> FromCsrParts(std::vector<uint64_t> offsets,
                                      std::vector<NodeId> adjacency,
                                      std::vector<EdgeId> incident,
                                      std::vector<Edge> edges);

  /// Empty graph (0 nodes, 0 edges).
  Graph() = default;

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) noexcept = default;
  Graph& operator=(Graph&&) noexcept = default;

  uint64_t NumNodes() const {
    const auto offsets = OffsetsSpan();
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  uint64_t NumEdges() const { return EdgesSpan().size(); }

  uint64_t Degree(NodeId u) const {
    EDGESHED_DCHECK_LT(u, NumNodes());
    const auto offsets = OffsetsSpan();
    return offsets[u + 1] - offsets[u];
  }

  /// Neighbors of `u`, sorted ascending.
  std::span<const NodeId> Neighbors(NodeId u) const {
    EDGESHED_DCHECK_LT(u, NumNodes());
    const auto offsets = OffsetsSpan();
    return AdjacencySpan().subspan(offsets[u], offsets[u + 1] - offsets[u]);
  }

  /// EdgeIds incident to `u`, aligned with Neighbors(u): IncidentEdges(u)[i]
  /// is the undirected edge {u, Neighbors(u)[i]}.
  std::span<const EdgeId> IncidentEdges(NodeId u) const {
    EDGESHED_DCHECK_LT(u, NumNodes());
    const auto offsets = OffsetsSpan();
    return IncidentSpan().subspan(offsets[u], offsets[u + 1] - offsets[u]);
  }

  /// Canonical edge list; edges()[e] has u <= v.
  std::span<const Edge> edges() const { return EdgesSpan(); }
  const Edge& edge(EdgeId e) const {
    const auto edges = EdgesSpan();
    EDGESHED_DCHECK_LT(e, edges.size());
    return edges[e];
  }

  /// True iff {u, v} is an edge. O(log deg(u)) via binary search on the
  /// sorted adjacency of the lower-degree endpoint.
  bool HasEdge(NodeId u, NodeId v) const;

  /// EdgeId of {u, v}, or kInvalidEdge when absent.
  EdgeId FindEdge(NodeId u, NodeId v) const;

  /// Sum of all vertex degrees = 2|E|.
  uint64_t TotalDegree() const { return 2 * NumEdges(); }

  /// Average degree 2|E| / |V| (0 for the empty graph).
  double AverageDegree() const {
    return NumNodes() == 0 ? 0.0
                           : static_cast<double>(TotalDegree()) /
                                 static_cast<double>(NumNodes());
  }

  /// True when the CSR arrays live in a mapped snapshot rather than owned
  /// heap vectors.
  bool IsMapped() const { return mapped_ != nullptr; }

  /// Heap bytes owned by this Graph: the full CSR footprint for owned
  /// storage, ~0 for mapped storage (the pages belong to the shared file
  /// cache and are reclaimable/shared — see GraphStore::ApproxBytes).
  uint64_t HeapBytes() const;

  /// Raw CSR sections in serialization order. Snapshot writers
  /// (graph/binary_io.h) stream these verbatim; everyone else should use
  /// the structured accessors above.
  std::span<const uint64_t> RawOffsets() const { return OffsetsSpan(); }
  std::span<const NodeId> RawAdjacency() const { return AdjacencySpan(); }
  std::span<const EdgeId> RawIncident() const { return IncidentSpan(); }

 private:
  Graph(NodeId num_nodes, std::vector<Edge> edges);

  std::span<const uint64_t> OffsetsSpan() const {
    return mapped_ != nullptr ? mapped_->offsets
                              : std::span<const uint64_t>(offsets_);
  }
  std::span<const NodeId> AdjacencySpan() const {
    return mapped_ != nullptr ? mapped_->adjacency
                              : std::span<const NodeId>(adjacency_);
  }
  std::span<const EdgeId> IncidentSpan() const {
    return mapped_ != nullptr ? mapped_->incident
                              : std::span<const EdgeId>(incident_);
  }
  std::span<const Edge> EdgesSpan() const {
    return mapped_ != nullptr ? mapped_->edges
                              : std::span<const Edge>(edges_);
  }

  // Owned storage; all empty when mapped_ is set.
  std::vector<uint64_t> offsets_;   // size NumNodes()+1
  std::vector<NodeId> adjacency_;   // size 2*NumEdges()
  std::vector<EdgeId> incident_;    // size 2*NumEdges(), parallel to adjacency_
  std::vector<Edge> edges_;         // canonical (u <= v), size NumEdges()

  // Mapped storage: shared views into an externally owned (typically
  // memory-mapped) CSR. Copying a Graph shares this handle.
  std::shared_ptr<const CsrView> mapped_;
};

/// Slots ValidateCsr checks per window: a window reads at most this many
/// slots, plus the one before it when it starts inside a vertex's list. A
/// window read into buffers takes 192 KiB.
inline constexpr uint64_t kCsrWindowSlots = uint64_t{1} << 14;

/// One window of adjacency and incident entries, as a CsrSlotReader hands
/// it to ValidateCsr. Readers that hold the arrays in memory point the spans
/// into them; readers that do not fill the buffers (one window per worker,
/// reused for every window that worker takes) and point the spans there.
struct CsrSlotWindow {
  std::span<const NodeId> adjacency;
  std::span<const EdgeId> incident;
  std::unique_ptr<NodeId[]> adjacency_buffer;
  std::unique_ptr<EdgeId[]> incident_buffer;
};

/// Sets `window`'s spans to slots [begin, end) (at most kCsrWindowSlots + 1
/// of them). Called concurrently, each call with its own worker's window.
/// A non-OK status ends validation with it.
using CsrSlotReader =
    std::function<Status(uint64_t begin, uint64_t end, CsrSlotWindow* window)>;

/// The one CSR validator, behind Graph::FromCsrView, Graph::FromCsrParts
/// and the snapshot load's verification. The O(n) shape checks always
/// run: offsets start at 0, never decrease, and end at the adjacency size,
/// which is 2 * edges.size(), as is `incident_size`. With `slots` set it
/// also runs the O(n + m) content checks on up to `threads` threads (0 =
/// DefaultThreadCount()): every edge canonical and in range, and, over
/// windows of slots read through `slots`, every neighbor and edge id in
/// range, each vertex's neighbors strictly ascending (checked across window
/// edges too), and each slot's edge id naming the edge {vertex, neighbor}.
/// Shape and content violations are InvalidArgument; a reader error is
/// returned as is. When several windows fail, the lowest one's status is
/// returned.
Status ValidateCsr(std::span<const uint64_t> offsets, uint64_t adjacency_size,
                   uint64_t incident_size, std::span<const Edge> edges,
                   const CsrSlotReader* slots, int threads = 0);

/// Builds the subgraph of `parent` that keeps the whole vertex set and only
/// the edges in `edge_ids` (indices into parent.edges()). Duplicate ids are
/// a programming error. This is the paper's reduced graph G' = (V, E').
Graph SubgraphFromEdgeIds(const Graph& parent,
                          const std::vector<EdgeId>& edge_ids);

}  // namespace edgeshed::graph

#endif  // EDGESHED_GRAPH_GRAPH_H_
