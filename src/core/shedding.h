#ifndef EDGESHED_CORE_SHEDDING_H_
#define EDGESHED_CORE_SHEDDING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analytics/betweenness.h"
#include "common/cancellation.h"
#include "common/statusor.h"
#include "graph/graph.h"

namespace edgeshed::core {

/// Output of an edge-shedding run.
struct SheddingResult {
  /// EdgeIds of the parent graph retained in the reduced graph E'.
  std::vector<graph::EdgeId> kept_edges;
  /// Final total degree discrepancy Δ (Eq. 4).
  double total_delta = 0.0;
  /// Δ / |V| — the paper's "Average delta" quality metric.
  double average_delta = 0.0;
  /// Wall-clock seconds spent reducing.
  double reduction_seconds = 0.0;
  /// Free-form per-algorithm counters (swaps accepted, phase timings, ...).
  std::vector<std::pair<std::string, double>> stats;

  /// Materializes G' = (V, E') over the parent's full vertex set.
  graph::Graph BuildReducedGraph(const graph::Graph& parent) const {
    return graph::SubgraphFromEdgeIds(parent, kept_edges);
  }
};

/// A Phase-1 edge ranking (every EdgeId of the graph, best first), plus
/// provenance: whether the provider computed it on this call and how long
/// that took. A caching provider returns `computed = false` and
/// `seconds = 0.0` exactly on a hit, so shedders can surface honest
/// per-phase timings (`betweenness_seconds` stays 0 for the job that reused
/// another job's ranking).
struct EdgeRanking {
  std::vector<graph::EdgeId> ids;
  bool computed = false;
  double seconds = 0.0;
};

/// Supplies a ranking for Phase 1 instead of the shedder computing one
/// inline — the hook the service layer uses to share one betweenness pass
/// across jobs (see service::RankCache). The options carry the shedder's
/// full estimator configuration including its cancellation token; a
/// provider must produce ids equivalent to
/// analytics::EdgesByBetweennessDescending(g, options) or fail.
using RankProvider = std::function<StatusOr<EdgeRanking>(
    const graph::Graph& g, const analytics::BetweennessOptions& options)>;

/// Per-call knobs shared by every shedder, so the cancellation token, thread
/// count, and seed do not have to be threaded through each kernel signature
/// individually. Field-by-field:
///  * `p` — the preservation ratio in (0,1); the reduced edge target is
///    TargetEdgeCount(g, p) for ratio-pinned methods.
///  * `cancel` — optional cooperative token, polled at coarse grain; a
///    tripped token surfaces as Status::Cancelled / Status::DeadlineExceeded
///    instead of a result (partial work is discarded). Runs are bit-identical
///    with and without a token as long as it never trips.
///  * `threads` — worker threads for parallelizable phases (CRR's
///    betweenness ranking); 0 keeps the library default. Results stay
///    bit-identical across thread counts.
///  * `seed` — overrides the shedder's configured seed for this call when
///    set; unset keeps the configured one.
///  * `rank_provider` — optional Phase-1 ranking source; null means the
///    shedder ranks inline. Only consulted by shedders whose Phase 1 is a
///    betweenness ranking (CRR); a provider that honors the contract above
///    keeps results bit-identical to inline ranking.
struct ShedOptions {
  double p = 0.5;
  const CancellationToken* cancel = nullptr;
  int threads = 0;
  std::optional<uint64_t> seed{};
  RankProvider rank_provider{};
};

/// Interface shared by all graph-reduction methods in this library (CRR,
/// BM2, random shedding, and the UDS baseline adapter), so the experiment
/// harness can sweep methods uniformly.
class EdgeShedder {
 public:
  virtual ~EdgeShedder() = default;

  /// Short stable identifier ("crr", "bm2", ...).
  virtual std::string name() const = 0;

  /// Produces a reduced edge set under `options` (ratio, cancellation,
  /// threads, seed override — see ShedOptions). Implementations must keep
  /// |kept_edges| deterministic given the effective seed.
  virtual StatusOr<SheddingResult> Shed(const graph::Graph& g,
                                        const ShedOptions& options) const = 0;
};

/// Validates a preservation ratio; shared by implementations. NaN and
/// values outside (0,1) are rejected with InvalidArgument.
Status ValidatePreservationRatio(double p);

/// round(p * |E|) — the paper's [P], the exact size of E' — clamped to at
/// least 1 on non-empty graphs so a tiny graph with a small valid p never
/// rounds down to an empty reduced edge set.
uint64_t TargetEdgeCount(uint64_t num_edges, double p);
inline uint64_t TargetEdgeCount(const graph::Graph& g, double p) {
  return TargetEdgeCount(g.NumEdges(), p);
}

}  // namespace edgeshed::core

#endif  // EDGESHED_CORE_SHEDDING_H_
