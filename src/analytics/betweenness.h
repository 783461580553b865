#ifndef EDGESHED_ANALYTICS_BETWEENNESS_H_
#define EDGESHED_ANALYTICS_BETWEENNESS_H_

#include <cstdint>
#include <vector>

#include "common/cancellation.h"
#include "graph/graph.h"

namespace edgeshed::analytics {

/// Controls for Brandes betweenness centrality.
struct BetweennessOptions {
  /// Run the exact algorithm (every vertex a source) when |V| <= this.
  /// Above it, uniformly sampled sources are used with unbiased rescaling —
  /// the laptop-scale substitution documented in DESIGN.md §3.
  uint64_t exact_node_threshold = uint64_t{1} << 14;
  /// Number of source pivots when sampling.
  uint64_t sample_sources = 256;
  /// Seed for pivot sampling.
  uint64_t seed = 13;
  /// Worker threads (0 = DefaultThreadCount()).
  int threads = 0;
  /// Optional cooperative cancellation, polled once per BFS *level* inside
  /// every sweep, so even a single sweep on a large graph aborts within
  /// milliseconds of a trip. When it trips, the returned scores are
  /// meaningless — the caller must check the token and discard them.
  const CancellationToken* cancel = nullptr;

  /// Which per-source sweep kernel to run. Both are level-synchronous with
  /// canonically ordered (ascending vertex id) frontiers, which makes their
  /// floating-point accumulation sequences — and therefore their scores —
  /// bit-identical to each other (DESIGN.md §12).
  ///  * kClassic: top-down push on every level, both directions of the sweep.
  ///  * kHybrid: direction-optimizing — a level is processed bottom-up (pull
  ///    over the still-unvisited candidates / the previous level) whenever
  ///    that side's summed degree is the cheaper one to scan.
  enum class Kernel { kClassic, kHybrid };
  Kernel kernel = Kernel::kHybrid;
  /// Hybrid switch threshold: a forward level goes bottom-up when
  /// deg(frontier) > hybrid_alpha * deg(unvisited). 1.0 is the break-even
  /// cost model (betweenness pulls cannot early-exit, so unlike plain BFS
  /// there is no asymmetry factor to bake in).
  double hybrid_alpha = 1.0;

  /// Adaptive pivot scheduling (sampled mode only). When wave_size > 0 the
  /// sampled sources are processed in fixed consecutive waves of this size
  /// and the run stops early once the top-k edge *ranking* — what CRR
  /// Phase 1 consumes — stabilizes between consecutive waves. The wave
  /// schedule and the stop decision depend only on the options and the
  /// deterministic merged partials, never on the thread count, so scores
  /// stay bit-identical for every EDGESHED_THREADS value. 0 = single pass.
  uint64_t wave_size = 0;
  /// Stop once |top-k(wave i) ∩ top-k(wave i-1)| / k >= this. Values > 1
  /// never stop early (useful for testing wave bookkeeping).
  double wave_stability = 0.95;
  /// k for the stability check; 0 = auto (|E|/2, at least 256) — the slice a
  /// balanced (p = 0.5) CRR reduction consumes from the ranking. Smaller k
  /// watches a more elite slice and stops later; larger k stops sooner.
  uint64_t wave_top_k = 0;

  /// Forces exact computation regardless of size.
  static BetweennessOptions Exact() {
    BetweennessOptions options;
    options.exact_node_threshold = static_cast<uint64_t>(-1);
    return options;
  }

  /// The ranking fast path: hybrid kernel plus adaptive pivot waves. This is
  /// what CRR Phase 1 runs by default (DESIGN.md §12).
  static BetweennessOptions FastRanking() {
    BetweennessOptions options;
    options.kernel = Kernel::kHybrid;
    options.wave_size = 8;
    options.wave_stability = 0.85;
    return options;
  }
};

/// Node and edge betweenness centrality, computed together in one Brandes
/// pass (Brandes 2001: O(|V||E|) time, O(|V|+|E|) space per source).
///
/// Convention: scores count each unordered (s,t) pair once (the directed
/// double-count is halved). Sampled mode rescales by |V|/sources so values
/// estimate the exact ones; rankings — which is what both CRR and the
/// paper's Fig. 8 consume — converge quickly.
///
/// Determinism: per-source sweeps accumulate into a fixed number of striped
/// partials whose layout depends only on the source count, partials are
/// merged in a fixed order, and the adaptive-wave stop decision is computed
/// from deterministically merged partials, so scores are bit-identical for
/// every thread count (DESIGN.md "Parallel hot path", §12). The classic and
/// hybrid kernels share one canonical accumulation order and are
/// bit-identical to each other.
struct BetweennessScores {
  std::vector<double> node;  // indexed by NodeId
  std::vector<double> edge;  // indexed by EdgeId
  /// Source sweeps actually executed (== the source count unless an
  /// adaptive-wave run stopped early).
  uint64_t sources_processed = 0;
  /// Waves executed; 1 for non-wave runs on non-empty graphs.
  uint64_t waves = 0;
};

BetweennessScores Betweenness(const graph::Graph& g,
                              const BetweennessOptions& options = {});

/// Edge ids of `g` sorted by non-increasing betweenness, ties by ascending
/// edge id: the unique (score desc, id asc) order of the scores
/// Betweenness(g, options) returns, so identical for every thread count.
/// This is CRR Phase 1's ranking. Built by a stable radix sort over packed
/// score keys (DESIGN.md §12, "Ranking order"); node scores are never
/// merged. When options.cancel trips the ids are meaningless and the caller
/// must discard them.
std::vector<graph::EdgeId> EdgesByBetweennessDescending(
    const graph::Graph& g, const BetweennessOptions& options = {});

/// An edge's ranking key (DescendingScoreKey of its score) and its id.
struct KeyedEdge {
  uint64_t key;
  graph::EdgeId id;
};

/// The final step of EdgesByBetweennessDescending: sorts `keyed` stably by
/// key (StableRadixSort on up to `threads` threads, 0 = default) and
/// returns the ids in that order. Given in ascending id order, the pairs
/// come out in (key asc, id asc) order.
std::vector<graph::EdgeId> EdgeIdsByKey(std::vector<KeyedEdge>* keyed,
                                        int threads = 0);

/// Order-preserving 64-bit key of a non-negative score (betweenness is
/// never negative): a higher score gets a smaller key and equal scores
/// (0.0 and -0.0 included) get equal keys, so ascending (key, id) order is
/// the (score desc, id asc) ranking order.
uint64_t DescendingScoreKey(double score);

/// Sets `top` to a bitmap over keys.size() edges (bit e of word e/64) that
/// marks the min(k, keys.size()) edges first in ascending (key, id) order:
/// the top-k of the ranking, with ties at the threshold going to the lowest
/// ids. The adaptive-wave stop check compares consecutive waves with it.
/// The first selection level and the marking scan run on up to `threads`
/// threads (0 = DefaultThreadCount()); the bitmap is the same at every
/// thread count.
void MarkTopKEdges(const std::vector<uint64_t>& keys, uint64_t k,
                   std::vector<uint64_t>* top, int threads = 0);

}  // namespace edgeshed::analytics

#endif  // EDGESHED_ANALYTICS_BETWEENNESS_H_
