#include "core/crr.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/parallel.h"
#include "common/radix_sort.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/discrepancy.h"

namespace edgeshed::core {

namespace {

/// Phase-2 working entry: an edge id with its endpoints cached flat, so each
/// swap attempt touches one 16-byte record instead of chasing the id into
/// the graph's edge array (a guaranteed cache miss per draw on big graphs).
struct CachedEdge {
  graph::EdgeId id;
  graph::NodeId u;
  graph::NodeId v;
};

std::vector<CachedEdge> CacheEndpoints(const graph::Graph& g,
                                       const graph::EdgeId* ids,
                                       uint64_t count) {
  std::vector<CachedEdge> cached(count);
  ParallelFor(0, count, [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      const graph::Edge& e = g.edge(ids[i]);
      cached[i] = CachedEdge{ids[i], e.u, e.v};
    }
  });
  return cached;
}

}  // namespace

uint64_t Crr::StepsFor(const graph::Graph& g, double p) const {
  if (options_.steps_override.has_value()) return *options_.steps_override;
  const double kP = p * static_cast<double>(g.NumEdges());
  const double steps = options_.steps_multiplier * kP;
  return steps <= 0.0 ? 0 : static_cast<uint64_t>(std::llround(steps));
}

StatusOr<SheddingResult> Crr::Shed(const graph::Graph& g,
                                   const ShedOptions& shed_options) const {
  const double p = shed_options.p;
  const CancellationToken* cancel = shed_options.cancel;
  EDGESHED_RETURN_IF_ERROR(ValidatePreservationRatio(p));
  Stopwatch total_watch;
  SheddingResult result;
  const uint64_t num_edges = g.NumEdges();
  const uint64_t target = TargetEdgeCount(g, p);
  Rng rng(shed_options.seed.value_or(options_.seed));

  // ---- Phase 1: rank edges and keep the top round(p|E|). ----
  Stopwatch phase1_watch;
  double betweenness_seconds = 0.0;
  std::vector<graph::EdgeId> ranked;
  if (options_.init_mode == CrrOptions::InitMode::kBetweenness) {
    analytics::BetweennessOptions betweenness = options_.betweenness;
    betweenness.cancel = cancel;
    if (shed_options.threads > 0) betweenness.threads = shed_options.threads;
    if (shed_options.rank_provider != nullptr) {
      StatusOr<EdgeRanking> ranking = shed_options.rank_provider(g, betweenness);
      if (!ranking.ok()) return ranking.status();
      if (ranking->ids.size() != num_edges) {
        return Status::Internal(
            "rank provider returned a ranking of the wrong size");
      }
      ranked = std::move(ranking->ids);
      betweenness_seconds = ranking->seconds;
    } else {
      Stopwatch betweenness_watch;
      ranked = analytics::EdgesByBetweennessDescending(g, betweenness);
      betweenness_seconds = betweenness_watch.ElapsedSeconds();
    }
  } else {
    ranked.resize(num_edges);
    std::iota(ranked.begin(), ranked.end(), graph::EdgeId{0});
    rng.Shuffle(&ranked);
  }
  if (CancellationRequested(cancel)) return cancel->ToStatus();
  std::vector<CachedEdge> kept = CacheEndpoints(g, ranked.data(), target);
  std::vector<CachedEdge> excluded =
      CacheEndpoints(g, ranked.data() + target, num_edges - target);
  const double phase1_seconds = phase1_watch.ElapsedSeconds();

  DegreeDiscrepancy discrepancy(g, p);
  for (const CachedEdge& e : kept) {
    discrepancy.AddEdge(e.u, e.v);
  }

  // ---- Phase 2: random swap attempts between E' and E \ E'. ----
  Stopwatch phase2_watch;
  const uint64_t steps = StepsFor(g, p);
  uint64_t accepted = 0;
  // Poll the token once per 4096 swap attempts: a single predictable branch
  // amortized over thousands of draws, so the loop stays branch-cheap and
  // the swap sequence is bit-identical whenever the token never trips.
  constexpr uint64_t kCancelCheckMask = 4096 - 1;
  if (!kept.empty() && !excluded.empty()) {
    for (uint64_t step = 0; step < steps; ++step) {
      if ((step & kCancelCheckMask) == 0 && CancellationRequested(cancel)) {
        return cancel->ToStatus();
      }
      const size_t kept_index = rng.UniformIndex(kept.size());
      const size_t excluded_index = rng.UniformIndex(excluded.size());
      const CachedEdge removal = kept[kept_index];
      const CachedEdge addition = excluded[excluded_index];

      // d1, d2 exactly as Algorithm 1 lines 10-11: both evaluated against
      // the current state. (When the two edges share an endpoint the true
      // combined change can differ; the paper's acceptance test — which we
      // follow — ignores that interaction, while our Δ bookkeeping below
      // applies the two operations sequentially and stays exact.)
      const double d1 = discrepancy.RemovalDelta(removal.u, removal.v);
      const double d2 = discrepancy.AdditionDelta(addition.u, addition.v);
      const double combined = d1 + d2;
      const bool accept = options_.accept_zero_delta_swaps
                              ? combined <= 0.0
                              : combined < 0.0;
      if (!accept) continue;
      discrepancy.RemoveEdge(removal.u, removal.v);
      discrepancy.AddEdge(addition.u, addition.v);
      std::swap(kept[kept_index], excluded[excluded_index]);
      ++accepted;
    }
  }
  const double phase2_seconds = phase2_watch.ElapsedSeconds();

  result.kept_edges.resize(kept.size());
  for (size_t i = 0; i < kept.size(); ++i) result.kept_edges[i] = kept[i].id;
  RadixSortWords(&result.kept_edges);
  result.total_delta = discrepancy.TotalDelta();
  result.average_delta = discrepancy.AverageDelta();
  result.reduction_seconds = total_watch.ElapsedSeconds();
  result.stats = {
      {"phase1_seconds", phase1_seconds},
      {"phase2_seconds", phase2_seconds},
      {"betweenness_seconds", betweenness_seconds},
      {"steps", static_cast<double>(steps)},
      {"swaps_accepted", static_cast<double>(accepted)},
  };
  return result;
}

}  // namespace edgeshed::core
