#include "core/crr.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/parallel.h"
#include "common/radix_sort.h"
#include "common/stopwatch.h"

namespace edgeshed::core {

namespace {

std::vector<CrrSlot> CacheEndpoints(const graph::Graph& g,
                                    const std::vector<graph::EdgeId>& ids) {
  std::vector<CrrSlot> slots(ids.size());
  ParallelFor(0, ids.size(), [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      slots[i] = CrrSlot{ids[i], g.edge(ids[i])};
    }
  });
  return slots;
}

}  // namespace

uint64_t Crr::StepsFor(uint64_t num_edges, double p) const {
  if (options_.steps_override.has_value()) return *options_.steps_override;
  const double kP = p * static_cast<double>(num_edges);
  const double steps = options_.steps_multiplier * kP;
  return steps <= 0.0 ? 0 : static_cast<uint64_t>(std::llround(steps));
}

StatusOr<CrrRun> Crr::Run(const graph::Graph& g,
                          const ShedOptions& shed_options) const {
  const double p = shed_options.p;
  const CancellationToken* cancel = shed_options.cancel;
  EDGESHED_RETURN_IF_ERROR(ValidatePreservationRatio(p));
  const uint64_t num_edges = g.NumEdges();
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
  CrrRun run{CacheEndpoints(g, ranked), TargetEdgeCount(num_edges, p),
             DegreeDiscrepancy(g, p)};
  for (uint64_t i = 0; i < run.target; ++i) {
    run.discrepancy.AddEdge(run.slots[i].u(), run.slots[i].v());
  }
  run.phase1_seconds = phase1_watch.ElapsedSeconds();
  run.betweenness_seconds = betweenness_seconds;

  // ---- Phase 2: random swap attempts between E' and E \ E'. ----
  Stopwatch phase2_watch;
  run.steps = StepsFor(num_edges, p);
  EDGESHED_ASSIGN_OR_RETURN(
      run.swaps_accepted,
      RunSwapChain(&run.slots, run.target, run.steps, &rng,
                   options_.accept_zero_delta_swaps, &run.discrepancy, cancel,
                   [](CrrSlot& kept, CrrSlot& excluded) {
                     std::swap(kept, excluded);
                   }));
  run.phase2_seconds = phase2_watch.ElapsedSeconds();
  return run;
}

StatusOr<SheddingResult> Crr::Shed(const graph::Graph& g,
                                   const ShedOptions& shed_options) const {
  Stopwatch total_watch;
  EDGESHED_ASSIGN_OR_RETURN(CrrRun run, Run(g, shed_options));
  SheddingResult result;
  result.kept_edges.resize(run.target);
  for (uint64_t i = 0; i < run.target; ++i) {
    result.kept_edges[i] = run.slots[i].id;
  }
  RadixSortWords(&result.kept_edges, shed_options.threads);
  result.total_delta = run.discrepancy.TotalDelta();
  result.average_delta = run.discrepancy.AverageDelta();
  result.reduction_seconds = total_watch.ElapsedSeconds();
  result.stats = {
      {"phase1_seconds", run.phase1_seconds},
      {"phase2_seconds", run.phase2_seconds},
      {"betweenness_seconds", run.betweenness_seconds},
      {"steps", static_cast<double>(run.steps)},
      {"swaps_accepted", static_cast<double>(run.swaps_accepted)},
  };
  return result;
}

}  // namespace edgeshed::core
