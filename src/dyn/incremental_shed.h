#ifndef EDGESHED_DYN_INCREMENTAL_SHED_H_
#define EDGESHED_DYN_INCREMENTAL_SHED_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analytics/betweenness.h"
#include "common/cancellation.h"
#include "common/statusor.h"
#include "core/discrepancy.h"
#include "core/shedding.h"
#include "dyn/versioned_graph.h"

namespace edgeshed::dyn {

/// Rank provider for dynamic sessions: core::RankProvider's shape with the
/// graph version appended. The service wires this to the PR 7 RankCache
/// with the version in place of the GraphStore generation, so full ranking
/// passes are shared across sessions and with plain CRR jobs at the same
/// version.
using VersionedRankProvider = std::function<StatusOr<core::EdgeRanking>(
    const graph::Graph&, const analytics::BetweennessOptions&,
    uint64_t version)>;

struct DynamicShedOptions {
  double p = 0.5;
  /// Phase-2 swap seed for the cold full shed. Incremental re-sheds fork a
  /// per-version seed from it so repeated re-sheds don't replay one chain.
  uint64_t seed = 42;
  /// Dirty-region growth: BFS hops from mutated endpoints on the view.
  /// 0 = the touched endpoints only (DESIGN.md §15 explains the default).
  uint32_t dirty_hops = 0;
  /// Fall back to a full ranking pass when dirty vertices exceed this
  /// fraction of |V| — the bounded-staleness escape hatch.
  double full_rank_dirty_bound = 0.25;
  /// Half-life of edge utility in *versions* for sliding-window scenarios:
  /// at re-rank time an edge's score is weighted by
  /// 2^-((version - last_touched) / half_life), so edges untouched for many
  /// versions age out of the kept set in favor of recently active ones.
  /// 0 disables decay.
  double decay_half_life = 0.0;
  /// Worker threads for ranking passes (0 = default).
  int threads = 0;
  /// Optional shared ranking source for full passes; when unset the session
  /// computes EdgesByBetweennessDescending inline.
  VersionedRankProvider rank_provider;
};

struct DynamicShedResult {
  /// Kept edges, canonical (u < v), sorted ascending.
  std::vector<graph::Edge> kept;
  double total_delta = 0.0;
  double average_delta = 0.0;
  double seconds = 0.0;
  /// True when this re-shed ran a full ranking pass (cold start, trimmed
  /// history, or dirty region over the bound); false for incremental.
  bool full_rank = false;
  /// Version this result reflects.
  uint64_t version = 0;
  /// The pinned view the result was computed against (its version() ==
  /// `version`), so callers can map `kept` onto canonical EdgeIds of the
  /// materialized graph without racing later batches.
  std::shared_ptr<const DeltaGraph> snapshot;
  uint64_t dirty_vertices = 0;
  uint64_t dirty_edges = 0;
  std::vector<std::pair<std::string, double>> stats;
};

/// A long-lived re-shedding session over one VersionedGraph (DESIGN.md §15).
///
/// The first Reshed() is a cold CRR run: it calls core::Crr::Run, the same
/// Algorithm 1 implementation behind core::Crr::Shed, and adopts its
/// post-Phase-2 slot order as the session's rank order. The kept edges and
/// Δ therefore equal core::Crr::Shed's on the same graph, p and seed by
/// construction, so a session answers exactly what a from-scratch job
/// would.
///
/// Subsequent Reshed() calls are incremental: the session pulls the batches
/// applied since its last version, updates the degree-discrepancy terms in
/// O(touched vertices), recomputes edge ranks only inside the dirty region
/// (touched endpoints plus `dirty_hops` BFS levels on the overlay view) by
/// running betweenness on the induced dirty subgraph and splicing the fresh
/// local order into the retained global rank positions, merges the
/// re-scored region back into the maintained global rank order with an
/// event-driven pass (untouched runs between deleted/reassigned slots are
/// block-copied and their kept membership patched only at the cut — no
/// comparison sort, no global betweenness), and runs an O(batch)-bounded
/// swap refinement through core::RunSwapChain. When the dirty region
/// exceeds `full_rank_dirty_bound` — or history was trimmed past the
/// session — it falls back to a full pass.
///
/// Sessions are deterministic: the same initial graph, batch sequence, and
/// options yield the same kept set on every run and thread count. Not
/// thread-safe; callers serialize Reshed() per session.
class ShedSession {
 public:
  /// Swap attempts an incremental re-shed spends per mutation (capped at a
  /// full run's Crr::StepsFor). Keeps refinement O(batch) while holding the
  /// kept set inside the cold self-overlap ceiling (bench_dynamic gates
  /// this).
  static constexpr uint64_t kRefineStepsPerMutation = 20;

  /// One slot of the maintained global rank order. `eff` is the effective
  /// (decay-weighted) score the slot held at state_version_; the key packs
  /// the canonical endpoints of the edge currently occupying the slot.
  /// 16 bytes on purpose: the merge pass streams |E| of these. Public so
  /// tests can drive core::RunSwapChain over this slot type.
  struct RankedEdge {
    double eff;
    uint64_t key;
    graph::NodeId u() const { return static_cast<graph::NodeId>(key >> 32); }
    graph::NodeId v() const {
      return static_cast<graph::NodeId>(key & 0xFFFFFFFFull);
    }
  };

  ShedSession(std::shared_ptr<VersionedGraph> g, DynamicShedOptions options);

  /// Re-sheds against the current version. See class comment. `cancel`
  /// (optional) reaches the cold start's core::Crr::Run and is polled once
  /// before an incremental pass; a cancelled re-shed returns its status and
  /// leaves the session as it was.
  StatusOr<DynamicShedResult> Reshed(const CancellationToken* cancel = nullptr);

  bool has_state() const { return have_state_; }
  uint64_t state_version() const { return state_version_; }
  const DynamicShedOptions& options() const { return options_; }

 private:
  StatusOr<DynamicShedResult> FullShed(
      const std::shared_ptr<const DeltaGraph>& snap,
      const CancellationToken* cancel);
  StatusOr<DynamicShedResult> IncrementalShed(
      const std::shared_ptr<const DeltaGraph>& snap,
      const std::vector<graph::MutationBatch>& batches,
      const std::vector<graph::NodeId>& dirty);

  /// Runs core::RunSwapChain over order_ split at `target` (positions <
  /// target are kept, the rest excluded), mutating disc_ and the slots'
  /// occupants; returns swaps accepted.
  StatusOr<uint64_t> RefineKeptSet(uint64_t target, uint64_t steps,
                                   uint64_t rng_seed);

  DynamicShedResult BuildResult(uint64_t version) const;

  std::shared_ptr<VersionedGraph> graph_;
  const DynamicShedOptions options_;

  bool have_state_ = false;
  uint64_t state_version_ = 0;
  /// Rank-position scores keyed by packed edge key: the edge ranked i-th of
  /// E in the last full pass scored E - i; incremental splices reuse the
  /// dirty region's score slots. Higher = kept first.
  std::unordered_map<uint64_t, double> score_;
  std::unordered_set<uint64_t> kept_keys_;
  /// Every live edge in rank order (eff desc, key asc) as of
  /// state_version_; the first order_target_ entries are the kept set.
  /// Incremental passes maintain it by linear merge instead of re-sorting:
  /// between versions every untouched eff is scaled by the same decay
  /// factor, which preserves relative order.
  std::vector<RankedEdge> order_;
  uint64_t order_target_ = 0;
  /// Merge-pass double buffer: reusing the retired order keeps the
  /// per-reshed cost free of a |E|-sized allocation.
  std::vector<RankedEdge> merge_scratch_;
  std::optional<core::DegreeDiscrepancy> disc_;
};

}  // namespace edgeshed::dyn

#endif  // EDGESHED_DYN_INCREMENTAL_SHED_H_
