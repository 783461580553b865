#ifndef EDGESHED_CORE_CRR_H_
#define EDGESHED_CORE_CRR_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "analytics/betweenness.h"
#include "common/cancellation.h"
#include "common/random.h"
#include "core/discrepancy.h"
#include "core/shedding.h"

namespace edgeshed::core {

/// Configuration for Centrality Ranking with Rewiring.
struct CrrOptions {
  /// steps = round(steps_multiplier · P) where P = p·|E| (paper: 10 after
  /// the Fig. 4 sweep). Ignored when steps_override is set.
  double steps_multiplier = 10.0;
  /// Exact number of Phase-2 swap attempts, overriding the multiplier.
  std::optional<uint64_t> steps_override;

  /// How Phase 1 picks the initial E'. kBetweenness is the paper's method;
  /// kRandom exists for the phase ablation (DESIGN.md §6.1).
  enum class InitMode { kBetweenness, kRandom };
  InitMode init_mode = InitMode::kBetweenness;

  /// Accept swaps with d1 + d2 == 0 as well (paper requires strictly < 0);
  /// ablation §6.2.
  bool accept_zero_delta_swaps = false;

  /// Betweenness estimator controls (exact below the threshold, sampled
  /// pivots above; see analytics::BetweennessOptions). Defaults to the
  /// ranking fast path — hybrid kernel plus adaptive pivot waves
  /// (DESIGN.md §12); waves only engage in sampled mode, so graphs under
  /// the exact threshold are unaffected.
  analytics::BetweennessOptions betweenness =
      analytics::BetweennessOptions::FastRanking();

  /// Seed for Phase-2 swap sampling (and Phase-1 random init).
  uint64_t seed = 42;
};

/// Phase-2 working entry: an edge id with its endpoints cached flat, so each
/// swap attempt touches one 16-byte record instead of chasing the id into
/// the graph's edge array (a guaranteed cache miss per draw on big graphs).
struct CrrSlot {
  graph::EdgeId id;
  graph::Edge edge;
  graph::NodeId u() const { return edge.u; }
  graph::NodeId v() const { return edge.v; }
};
static_assert(sizeof(CrrSlot) == 16);

/// CRR's working state after Phase 2 (see Crr::Run).
struct CrrRun {
  /// Every edge of the graph in Phase-1 rank order, E' in [0, target) and
  /// E \ E' after it, with each accepted swap applied in place.
  std::vector<CrrSlot> slots;
  /// |E'| = TargetEdgeCount(|E|, p).
  uint64_t target = 0;
  /// Δ bookkeeping over slots[0, target).
  DegreeDiscrepancy discrepancy;
  double phase1_seconds = 0.0;
  double phase2_seconds = 0.0;
  double betweenness_seconds = 0.0;
  uint64_t steps = 0;
  uint64_t swaps_accepted = 0;
};

/// Phase 2 of Algorithm 1, the one swap chain behind Crr and
/// dyn::ShedSession: `steps` attempts, each drawing one slot of the kept
/// prefix (*slots)[0, target) and one of the excluded rest from `rng`, and
/// accepting iff d1 + d2 < 0 (<= 0 with `accept_zero_delta`). On accept it
/// applies both edges to `discrepancy`, then calls on_accept(kept,
/// excluded), which must trade the two occupants so position keeps meaning
/// membership. `Slot` exposes endpoints as u() and v(). The token is polled
/// once per 4096 attempts, so runs are bit-identical with and without one
/// as long as it never trips. Returns the number of swaps accepted.
///
/// Lookahead (DESIGN.md §8, "Phase 2 lookahead"): the draw stream never
/// depends on an accept decision, so each attempt's two positions are drawn
/// kAhead attempts before it runs and both slots are prefetched then; the
/// slots' contents are read only when the attempt runs. Draws keep the
/// serial order (kept, then excluded, one pair per attempt) and the window
/// never reaches past the next cancellation poll, so the slots, the
/// discrepancy, the accepted count and the rng's state afterwards all match
/// a plain one-attempt-at-a-time loop, cancelled runs included.
template <typename Slot, typename OnAccept>
StatusOr<uint64_t> RunSwapChain(std::vector<Slot>* slots, uint64_t target,
                                uint64_t steps, Rng* rng,
                                bool accept_zero_delta,
                                DegreeDiscrepancy* discrepancy,
                                const CancellationToken* cancel,
                                OnAccept&& on_accept) {
  const uint64_t excluded_count = slots->size() - target;
  if (target == 0 || excluded_count == 0) return uint64_t{0};
  constexpr uint64_t kCancelCheckInterval = 4096;
  // Attempts in flight: enough to cover a DRAM miss at one attempt's
  // compute cost, small enough to stay in registers and L1.
  constexpr uint64_t kAhead = 16;
  static_assert((kAhead & (kAhead - 1)) == 0, "ring index is a mask");
  struct Draw {
    uint64_t kept;
    uint64_t excluded;
  };
  Draw ring[kAhead] = {};
  Slot* const kept_slots = slots->data();
  Slot* const excluded_slots = kept_slots + target;
  uint64_t accepted = 0;
  for (uint64_t block = 0; block < steps; block += kCancelCheckInterval) {
    if (CancellationRequested(cancel)) return cancel->ToStatus();
    const uint64_t block_end = std::min(steps, block + kCancelCheckInterval);
    uint64_t drawn = block;
    const auto draw_next = [&] {
      Draw& next = ring[drawn & (kAhead - 1)];
      next.kept = rng->UniformIndex(target);
      next.excluded = rng->UniformIndex(excluded_count);
      __builtin_prefetch(kept_slots + next.kept);
      __builtin_prefetch(excluded_slots + next.excluded);
      ++drawn;
    };
    while (drawn < block_end && drawn < block + kAhead) draw_next();
    for (uint64_t step = block; step < block_end; ++step) {
      const Draw current = ring[step & (kAhead - 1)];
      if (drawn < block_end) draw_next();
      Slot& kept = kept_slots[current.kept];
      Slot& excluded = excluded_slots[current.excluded];
      // d1, d2 as Algorithm 1 lines 10-11: both against the current state.
      // When the edges share an endpoint the true combined change can
      // differ; the paper's test ignores that, while the bookkeeping below
      // applies the two operations sequentially and stays exact.
      const double d1 = discrepancy->RemovalDelta(kept.u(), kept.v());
      const double d2 =
          discrepancy->AdditionDelta(excluded.u(), excluded.v());
      const double combined = d1 + d2;
      const bool accept =
          accept_zero_delta ? combined <= 0.0 : combined < 0.0;
      if (!accept) continue;
      discrepancy->RemoveEdge(kept.u(), kept.v());
      discrepancy->AddEdge(excluded.u(), excluded.v());
      on_accept(kept, excluded);
      ++accepted;
    }
  }
  return accepted;
}

/// Centrality Ranking with Rewiring — Algorithm 1 of the paper.
///
/// Phase 1 keeps the round(p·|E|) edges of highest edge betweenness
/// centrality (ties resolved deterministically by edge id). Phase 2 runs
/// `steps` random swap attempts between E' and E \ E', accepting a swap iff
/// it strictly reduces the total degree discrepancy Δ. |E'| is invariant
/// throughout, which pins the reduced graph's average degree at p times the
/// original (Eq. 2).
class Crr : public EdgeShedder {
 public:
  explicit Crr(CrrOptions options = {}) : options_(options) {}

  std::string name() const override { return "crr"; }
  /// Run() plus the radix sort of the kept prefix into kept_edges.
  StatusOr<SheddingResult> Shed(const graph::Graph& g,
                                const ShedOptions& options) const override;

  /// Algorithm 1 through Phase 2, returning the working state: the one
  /// implementation behind Shed() and dyn::ShedSession's cold start, so
  /// both answer identically by construction. ShedOptions mapping: `seed`
  /// overrides CrrOptions::seed; `threads` overrides the betweenness
  /// estimator's thread count (Phase 2 is sequential by construction — the
  /// swap chain is a single dependent random walk).
  StatusOr<CrrRun> Run(const graph::Graph& g,
                       const ShedOptions& options) const;

  /// The Phase-2 iteration count CRR will use for this graph and p.
  uint64_t StepsFor(const graph::Graph& g, double p) const {
    return StepsFor(g.NumEdges(), p);
  }
  /// The same count over an edge count.
  uint64_t StepsFor(uint64_t num_edges, double p) const;

 private:
  CrrOptions options_;
};

}  // namespace edgeshed::core

#endif  // EDGESHED_CORE_CRR_H_
