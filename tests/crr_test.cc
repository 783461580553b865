#include "core/crr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/cancellation.h"
#include "core/bounds.h"
#include "core/discrepancy.h"
#include "core/random_shedding.h"
#include "dyn/incremental_shed.h"
#include "graph/generators/generators.h"
#include "testing/test_graphs.h"

namespace edgeshed::core {
namespace {

using ::edgeshed::testing::PaperExampleGraph;

analytics::BetweennessOptions ExactBetweenness() {
  return analytics::BetweennessOptions::Exact();
}

TEST(CrrTest, KeepsExactlyRoundPTimesEdges) {
  auto g = PaperExampleGraph();
  Crr crr;
  auto result = crr.Shed(g, {.p = 0.4});
  ASSERT_TRUE(result.ok());
  // [P] = round(0.4 * 11) = 4, as in Example 1.
  EXPECT_EQ(result->kept_edges.size(), 4u);
}

TEST(CrrTest, TargetEdgeCountRounding) {
  auto g = PaperExampleGraph();
  EXPECT_EQ(TargetEdgeCount(g, 0.4), 4u);   // 4.4 -> 4
  EXPECT_EQ(TargetEdgeCount(g, 0.5), 6u);   // 5.5 -> 6 (round half up)
  EXPECT_EQ(TargetEdgeCount(g, 0.9), 10u);  // 9.9 -> 10
}

TEST(CrrTest, RejectsInvalidP) {
  auto g = PaperExampleGraph();
  Crr crr;
  EXPECT_FALSE(crr.Shed(g, {.p = 0.0}).ok());
  EXPECT_FALSE(crr.Shed(g, {.p = 1.0}).ok());
  EXPECT_FALSE(crr.Shed(g, {.p = -0.3}).ok());
  EXPECT_FALSE(crr.Shed(g, {.p = 1.5}).ok());
}

TEST(CrrTest, KeptEdgesAreValidAndUnique) {
  Rng rng(41);
  auto g = graph::BarabasiAlbert(300, 3, rng);
  Crr crr;
  auto result = crr.Shed(g, {.p = 0.5});
  ASSERT_TRUE(result.ok());
  std::set<graph::EdgeId> unique(result->kept_edges.begin(),
                                 result->kept_edges.end());
  EXPECT_EQ(unique.size(), result->kept_edges.size());
  for (graph::EdgeId e : result->kept_edges) EXPECT_LT(e, g.NumEdges());
}

TEST(CrrTest, ReportedDeltaMatchesRecomputation) {
  Rng rng(42);
  auto g = graph::ErdosRenyi(200, 600, rng);
  Crr crr;
  auto result = crr.Shed(g, {.p = 0.3});
  ASSERT_TRUE(result.ok());
  DegreeDiscrepancy d(g, 0.3);
  for (graph::EdgeId e : result->kept_edges) {
    d.AddEdge(g.edge(e).u, g.edge(e).v);
  }
  EXPECT_NEAR(result->total_delta, d.RecomputeTotalDelta(), 1e-6);
  EXPECT_NEAR(result->average_delta,
              result->total_delta / static_cast<double>(g.NumNodes()), 1e-9);
}

TEST(CrrTest, RewiringNeverWorsensInitialDelta) {
  Rng rng(43);
  auto g = graph::BarabasiAlbert(400, 4, rng);
  // Phase-1-only run (steps = 0).
  CrrOptions no_rewiring;
  no_rewiring.steps_override = 0;
  no_rewiring.betweenness = ExactBetweenness();
  auto initial = Crr(no_rewiring).Shed(g, {.p = 0.5});
  ASSERT_TRUE(initial.ok());

  CrrOptions with_rewiring;
  with_rewiring.betweenness = ExactBetweenness();
  auto rewired = Crr(with_rewiring).Shed(g, {.p = 0.5});
  ASSERT_TRUE(rewired.ok());
  EXPECT_LE(rewired->total_delta, initial->total_delta);
  EXPECT_EQ(rewired->kept_edges.size(), initial->kept_edges.size());
}

TEST(CrrTest, MoreStepsDoNotWorsenDelta) {
  Rng rng(44);
  auto g = graph::BarabasiAlbert(300, 3, rng);
  double previous = 1e100;
  for (uint64_t steps : {0ull, 100ull, 1000ull, 10000ull}) {
    CrrOptions options;
    options.steps_override = steps;
    options.betweenness = ExactBetweenness();
    options.seed = 7;  // shared seed: swap sequence is a prefix
    auto result = Crr(options).Shed(g, {.p = 0.4});
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->total_delta, previous + 1e-9);
    previous = result->total_delta;
  }
}

TEST(CrrTest, SatisfiesTheoremOneBound) {
  Rng rng(45);
  for (double p : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    auto g = graph::BarabasiAlbert(300, 4, rng);
    Crr crr;
    auto result = crr.Shed(g, {.p = p});
    ASSERT_TRUE(result.ok());
    EXPECT_LT(result->average_delta, CrrAverageDeltaBound(g, p))
        << "p = " << p;
  }
}

TEST(CrrTest, StepsFormulaMatchesPaper) {
  auto g = PaperExampleGraph();
  Crr crr;  // default multiplier 10
  // steps = round(10 * 0.4 * 11) = 44, as computed in Example 1.
  EXPECT_EQ(crr.StepsFor(g, 0.4), 44u);
}

TEST(CrrTest, StepsOverrideWins) {
  auto g = PaperExampleGraph();
  CrrOptions options;
  options.steps_override = 5;
  EXPECT_EQ(Crr(options).StepsFor(g, 0.4), 5u);
}

TEST(CrrTest, DeterministicGivenSeed) {
  Rng rng(46);
  auto g = graph::ErdosRenyi(150, 450, rng);
  Crr crr;
  auto a = crr.Shed(g, {.p = 0.5});
  auto b = crr.Shed(g, {.p = 0.5});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->kept_edges, b->kept_edges);
  EXPECT_DOUBLE_EQ(a->total_delta, b->total_delta);
}

TEST(CrrTest, DifferentSeedsCanDiffer) {
  Rng rng(47);
  auto g = graph::ErdosRenyi(150, 450, rng);
  CrrOptions o1;
  o1.seed = 1;
  CrrOptions o2;
  o2.seed = 2;
  auto a = Crr(o1).Shed(g, {.p = 0.5});
  auto b = Crr(o2).Shed(g, {.p = 0.5});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Same size always; content typically differs.
  EXPECT_EQ(a->kept_edges.size(), b->kept_edges.size());
}

TEST(CrrTest, RandomInitStillMeetsBound) {
  Rng rng(48);
  auto g = graph::BarabasiAlbert(300, 3, rng);
  CrrOptions options;
  options.init_mode = CrrOptions::InitMode::kRandom;
  auto result = Crr(options).Shed(g, {.p = 0.4});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->kept_edges.size(), TargetEdgeCount(g, 0.4));
  EXPECT_LT(result->average_delta, CrrAverageDeltaBound(g, 0.4));
}

TEST(CrrTest, BetweennessInitBeatsRandomInitBeforeRewiring) {
  // With steps = 0, Phase 1 alone decides quality of *connectivity*; on
  // degree discrepancy, betweenness init keeps hub edges so Δ is usually
  // different from random — here we simply document both produce the same
  // edge count and valid results.
  Rng rng(49);
  auto g = graph::BarabasiAlbert(200, 3, rng);
  CrrOptions betweenness_init;
  betweenness_init.steps_override = 0;
  betweenness_init.betweenness = ExactBetweenness();
  CrrOptions random_init;
  random_init.steps_override = 0;
  random_init.init_mode = CrrOptions::InitMode::kRandom;
  auto a = Crr(betweenness_init).Shed(g, {.p = 0.5});
  auto b = Crr(random_init).Shed(g, {.p = 0.5});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->kept_edges.size(), b->kept_edges.size());
}

TEST(CrrTest, CrrBeatsRandomSheddingOnDelta) {
  Rng rng(50);
  auto g = graph::BarabasiAlbert(400, 4, rng);
  auto crr_result = Crr().Shed(g, {.p = 0.5});
  auto random_result = RandomShedding().Shed(g, {.p = 0.5});
  ASSERT_TRUE(crr_result.ok());
  ASSERT_TRUE(random_result.ok());
  EXPECT_LT(crr_result->total_delta, random_result->total_delta);
}

TEST(CrrTest, ZeroDeltaSwapOptionAccepts) {
  Rng rng(51);
  auto g = graph::ErdosRenyi(100, 300, rng);
  CrrOptions options;
  options.accept_zero_delta_swaps = true;
  auto result = Crr(options).Shed(g, {.p = 0.5});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->kept_edges.size(), TargetEdgeCount(g, 0.5));
}

TEST(CrrTest, StatsArePopulated) {
  auto g = PaperExampleGraph();
  auto result = Crr().Shed(g, {.p = 0.4});
  ASSERT_TRUE(result.ok());
  bool has_steps = false;
  bool has_accepted = false;
  for (const auto& [key, value] : result->stats) {
    if (key == "steps") {
      has_steps = true;
      EXPECT_DOUBLE_EQ(value, 44.0);
    }
    if (key == "swaps_accepted") has_accepted = true;
  }
  EXPECT_TRUE(has_steps);
  EXPECT_TRUE(has_accepted);
  EXPECT_GE(result->reduction_seconds, 0.0);
}

TEST(CrrTest, SmallPAndLargePExtremes) {
  Rng rng(52);
  auto g = graph::ErdosRenyi(100, 300, rng);
  auto low = Crr().Shed(g, {.p = 0.01});
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low->kept_edges.size(), 3u);  // round(0.01 * 300)
  auto high = Crr().Shed(g, {.p = 0.99});
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(high->kept_edges.size(), 297u);
}

// 64-bit FNV-1a over the (sorted) kept edge ids.
uint64_t KeptSetHash(const std::vector<graph::EdgeId>& kept) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (graph::EdgeId e : kept) {
    hash ^= e;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

struct PinnedShed {
  const char* name;
  const graph::Graph* graph;
  double p;
  uint64_t kept_hash;
  double total_delta;
  uint64_t swaps_accepted;
  /// Ranks with sampled FastRanking waves instead of exact Brandes.
  bool sampled = false;
};

// Pins Crr's output across revisions, not just across two runs of one build
// (DeterministicGivenSeed): a Phase-2 rewrite that reordered the draw stream
// or an accept decision would change these values. Recorded from the serial
// swap chain; regenerate only for a deliberate change of the algorithm.
TEST(CrrTest, OutputPinnedAcrossRevisions) {
  Rng ba_rng(2021);
  const graph::Graph ba = graph::BarabasiAlbert(2000, 4, ba_rng);
  Rng rmat_rng(2021);
  const graph::Graph rmat = graph::RMat(11, 8, 0.57, 0.19, 0.19, rmat_rng);
  const PinnedShed pinned[] = {
      {"ba", &ba, 0.3, 8320859068109702723ull, 685.9999999999153, 2299},
      {"ba", &ba, 0.5, 9243588337596389722ull, 507.0, 1962},
      {"rmat", &rmat, 0.3, 2486524392862904303ull, 535.39999999999372, 3262},
      {"rmat", &rmat, 0.5, 12102480193584309317ull, 522.0, 3038},
      // 256 sampled sources in FastRanking waves of 8: the first waves sit
      // inside one source stripe and run their sweeps side by side.
      {"rmat sampled", &rmat, 0.5, 16205879990423960054ull, 523.0, 3113,
       /*sampled=*/true},
  };
  for (const PinnedShed& want : pinned) {
    SCOPED_TRACE(std::string(want.name) + " p=" + std::to_string(want.p));
    CrrOptions options;
    if (want.sampled) options.betweenness.exact_node_threshold = 1024;
    auto result = Crr(options).Shed(*want.graph, {.p = want.p, .seed = 42});
    ASSERT_TRUE(result.ok());
    const auto stat = [&](const std::string& key) {
      for (const auto& [name, value] : result->stats) {
        if (name == key) return value;
      }
      return -1.0;
    };
    EXPECT_EQ(KeptSetHash(result->kept_edges), want.kept_hash);
    EXPECT_DOUBLE_EQ(result->total_delta, want.total_delta);
    EXPECT_EQ(static_cast<uint64_t>(stat("swaps_accepted")),
              want.swaps_accepted);
  }
}

TEST(CrrTest, NameIsStable) {
  EXPECT_EQ(Crr().name(), "crr");
}

// ---- RunSwapChain against the plain serial chain ----

// The one-attempt-at-a-time loop RunSwapChain replaced, kept only here as
// its oracle: draw both positions, read both slots, decide, apply.
template <typename Slot, typename OnAccept>
StatusOr<uint64_t> SerialSwapChain(std::vector<Slot>* slots, uint64_t target,
                                   uint64_t steps, Rng* rng,
                                   bool accept_zero_delta,
                                   DegreeDiscrepancy* discrepancy,
                                   const CancellationToken* cancel,
                                   OnAccept&& on_accept) {
  const uint64_t excluded_count = slots->size() - target;
  if (target == 0 || excluded_count == 0) return uint64_t{0};
  uint64_t accepted = 0;
  for (uint64_t step = 0; step < steps; ++step) {
    if ((step & 4095) == 0 && CancellationRequested(cancel)) {
      return cancel->ToStatus();
    }
    Slot& kept = (*slots)[rng->UniformIndex(target)];
    Slot& excluded = (*slots)[target + rng->UniformIndex(excluded_count)];
    const double d1 = discrepancy->RemovalDelta(kept.u(), kept.v());
    const double d2 = discrepancy->AdditionDelta(excluded.u(), excluded.v());
    const double combined = d1 + d2;
    const bool accept = accept_zero_delta ? combined <= 0.0 : combined < 0.0;
    if (!accept) continue;
    discrepancy->RemoveEdge(kept.u(), kept.v());
    discrepancy->AddEdge(excluded.u(), excluded.v());
    on_accept(kept, excluded);
    ++accepted;
  }
  return accepted;
}

using RankedEdge = dyn::ShedSession::RankedEdge;

auto SlotFields(const CrrSlot& slot) {
  return std::make_tuple(slot.id, slot.edge.u, slot.edge.v);
}
auto SlotFields(const RankedEdge& slot) {
  return std::make_tuple(slot.eff, slot.key);
}

// Everything a chain reads or writes, built identically for both chains.
template <typename Slot>
struct ChainState {
  std::vector<Slot> slots;
  DegreeDiscrepancy discrepancy;
  Rng rng{42};
  uint64_t accepted = 0;
};

constexpr double kChainP = 0.5;

const graph::Graph& ChainGraph() {
  static const graph::Graph g = [] {
    Rng rng(60);
    return graph::BarabasiAlbert(300, 3, rng);
  }();
  return g;
}

template <typename Slot>
ChainState<Slot> MakeChainState(uint64_t target) {
  const graph::Graph& g = ChainGraph();
  std::vector<graph::EdgeId> order(g.NumEdges());
  std::iota(order.begin(), order.end(), graph::EdgeId{0});
  Rng order_rng(7);
  order_rng.Shuffle(&order);
  ChainState<Slot> state{{}, DegreeDiscrepancy(g, kChainP)};
  for (uint64_t i = 0; i < order.size(); ++i) {
    const graph::Edge edge = g.edge(order[i]);
    if constexpr (std::is_same_v<Slot, CrrSlot>) {
      state.slots.push_back(CrrSlot{order[i], edge});
    } else {
      state.slots.push_back(
          RankedEdge{static_cast<double>(order.size() - i),
                     (uint64_t{edge.u} << 32) | edge.v});
    }
  }
  for (uint64_t i = 0; i < target; ++i) {
    state.discrepancy.AddEdge(state.slots[i].u(), state.slots[i].v());
  }
  return state;
}

// Runs `chain` (RunSwapChain or SerialSwapChain) over `state`. The accept
// callback trades occupants the way Crr (whole slot) or dyn::ShedSession
// (key only, each slot keeps its eff) does, and trips `cancel` on the
// `cancel_on_accept`-th accepted swap when that is non-zero.
template <typename Slot, typename Chain>
Status RunChain(Chain chain, ChainState<Slot>* state, uint64_t target,
                uint64_t steps, bool accept_zero_delta,
                CancellationToken* cancel, uint64_t cancel_on_accept = 0) {
  auto on_accept = [&](Slot& kept, Slot& excluded) {
    if constexpr (std::is_same_v<Slot, CrrSlot>) {
      std::swap(kept, excluded);
    } else {
      std::swap(kept.key, excluded.key);
    }
    if (++state->accepted == cancel_on_accept) cancel->Cancel();
  };
  StatusOr<uint64_t> accepted =
      chain(&state->slots, target, steps, &state->rng, accept_zero_delta,
            &state->discrepancy, cancel, on_accept);
  if (!accepted.ok()) return accepted.status();
  EXPECT_EQ(*accepted, state->accepted);
  return Status::OK();
}

const auto kLookaheadChain = [](auto&&... args) {
  return RunSwapChain(std::forward<decltype(args)>(args)...);
};
const auto kSerialChain = [](auto&&... args) {
  return SerialSwapChain(std::forward<decltype(args)>(args)...);
};

// Equal slots, Δ, accepted count, and rng position: the next output after
// the call pins the number of draws each chain made.
template <typename Slot>
void ExpectSameState(ChainState<Slot>* got, ChainState<Slot>* want) {
  ASSERT_EQ(got->slots.size(), want->slots.size());
  const auto mismatch = std::mismatch(
      got->slots.begin(), got->slots.end(), want->slots.begin(),
      [](const Slot& a, const Slot& b) {
        return SlotFields(a) == SlotFields(b);
      });
  EXPECT_TRUE(mismatch.first == got->slots.end())
      << "first differing slot " << (mismatch.first - got->slots.begin());
  EXPECT_EQ(got->discrepancy.TotalDelta(), want->discrepancy.TotalDelta());
  EXPECT_EQ(got->accepted, want->accepted);
  EXPECT_EQ(got->rng.Next(), want->rng.Next());
}

template <typename Slot>
void ExpectMatchesSerialChain() {
  const uint64_t num_edges = ChainGraph().NumEdges();
  const uint64_t half = TargetEdgeCount(num_edges, kChainP);
  const uint64_t full_steps = Crr().StepsFor(num_edges, kChainP);
  ASSERT_GT(full_steps, 4097u);
  for (const uint64_t target : {half, uint64_t{1}, num_edges - 1}) {
    for (const uint64_t steps :
         {uint64_t{0}, uint64_t{1}, uint64_t{15}, uint64_t{16}, uint64_t{17},
          uint64_t{4097}, full_steps}) {
      for (const bool accept_zero_delta : {false, true}) {
        SCOPED_TRACE("target=" + std::to_string(target) +
                     " steps=" + std::to_string(steps) +
                     " zero=" + std::to_string(accept_zero_delta));
        ChainState<Slot> got = MakeChainState<Slot>(target);
        ChainState<Slot> want = MakeChainState<Slot>(target);
        ASSERT_TRUE(RunChain(kLookaheadChain, &got, target, steps,
                             accept_zero_delta, nullptr)
                        .ok());
        ASSERT_TRUE(RunChain(kSerialChain, &want, target, steps,
                             accept_zero_delta, nullptr)
                        .ok());
        ExpectSameState(&got, &want);
      }
    }
  }
}

TEST(SwapChainTest, CrrSlotsMatchSerialChain) {
  ExpectMatchesSerialChain<CrrSlot>();
}

TEST(SwapChainTest, RankedEdgeSlotsMatchSerialChain) {
  ExpectMatchesSerialChain<RankedEdge>();
}

// A token tripped before the call, and one tripped by the 3rd accepted swap
// (the chain notices at its next poll, attempt 4096): both chains must stop
// with Cancelled at the same point, leaving the same state behind.
template <typename Slot>
void ExpectCancellationMatchesSerialChain() {
  const uint64_t num_edges = ChainGraph().NumEdges();
  const uint64_t target = TargetEdgeCount(num_edges, kChainP);
  const uint64_t steps = Crr().StepsFor(num_edges, kChainP);
  for (const uint64_t cancel_on_accept : {uint64_t{0}, uint64_t{3}}) {
    SCOPED_TRACE("cancel_on_accept=" + std::to_string(cancel_on_accept));
    CancellationToken got_token;
    CancellationToken want_token;
    if (cancel_on_accept == 0) {
      got_token.Cancel();
      want_token.Cancel();
    }
    ChainState<Slot> got = MakeChainState<Slot>(target);
    ChainState<Slot> want = MakeChainState<Slot>(target);
    const Status got_status = RunChain(kLookaheadChain, &got, target, steps,
                                       false, &got_token, cancel_on_accept);
    const Status want_status = RunChain(kSerialChain, &want, target, steps,
                                        false, &want_token, cancel_on_accept);
    EXPECT_EQ(got_status.code(), StatusCode::kCancelled);
    EXPECT_EQ(want_status.code(), StatusCode::kCancelled);
    if (cancel_on_accept == 0) {
      EXPECT_EQ(got.accepted, 0u);
    } else {
      EXPECT_GE(got.accepted, cancel_on_accept);
    }
    ExpectSameState(&got, &want);
  }
}

TEST(SwapChainTest, CrrSlotsCancelLikeSerialChain) {
  ExpectCancellationMatchesSerialChain<CrrSlot>();
}

TEST(SwapChainTest, RankedEdgeSlotsCancelLikeSerialChain) {
  ExpectCancellationMatchesSerialChain<RankedEdge>();
}

}  // namespace
}  // namespace edgeshed::core
