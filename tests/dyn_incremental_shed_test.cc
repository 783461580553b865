#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/random.h"
#include "core/crr.h"
#include "core/discrepancy.h"
#include "dyn/incremental_shed.h"
#include "dyn/versioned_graph.h"
#include "graph/generators/generators.h"
#include "graph/mutation_io.h"
#include "testing/test_graphs.h"

namespace edgeshed::dyn {
namespace {

using graph::Edge;
using graph::MutationBatch;
using graph::NodeId;

MutationBatch Batch(std::vector<Edge> inserts, std::vector<Edge> deletes) {
  MutationBatch batch;
  batch.inserts = std::move(inserts);
  batch.deletes = std::move(deletes);
  return batch;
}

/// Deterministic random graph: cycle spine plus chords.
graph::Graph RandomGraph(NodeId n, size_t extra_edges, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  std::set<Edge> have;
  for (NodeId u = 0; u < n; ++u) {
    const Edge e{std::min<NodeId>(u, (u + 1) % n),
                 std::max<NodeId>(u, (u + 1) % n)};
    if (have.insert(e).second) edges.push_back(e);
  }
  while (edges.size() < n + extra_edges) {
    const NodeId u = static_cast<NodeId>(rng.UniformIndex(n));
    const NodeId v = static_cast<NodeId>(rng.UniformIndex(n));
    if (u == v) continue;
    const Edge e{std::min(u, v), std::max(u, v)};
    if (have.insert(e).second) edges.push_back(e);
  }
  return testing::MustBuild(n, std::move(edges));
}

std::vector<Edge> CrrKeptEdges(const graph::Graph& g, double p,
                               uint64_t seed) {
  core::CrrOptions options;
  options.seed = seed;
  core::Crr crr(options);
  core::ShedOptions shed_options;
  shed_options.p = p;
  auto result = crr.Shed(g, shed_options);
  EDGESHED_CHECK(result.ok()) << result.status().ToString();
  std::vector<Edge> kept;
  kept.reserve(result->kept_edges.size());
  for (const graph::EdgeId id : result->kept_edges) {
    kept.push_back(g.edge(id));
  }
  return kept;  // ids ascending == canonical edge order
}

double Stat(const std::vector<std::pair<std::string, double>>& stats,
            const std::string& name) {
  for (const auto& [key, value] : stats) {
    if (key == name) return value;
  }
  return -1.0;
}

TEST(DynShedSession, ColdReshedMatchesCrrBitIdentically) {
  Rng even_rng(11);
  const graph::Graph even = graph::BarabasiAlbert(120, 3, even_rng);
  ASSERT_EQ(even.NumEdges() % 2, 0u);
  // |E| = 29: at p = 0.35, llround((10·p)·|E|) and llround(10·(p·|E|))
  // differ, so a cold start that computed its own step count drifts here.
  Rng odd_rng(130);
  const graph::Graph ba = graph::BarabasiAlbert(12, 3, odd_rng);
  const graph::Graph odd = testing::MustBuild(
      ba.NumNodes(), std::vector<Edge>(ba.edges().begin(),
                                       ba.edges().end() - 1));
  ASSERT_EQ(odd.NumEdges(), 29u);

  for (const graph::Graph* g : {&even, &odd}) {
    for (const double p : {0.15, 0.35, 0.5, 0.85}) {
      SCOPED_TRACE(::testing::Message()
                   << "|E|=" << g->NumEdges() << " p=" << p);
      auto vg = std::make_shared<VersionedGraph>(*g);
      DynamicShedOptions options;
      options.p = p;
      ShedSession session(vg, options);
      auto result = session.Reshed();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(result->full_rank);
      EXPECT_EQ(result->version, 0u);

      auto crr = core::Crr().Shed(*g, {.p = p, .seed = 42});
      ASSERT_TRUE(crr.ok()) << crr.status().ToString();
      std::vector<Edge> crr_kept;
      for (const graph::EdgeId id : crr->kept_edges) {
        crr_kept.push_back(g->edge(id));
      }
      EXPECT_EQ(result->kept, crr_kept);
      EXPECT_EQ(result->total_delta, crr->total_delta);
      EXPECT_EQ(Stat(result->stats, "steps"), Stat(crr->stats, "steps"));
    }
  }
}

TEST(DynShedSession, CancelledColdStartLeavesSessionFresh) {
  auto vg = std::make_shared<VersionedGraph>(RandomGraph(150, 350, 29));
  auto fresh = ShedSession(vg, DynamicShedOptions{}).Reshed();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  CancellationToken counter;  // armed, never trips: counts the polls
  counter.CancelOnPoll(std::numeric_limits<uint64_t>::max());
  ASSERT_TRUE(ShedSession(vg, DynamicShedOptions{}).Reshed(&counter).ok());
  const uint64_t trip = counter.Polls() / 2;
  ASSERT_GT(trip, 0u);

  ShedSession session(vg, DynamicShedOptions{});
  CancellationToken token;
  token.CancelOnPoll(trip);
  auto cancelled = session.Reshed(&token);
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_FALSE(session.has_state());

  auto result = session.Reshed(nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->kept, fresh->kept);
  EXPECT_EQ(result->total_delta, fresh->total_delta);
}

TEST(DynShedSession, CancelledIncrementalPassLeavesSessionUnchanged) {
  auto vg = std::make_shared<VersionedGraph>(RandomGraph(150, 350, 31));
  ShedSession session(vg, DynamicShedOptions{});
  ShedSession twin(vg, DynamicShedOptions{});
  ASSERT_TRUE(session.Reshed().ok());
  ASSERT_TRUE(twin.Reshed().ok());
  ASSERT_TRUE(vg->ApplyBatch(Batch({{3, 77}}, {{0, 1}})).ok());

  CancellationToken token;
  token.CancelOnPoll(1);
  auto cancelled = session.Reshed(&token);
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(session.state_version(), 0u);

  auto result = session.Reshed(nullptr);
  auto want = twin.Reshed();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_FALSE(result->full_rank);
  EXPECT_EQ(result->kept, want->kept);
  EXPECT_EQ(result->total_delta, want->total_delta);
}

TEST(DynShedSession, ColdReshedOnMutatedOverlayMatchesCrrOnRebuild) {
  auto vg = std::make_shared<VersionedGraph>(RandomGraph(100, 200, 5));
  ASSERT_TRUE(vg->ApplyBatch(Batch({{0, 50}}, {{0, 1}})).ok());
  ShedSession session(vg, DynamicShedOptions{});
  auto result = session.Reshed();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->full_rank);
  auto rebuilt = vg->Snapshot()->Materialize();
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(result->kept, CrrKeptEdges(*rebuilt, 0.5, 42));
}

TEST(DynShedSession, IncrementalReshedKeepsBudgetAndExactDelta) {
  auto vg = std::make_shared<VersionedGraph>(RandomGraph(150, 350, 23));
  ShedSession session(vg, DynamicShedOptions{});
  ASSERT_TRUE(session.Reshed().ok());

  ASSERT_TRUE(
      vg->ApplyBatch(Batch({{3, 77}, {9, 120}}, {{0, 1}, {5, 6}})).ok());
  auto result = session.Reshed();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->full_rank);
  EXPECT_GT(result->dirty_vertices, 0u);

  auto snap = vg->Snapshot();
  const uint64_t live = snap->NumEdges();
  const uint64_t target =
      static_cast<uint64_t>(std::llround(0.5 * static_cast<double>(live)));
  EXPECT_EQ(result->kept.size(), target);

  // Every kept edge is live, the list is canonical sorted, and the
  // incrementally maintained Δ matches an exact recompute over the kept
  // set on the mutated graph.
  EXPECT_TRUE(std::is_sorted(result->kept.begin(), result->kept.end()));
  for (const Edge& e : result->kept) {
    EXPECT_TRUE(snap->HasEdge(e.u, e.v))
        << "{" << e.u << ", " << e.v << "}";
  }
  auto rebuilt = snap->Materialize();
  ASSERT_TRUE(rebuilt.ok());
  core::DegreeDiscrepancy exact(*rebuilt, 0.5);
  for (const Edge& e : result->kept) exact.AddEdge(e.u, e.v);
  EXPECT_NEAR(result->total_delta, exact.RecomputeTotalDelta(), 1e-6);
}

TEST(DynShedSession, NoopReshedReturnsCurrentState) {
  auto vg = std::make_shared<VersionedGraph>(RandomGraph(80, 160, 3));
  ShedSession session(vg, DynamicShedOptions{});
  auto first = session.Reshed();
  ASSERT_TRUE(first.ok());
  auto again = session.Reshed();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->full_rank);
  EXPECT_EQ(again->kept, first->kept);
  EXPECT_EQ(again->total_delta, first->total_delta);
}

TEST(DynShedSession, WideBatchFallsBackToFullRank) {
  auto vg = std::make_shared<VersionedGraph>(RandomGraph(100, 200, 17));
  DynamicShedOptions options;
  options.full_rank_dirty_bound = 0.25;
  ShedSession session(vg, options);
  ASSERT_TRUE(session.Reshed().ok());

  // Touch well over 25% of the vertices in one batch.
  MutationBatch wide;
  auto snap = vg->Snapshot();
  for (NodeId u = 0; u < 60; u += 2) {
    if (!snap->HasEdge(u, u + 1)) continue;
    wide.deletes.push_back({u, static_cast<NodeId>(u + 1)});
  }
  ASSERT_GT(wide.deletes.size(), 13u);
  ASSERT_TRUE(vg->ApplyBatch(wide).ok());
  auto result = session.Reshed();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->full_rank);
  // And the full fallback equals a cold CRR run on the mutated graph.
  auto rebuilt = vg->Snapshot()->Materialize();
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(result->kept, CrrKeptEdges(*rebuilt, 0.5, 42));
}

TEST(DynShedSession, TrimmedHistoryFallsBackToFullRank) {
  VersionedGraphOptions graph_options;
  graph_options.history_limit = 1;
  graph_options.compact_ratio = 0.0;  // compact eagerly so history trims
  auto vg = std::make_shared<VersionedGraph>(RandomGraph(90, 180, 29),
                                             graph_options);
  ShedSession session(vg, DynamicShedOptions{});
  ASSERT_TRUE(session.Reshed().ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        vg->ApplyBatch(Batch({}, {vg->Snapshot()->LiveEdges().front()}))
            .ok());
    vg->WaitForCompaction();
  }
  ASSERT_FALSE(vg->BatchesSince(session.state_version()).has_value());
  auto result = session.Reshed();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->full_rank);
}

TEST(DynShedSession, SessionsAreDeterministic) {
  const graph::Graph g = RandomGraph(110, 240, 41);
  auto vg_a = std::make_shared<VersionedGraph>(g);
  auto vg_b = std::make_shared<VersionedGraph>(g);
  ShedSession a(vg_a, DynamicShedOptions{});
  ShedSession b(vg_b, DynamicShedOptions{});
  const std::vector<MutationBatch> batches = {
      Batch({{2, 60}}, {{0, 1}}),
      Batch({{5, 90}, {7, 33}}, {}),
      Batch({}, {{2, 60}}),
  };
  auto ra = a.Reshed();
  auto rb = b.Reshed();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->kept, rb->kept);
  for (const MutationBatch& batch : batches) {
    ASSERT_TRUE(vg_a->ApplyBatch(batch).ok());
    ASSERT_TRUE(vg_b->ApplyBatch(batch).ok());
    ra = a.Reshed();
    rb = b.Reshed();
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(ra->kept, rb->kept);
    EXPECT_EQ(ra->total_delta, rb->total_delta);
  }
}

TEST(DynShedSession, DecayAgesUntouchedEdgesOut) {
  const graph::Graph g = RandomGraph(100, 150, 53);
  auto vg_plain = std::make_shared<VersionedGraph>(g);
  auto vg_decay = std::make_shared<VersionedGraph>(g);
  // Expand the dirty region one hop so each incremental splice refreshes
  // the scored edges around the mutation, giving edges distinct ages.
  DynamicShedOptions plain_options;
  plain_options.dirty_hops = 1;
  DynamicShedOptions decay_options = plain_options;
  decay_options.decay_half_life = 0.5;  // aggressive sliding window
  ShedSession plain(vg_plain, plain_options);
  ShedSession decayed(vg_decay, decay_options);
  ASSERT_TRUE(plain.Reshed().ok());
  ASSERT_TRUE(decayed.Reshed().ok());

  // Churn a few neighborhoods, one version apart; everything else ages. A
  // reshed per version stamps the refreshed regions with distinct
  // last-touched versions, so decay (uniform within a version, steeper
  // with age) reorders stale high scorers below freshly touched edges.
  std::optional<DynamicShedResult> plain_result, decay_result;
  for (int round = 0; round < 3; ++round) {
    NodeId a = static_cast<NodeId>(10 * (round + 1));
    while (vg_plain->Snapshot()->HasEdge(a, a + 2)) ++a;
    const MutationBatch batch =
        Batch({{a, static_cast<NodeId>(a + 2)}}, {});
    ASSERT_TRUE(vg_plain->ApplyBatch(batch).ok());
    ASSERT_TRUE(vg_decay->ApplyBatch(batch).ok());
    auto rp = plain.Reshed();
    auto rd = decayed.Reshed();
    ASSERT_TRUE(rp.ok() && rd.ok());
    ASSERT_FALSE(rp->full_rank);
    ASSERT_FALSE(rd->full_rank);
    plain_result = *std::move(rp);
    decay_result = *std::move(rd);
  }
  EXPECT_EQ(plain_result->kept.size(), decay_result->kept.size());
  // The sliding window changes which edges survive.
  EXPECT_NE(plain_result->kept, decay_result->kept);
}

TEST(DynKeptSet, CommitMergesTheLogAndMapsIds) {
  auto vg = std::make_shared<VersionedGraph>(
      RandomGraph(60, 90, 5), VersionedGraphOptions{.auto_compact = false});
  const std::vector<Edge> live = vg->Snapshot()->LiveEdges();
  KeptSet kept;
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < live.size(); i += 2) {
    keys.push_back(graph::EdgeKey(live[i]));
  }
  kept.Reset(keys, *vg->Snapshot(), 1);
  // Edge 1 joins; edge 0 leaves; edge 3 joins, leaves and joins again;
  // edge 2 leaves and joins back; then an insert joins and a kept base
  // edge is deleted and leaves.
  kept.Log(graph::EdgeKey(live[1]), true);
  kept.Log(graph::EdgeKey(live[0]), false);
  for (const bool joined : {true, false, true}) {
    kept.Log(graph::EdgeKey(live[3]), joined);
  }
  kept.Log(graph::EdgeKey(live[2]), false);
  kept.Log(graph::EdgeKey(live[2]), true);
  NodeId u = 0;
  while (vg->Snapshot()->HasEdge(u, 59)) ++u;
  ASSERT_TRUE(vg->ApplyBatch(Batch({{u, 59}}, {live[4]})).ok());
  kept.Log(graph::EdgeKey(u, 59), true);
  kept.Log(graph::EdgeKey(live[4]), false);
  std::set<Edge> want;
  for (size_t i = 0; i < live.size(); i += 2) want.insert(live[i]);
  want.insert(live[1]);
  want.erase(live[0]);
  want.insert(live[3]);
  want.insert({u, 59});
  want.erase(live[4]);
  const auto snap = vg->Snapshot();
  ASSERT_TRUE(kept.Commit(*snap, 4).ok());
  EXPECT_EQ(kept.edges(), std::vector<Edge>(want.begin(), want.end()));
  auto ids = kept.Ids(*snap, 4);
  ASSERT_TRUE(ids.ok()) << ids.status();
  EXPECT_EQ(*ids, *snap->EdgeIdsOf(kept.edges()));
}

TEST(DynKeptSet, LogThatDoesNotFitTheSetIsInternal) {
  auto vg = std::make_shared<VersionedGraph>(RandomGraph(40, 60, 9));
  const auto snap = vg->Snapshot();
  const std::vector<Edge> live = snap->LiveEdges();
  const uint64_t kept_key = graph::EdgeKey(live[0]);
  const uint64_t absent_key = graph::EdgeKey(live[1]);
  struct Case {
    const char* name;
    std::vector<std::pair<uint64_t, bool>> log;
  };
  const std::vector<Case> cases = {
      {"an absent edge leaves", {{absent_key, false}}},
      {"a kept edge joins", {{kept_key, true}}},
      {"an edge joins twice", {{absent_key, true}, {absent_key, true}}},
      {"a kept edge leaves twice", {{kept_key, false}, {kept_key, false}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    KeptSet kept;
    kept.Reset({kept_key}, *snap, 1);
    for (const auto& [key, joined] : c.log) kept.Log(key, joined);
    const Status status = kept.Commit(*snap, 1);
    EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
  }
}

TEST(DynKeptSet, BaseSwapRecomputesRanksWithoutPinningTheOldBase) {
  auto vg = std::make_shared<VersionedGraph>(
      RandomGraph(50, 80, 13), VersionedGraphOptions{.auto_compact = false});
  std::weak_ptr<const graph::Graph> old_base = vg->Snapshot()->base();
  const std::vector<Edge> live = vg->Snapshot()->LiveEdges();
  KeptSet kept;
  std::vector<uint64_t> keys;
  for (size_t i = 1; i < live.size(); i += 3) {
    keys.push_back(graph::EdgeKey(live[i]));
  }
  kept.Reset(keys, *vg->Snapshot(), 1);
  // Deleting base edges below the kept ones moves every base rank once
  // compaction folds the deletes into a new base.
  ASSERT_TRUE(vg->ApplyBatch(Batch({}, {live[0], live[3]})).ok());
  ASSERT_TRUE(vg->Compact().ok());
  EXPECT_TRUE(old_base.expired());  // neither the graph nor the set pins it
  const auto snap = vg->Snapshot();
  ASSERT_TRUE(kept.Commit(*snap, 1).ok());  // an empty log, a new base
  auto ids = kept.Ids(*snap, 1);
  ASSERT_TRUE(ids.ok()) << ids.status();
  EXPECT_EQ(*ids, *snap->EdgeIdsOf(kept.edges()));
}

uint64_t KeptHash(const std::vector<Edge>& kept) {
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a, 64-bit
  for (const Edge& e : kept) {
    for (const NodeId x : {e.u, e.v}) {
      for (int shift = 0; shift < 32; shift += 8) {
        hash = (hash ^ ((x >> shift) & 0xFFu)) * 0x100000001b3ull;
      }
    }
  }
  return hash;
}

uint64_t IdsHash(const std::vector<graph::EdgeId>& ids) {
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a, 64-bit
  for (const graph::EdgeId id : ids) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash = (hash ^ ((id >> shift) & 0xFFu)) * 0x100000001b3ull;
    }
  }
  return hash;
}

/// What one Reshed of the pinned script returned.
struct PinnedStep {
  uint64_t kept_hash;
  double total_delta;
  double steps;
  double swaps_accepted;
  bool full_rank;
  uint64_t ids_hash = 0;
};

/// Runs a fixed script of batches and Reshed calls on a fixed BA graph and
/// returns one PinnedStep per Reshed. Between some Reshed calls several
/// batches land: an edge deleted and then re-inserted, an edge inserted and
/// then deleted, and net-new edges over several passes, so extension-slot
/// effs collide with existing ones and later batches delete edges that
/// hold such colliding effs. With `swap_bases` the script goes on: a
/// Compact() swaps the base under the session before a churned re-shed and
/// before a no-op one, and a 5% batch forces the full-rank fallback.
std::vector<PinnedStep> RunPinnedScript(const DynamicShedOptions& options,
                                        bool swap_bases = false) {
  Rng graph_rng(2024);
  auto vg = std::make_shared<VersionedGraph>(
      graph::BarabasiAlbert(600, 3, graph_rng));
  ShedSession session(vg, options);
  Rng rng(77);
  std::vector<Edge> inserted;  // net-new edges, the extension-slot holders
  std::vector<PinnedStep> steps;
  std::vector<Edge> last_kept;
  const auto reshed = [&] {
    auto result = session.Reshed();
    EDGESHED_CHECK(result.ok()) << result.status().ToString();
    auto rebuilt = result->snapshot->Materialize();
    EDGESHED_CHECK(rebuilt.ok());
    core::DegreeDiscrepancy exact(*rebuilt, options.p);
    for (const Edge& e : result->kept) exact.AddEdge(e.u, e.v);
    EXPECT_NEAR(result->total_delta, exact.RecomputeTotalDelta(), 1e-9);
    steps.push_back({KeptHash(result->kept), result->total_delta,
                     Stat(result->stats, "steps"),
                     Stat(result->stats, "swaps_accepted"),
                     result->full_rank, IdsHash(result->kept_ids)});
    last_kept = result->kept;
  };
  const auto apply = [&](const MutationBatch& batch) {
    const Status status = vg->ApplyBatch(batch).status();
    EDGESHED_CHECK(status.ok()) << status.ToString();
  };
  const auto new_edge = [&](const MutationBatch& batch) {
    const auto snap = vg->Snapshot();
    while (true) {
      const NodeId u = static_cast<NodeId>(rng.UniformIndex(600));
      const NodeId v = static_cast<NodeId>(rng.UniformIndex(600));
      const Edge e{std::min(u, v), std::max(u, v)};
      if (u == v || snap->HasEdge(u, v) ||
          std::find(batch.inserts.begin(), batch.inserts.end(), e) !=
              batch.inserts.end()) {
        continue;
      }
      return e;
    }
  };
  // A live edge not yet in `batch`: a net-new one if `from_inserted` and
  // one is drawn, else any.
  const auto live_edge = [&](const MutationBatch& batch, bool from_inserted) {
    const auto snap = vg->Snapshot();
    const std::vector<Edge> live = snap->LiveEdges();
    while (true) {
      const std::vector<Edge>& pool =
          from_inserted && !inserted.empty() ? inserted : live;
      const Edge e = pool[rng.UniformIndex(pool.size())];
      if (!snap->HasEdge(e.u, e.v) ||
          std::find(batch.deletes.begin(), batch.deletes.end(), e) !=
              batch.deletes.end()) {
        from_inserted = false;
        continue;
      }
      return e;
    }
  };
  const auto churn = [&](int deletes, int inserts, bool from_inserted) {
    MutationBatch batch;
    for (int i = 0; i < deletes; ++i) {
      batch.deletes.push_back(live_edge(batch, from_inserted));
    }
    for (int i = 0; i < inserts; ++i) {
      batch.inserts.push_back(new_edge(batch));
      inserted.push_back(batch.inserts.back());
    }
    apply(batch);
  };

  reshed();  // cold start
  churn(3, 3, false);
  reshed();

  // A kept edge deleted and re-inserted, and a net-new edge inserted and
  // deleted, all before the next Reshed.
  const Edge kept_edge = last_kept[last_kept.size() / 2];
  apply(Batch({}, {kept_edge}));
  MutationBatch reinsert = Batch({kept_edge}, {});
  const Edge transient = new_edge(reinsert);
  reinsert.inserts.push_back(transient);
  apply(reinsert);
  apply(Batch({}, {transient}));
  churn(1, 1, false);
  reshed();

  // Net-new edges over several passes, several batches per pass; later
  // passes delete earlier net-new edges, whose effs collide.
  for (int pass = 0; pass < 5; ++pass) {
    for (int b = 0; b < 3; ++b) churn(2, 4, /*from_inserted=*/pass > 0);
    reshed();
  }
  reshed();  // no batches: a no-op pass

  // The same edge deleted, re-inserted and deleted again in one interval.
  const Edge flicker = last_kept.front();
  apply(Batch({}, {flicker}));
  apply(Batch({flicker}, {}));
  apply(Batch({}, {flicker}));
  churn(2, 2, true);
  reshed();
  for (int pass = 0; pass < 3; ++pass) {
    churn(3, 3, true);
    reshed();
  }
  if (!swap_bases) return steps;

  const auto compact = [&] {
    const Status status = vg->Compact();
    EDGESHED_CHECK(status.ok()) << status.ToString();
  };
  compact();
  churn(3, 3, true);
  reshed();
  compact();
  reshed();  // no batches, but a new base
  const int wide = static_cast<int>(vg->Snapshot()->NumEdges() / 40);
  churn(wide, wide, false);  // 5% of |E|
  reshed();
  churn(3, 3, true);
  reshed();
  compact();
  churn(2, 2, false);
  reshed();
  return steps;
}

TEST(DynShedSession, IncrementalOutputPinnedAcrossRevisions) {
  // Kept sets, Δ bits, step counts and accepted swaps of the scripted run,
  // recorded from the score-table implementation of the session. A change
  // that reorders merge events, mis-classifies a rank slot or changes the
  // order of Δ's floating-point updates shows up here.
  struct Config {
    const char* name;
    DynamicShedOptions options;
    std::vector<PinnedStep> want;
  };
  DynamicShedOptions plain;
  plain.p = 0.35;  // Δ terms are not dyadic, so update order shows in Δ
  DynamicShedOptions hops = plain;
  hops.p = 0.5;
  hops.dirty_hops = 1;
  hops.full_rank_dirty_bound = 0.6;
  DynamicShedOptions dense = plain;
  dense.p = 0.9;  // the cut sits among the extension slots near the bottom
  DynamicShedOptions decay = plain;
  decay.dirty_hops = 1;
  decay.full_rank_dirty_bound = 0.6;
  decay.decay_half_life = 0.5;
  const std::vector<Config> configs = {
      {"plain",
       plain,
       {
           {0x712781c73e63d358ull, 0x1.58fffffffff16p+7, 6279, 596, true},
           {0x7ac0fb3dda96ed6dull, 0x1.5e6666666657cp+7, 120, 1, false},
           {0x1ee4b6643b45c4f2ull, 0x1.613333333324ap+7, 120, 4, false},
           {0x791488d7d8cf301full, 0x1.7fccccccccbdfp+7, 360, 12, false},
           {0x1aa4079ee28077d3ull, 0x1.81999999998abp+7, 360, 16, false},
           {0xc37b2b8b6dfbb223ull, 0x1.7a999999998a9p+7, 360, 16, false},
           {0x382ca111042ec0a3ull, 0x1.7f3333333324p+7, 360, 12, false},
           {0xa45a6b5ca7b89c62ull, 0x1.873333333323fp+7, 360, 15, false},
           {0xa45a6b5ca7b89c62ull, 0x1.873333333323fp+7, -1, -1, false},
           {0x27f4c791defa7827ull, 0x1.82ccccccccbd8p+7, 140, 4, false},
           {0x1bca87202c3f4150ull, 0x1.88999999998a6p+7, 120, 4, false},
           {0x1bca87202c3f4150ull, 0x1.8b66666666571p+7, 120, 0, false},
           {0x179bdbadee329c16ull, 0x1.8dccccccccbd5p+7, 120, 3, false},
       }},
      {"hops",
       hops,
       {
           {0xa02542339fc9b270ull, 0x1.a4p+7, 8970, 452, true},
           {0x6e027cce7ae1d76cull, 0x1.07p+8, 120, 3, false},
           {0x6306d8c6fbe21013ull, 0x1.39p+8, 120, 9, false},
           {0x66e5909f6c6160eaull, 0x1.ap+8, 360, 89, false},
           {0x6d72ed2691b59182ull, 0x1.9cp+8, 360, 75, false},
           {0x37b66709036fe8ebull, 0x1.92p+8, 360, 64, false},
           {0xf608720bfdbf14d2ull, 0x1.b9p+8, 360, 94, false},
           {0x17583f116d806ab5ull, 0x1.a8p+8, 360, 88, false},
           {0x17583f116d806ab5ull, 0x1.a8p+8, -1, -1, false},
           {0xbe25c76673922cd3ull, 0x1.9fp+8, 140, 27, false},
           {0x939c645b21377bafull, 0x1.a1p+8, 120, 21, false},
           {0x5f7b618eade4c029ull, 0x1.aap+8, 120, 22, false},
           {0x48b21da072846846ull, 0x1.a5p+8, 120, 32, false},
       }},
      {"dense",
       dense,
       {
           {0xf8546ace9b02056aull, 0x1.c733333332cf9p+7, 16146, 307, true},
           {0xf479f1fc395e2dbfull, 0x1.d199999999361p+7, 120, 4, false},
           {0xf0d8010be0a3ef7dull, 0x1.d66666666602fp+7, 120, 2, false},
           {0x0e552d38118d1a7dull, 0x1.e866666666028p+7, 360, 19, false},
           {0x9124c50fd03fc25full, 0x1.e0cccccccc68cp+7, 360, 28, false},
           {0x2a302272a34b1fe8ull, 0x1.db99999999359p+7, 360, 8, false},
           {0x91a176b3a74cecc9ull, 0x1.d933333332cf4p+7, 360, 10, false},
           {0x5805243ad201910full, 0x1.e533333332cf1p+7, 360, 21, false},
           {0x5805243ad201910full, 0x1.e533333332cf1p+7, -1, -1, false},
           {0xadc651e0fcb2d3ebull, 0x1.e466666666025p+7, 140, 2, false},
           {0xbecd0aff09deace8ull, 0x1.e6cccccccc689p+7, 120, 8, false},
           {0x9f5e725f56658db3ull, 0x1.e666666666022p+7, 120, 5, false},
           {0xd334e0d0881228aeull, 0x1.e1ffffffff9bdp+7, 120, 6, false},
       }},
      {"decay",
       decay,
       {
           {0x712781c73e63d358ull, 0x1.58fffffffff16p+7, 6279, 596, true},
           {0x1b44a541ee4bb9adull, 0x1.3399999999925p+8, 120, 19, false},
           {0x7c9c631377a81dbcull, 0x1.cbfffffffff8p+8, 120, 50, false},
           {0xd1aac73c35105534ull, 0x1.1e733333332edp+9, 360, 236, false},
           {0x0edd2a4964968a25ull, 0x1.098cccccccc8bp+9, 360, 230, false},
           {0xb263ccdf1c78ca27ull, 0x1.00e6666666624p+9, 360, 197, false},
           {0xeaad1fff490cbcbdull, 0x1.09e6666666628p+9, 360, 219, false},
           {0xb59302bcbfccde2bull, 0x1.0926666666628p+9, 360, 216, false},
           {0xb59302bcbfccde2bull, 0x1.0926666666628p+9, -1, -1, false},
           {0x6004a1cdef942239ull, 0x1.2199999999959p+9, 140, 70, false},
           {0xdfe8e26e4f6f0b9aull, 0x1.2d4cccccccc91p+9, 120, 65, false},
           {0x26c0f2732ba3e207ull, 0x1.42333333332fcp+9, 120, 69, false},
           {0x81fdf56178cc578dull, 0x1.3e8cccccccc99p+9, 120, 73, false},
       }},
  };
  for (const Config& config : configs) {
    SCOPED_TRACE(config.name);
    const std::vector<PinnedStep> got = RunPinnedScript(config.options);
    std::string table;
    for (const PinnedStep& s : got) {
      char line[160];
      std::snprintf(line, sizeof(line), "{0x%016llxull, %a, %.0f, %.0f, %s},\n",
                    static_cast<unsigned long long>(s.kept_hash),
                    s.total_delta, s.steps, s.swaps_accepted,
                    s.full_rank ? "true" : "false");
      table += line;
    }
    EXPECT_EQ(got.size(), config.want.size()) << table;
    if (got.size() != config.want.size()) continue;
    for (size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "reshed " << i);
      EXPECT_EQ(got[i].kept_hash, config.want[i].kept_hash) << table;
      EXPECT_EQ(got[i].total_delta, config.want[i].total_delta);
      EXPECT_EQ(got[i].steps, config.want[i].steps);
      EXPECT_EQ(got[i].swaps_accepted, config.want[i].swaps_accepted);
      EXPECT_EQ(got[i].full_rank, config.want[i].full_rank);
    }
  }
}

TEST(DynShedSession, KeptIdsPinnedAcrossBaseSwapsAndThreadCounts) {
  // The pinned script's four configurations, extended with base swaps, a
  // no-op re-shed after one and a 5% full-rank fallback, at 1 and 4
  // threads: kept-set hash, kept-id hash and Δ bits of every re-shed,
  // recorded before the session kept its kept set between versions.
  struct Pin {
    uint64_t kept_hash;
    uint64_t ids_hash;
    double total_delta;
    bool full_rank;
  };
  struct Config {
    const char* name;
    DynamicShedOptions options;
    std::vector<Pin> want;
  };
  DynamicShedOptions plain;
  plain.p = 0.35;
  DynamicShedOptions hops = plain;
  hops.p = 0.5;
  hops.dirty_hops = 1;
  hops.full_rank_dirty_bound = 0.6;
  DynamicShedOptions dense = plain;
  dense.p = 0.9;
  DynamicShedOptions decay = plain;
  decay.dirty_hops = 1;
  decay.full_rank_dirty_bound = 0.6;
  decay.decay_half_life = 0.5;
  const std::vector<Config> configs = {
      {"plain", plain, {
        {0x712781c73e63d358, 0x335c57eaf7be0435, 0x1.58fffffffff16p+7, true},
        {0x7ac0fb3dda96ed6d, 0x2e51764384ec86cd, 0x1.5e6666666657cp+7, false},
        {0x1ee4b6643b45c4f2, 0x830b1304b5e7f18e, 0x1.613333333324ap+7, false},
        {0x791488d7d8cf301f, 0xb1ee346328a775ad, 0x1.7fccccccccbdfp+7, false},
        {0x1aa4079ee28077d3, 0x5ff084ffe7739a3c, 0x1.81999999998abp+7, false},
        {0xc37b2b8b6dfbb223, 0xc9846db48de78086, 0x1.7a999999998a9p+7, false},
        {0x382ca111042ec0a3, 0x63b6857c8c1c9c79, 0x1.7f3333333324p+7, false},
        {0xa45a6b5ca7b89c62, 0x7acdb30698f6e7ca, 0x1.873333333323fp+7, false},
        {0xa45a6b5ca7b89c62, 0x7acdb30698f6e7ca, 0x1.873333333323fp+7, false},
        {0x27f4c791defa7827, 0xf85b3321c91d1058, 0x1.82ccccccccbd8p+7, false},
        {0x1bca87202c3f4150, 0x1b2328a98807f3f3, 0x1.88999999998a6p+7, false},
        {0x1bca87202c3f4150, 0xccc2f72369027926, 0x1.8b66666666571p+7, false},
        {0x179bdbadee329c16, 0x395638a15c485dbd, 0x1.8dccccccccbd5p+7, false},
        {0x4fe10ff1bce56e0f, 0x598f9c0498e7dfc4, 0x1.846666666656fp+7, false},
        {0x4fe10ff1bce56e0f, 0x598f9c0498e7dfc4, 0x1.846666666656fp+7, false},
        {0x64412eca4b67bc94, 0x955edf236a4bb51f, 0x1.73fffffffffdcp+7, true},
        {0x256d7d5cf843e087, 0xbf1a65d0c56d8e8c, 0x1.7999999999977p+7, false},
        {0x46f182417243c72a, 0x2a933f85a9b62c93, 0x1.813333333331p+7, false},
      }},
      {"hops", hops, {
        {0xa02542339fc9b270, 0xa7efe87239be8e37, 0x1.a4p+7, true},
        {0x6e027cce7ae1d76c, 0x00ac63be9009039a, 0x1.07p+8, false},
        {0x6306d8c6fbe21013, 0xe39943e16cec7c7c, 0x1.39p+8, false},
        {0x66e5909f6c6160ea, 0xd11e173800292bea, 0x1.ap+8, false},
        {0x6d72ed2691b59182, 0xe997f3ffc7cb7442, 0x1.9cp+8, false},
        {0x37b66709036fe8eb, 0x2cd62cd6e3d2d892, 0x1.92p+8, false},
        {0xf608720bfdbf14d2, 0xd4616e0bb8d965b8, 0x1.b9p+8, false},
        {0x17583f116d806ab5, 0xd372e7a807f1b140, 0x1.a8p+8, false},
        {0x17583f116d806ab5, 0xd372e7a807f1b140, 0x1.a8p+8, false},
        {0xbe25c76673922cd3, 0x7a194e54995f0c98, 0x1.9fp+8, false},
        {0x939c645b21377baf, 0x44bdd2eb773efc34, 0x1.a1p+8, false},
        {0x5f7b618eade4c029, 0x2e572466033cc275, 0x1.aap+8, false},
        {0x48b21da072846846, 0xb7a72dd974507f2c, 0x1.a5p+8, false},
        {0xc9dd6eda9cacac31, 0x8ff24461e20ede10, 0x1.91p+8, false},
        {0xc9dd6eda9cacac31, 0x8ff24461e20ede10, 0x1.91p+8, false},
        {0xa7a6c84b1f000a17, 0xe452490c8fe3aba4, 0x1.76p+7, true},
        {0x53a7ed3fa7baf74f, 0xbd16344e696042f5, 0x1.dap+7, false},
        {0xa09a2cad43608407, 0x8c14be2202d5ed90, 0x1.f8p+7, false},
      }},
      {"dense", dense, {
        {0xf8546ace9b02056a, 0xd1ae2b7311975acd, 0x1.c733333332cf9p+7, true},
        {0xf479f1fc395e2dbf, 0x55a90f4a4e5ff0c8, 0x1.d199999999361p+7, false},
        {0xf0d8010be0a3ef7d, 0xfddfad0b87cc3ec4, 0x1.d66666666602fp+7, false},
        {0x0e552d38118d1a7d, 0x1e67897c5adf9c0d, 0x1.e866666666028p+7, false},
        {0x9124c50fd03fc25f, 0x5880b73ba0ad52be, 0x1.e0cccccccc68cp+7, false},
        {0x2a302272a34b1fe8, 0x4d0d86e403280cd4, 0x1.db99999999359p+7, false},
        {0x91a176b3a74cecc9, 0xa668d8f59c8d80cc, 0x1.d933333332cf4p+7, false},
        {0x5805243ad201910f, 0x82610718a8b99174, 0x1.e533333332cf1p+7, false},
        {0x5805243ad201910f, 0x82610718a8b99174, 0x1.e533333332cf1p+7, false},
        {0xadc651e0fcb2d3eb, 0x24ab4215449e9cf1, 0x1.e466666666025p+7, false},
        {0xbecd0aff09deace8, 0x7e1209cdf028275a, 0x1.e6cccccccc689p+7, false},
        {0x9f5e725f56658db3, 0x7336b69210fbf78d, 0x1.e666666666022p+7, false},
        {0xd334e0d0881228ae, 0xa194d32018bebf0b, 0x1.e1ffffffff9bdp+7, false},
        {0x3bc69d15fa9c1607, 0xd11e2e8ff6054e9a, 0x1.e466666666022p+7, false},
        {0x3bc69d15fa9c1607, 0xd11e2e8ff6054e9a, 0x1.e466666666022p+7, false},
        {0x7fee8511cd908cdf, 0x1238c76b94d34e31, 0x1.d199999999528p+7, true},
        {0x299ffe96dd807759, 0x5461baf52b62fa3d, 0x1.d733333332ecp+7, false},
        {0x3ca5504bfb6eb1a9, 0x09030ccf35326875, 0x1.d9ffffffffb8bp+7, false},
      }},
      {"decay", decay, {
        {0x712781c73e63d358, 0x335c57eaf7be0435, 0x1.58fffffffff16p+7, true},
        {0x1b44a541ee4bb9ad, 0xb5a2de6fa82d75f9, 0x1.3399999999925p+8, false},
        {0x7c9c631377a81dbc, 0x25453d5b810d78e3, 0x1.cbfffffffff8p+8, false},
        {0xd1aac73c35105534, 0x86defdf52464c1dc, 0x1.1e733333332edp+9, false},
        {0x0edd2a4964968a25, 0xe10a8d9003191606, 0x1.098cccccccc8bp+9, false},
        {0xb263ccdf1c78ca27, 0xc85017f1cf0cd3d1, 0x1.00e6666666624p+9, false},
        {0xeaad1fff490cbcbd, 0x0646dc716bb6f907, 0x1.09e6666666628p+9, false},
        {0xb59302bcbfccde2b, 0x25433f01bab0cbc4, 0x1.0926666666628p+9, false},
        {0xb59302bcbfccde2b, 0x25433f01bab0cbc4, 0x1.0926666666628p+9, false},
        {0x6004a1cdef942239, 0x755e9045615e8d2b, 0x1.2199999999959p+9, false},
        {0xdfe8e26e4f6f0b9a, 0xfc35d61a444e3150, 0x1.2d4cccccccc91p+9, false},
        {0x26c0f2732ba3e207, 0x59fa04d22c8522a1, 0x1.42333333332fcp+9, false},
        {0x81fdf56178cc578d, 0x3e1f488703b3764b, 0x1.3e8cccccccc99p+9, false},
        {0x10e189cb17084156, 0x50a89b9b881409e9, 0x1.1d99999999964p+9, false},
        {0x10e189cb17084156, 0x50a89b9b881409e9, 0x1.1d99999999964p+9, false},
        {0x877d423a6fa24eed, 0x447037eddc0ba735, 0x1.6f66666666666p+7, true},
        {0x3ce7f1ed3287bdb3, 0x1ddfdbfb4686a829, 0x1.3bb333333332ep+8, false},
        {0xaee0ba358ce24403, 0xe50cc036dbcce733, 0x1.65ffffffffffbp+8, false},
      }},
  };
  for (const Config& config : configs) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << config.name << " at " << threads
                                        << " threads");
      DynamicShedOptions options = config.options;
      options.threads = threads;
      const std::vector<PinnedStep> got =
          RunPinnedScript(options, /*swap_bases=*/true);
      std::string table;
      for (const PinnedStep& s : got) {
        char line[160];
        std::snprintf(line, sizeof(line), "{0x%016llx, 0x%016llx, %a, %s},\n",
                      static_cast<unsigned long long>(s.kept_hash),
                      static_cast<unsigned long long>(s.ids_hash),
                      s.total_delta, s.full_rank ? "true" : "false");
        table += line;
      }
      EXPECT_EQ(got.size(), config.want.size()) << table;
      if (got.size() != config.want.size()) continue;
      for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "reshed " << i);
        EXPECT_EQ(got[i].kept_hash, config.want[i].kept_hash) << table;
        EXPECT_EQ(got[i].ids_hash, config.want[i].ids_hash);
        EXPECT_EQ(got[i].total_delta, config.want[i].total_delta);
        EXPECT_EQ(got[i].full_rank, config.want[i].full_rank);
      }
    }
  }
}

}  // namespace
}  // namespace edgeshed::dyn
