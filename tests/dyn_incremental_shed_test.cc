#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

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

}  // namespace
}  // namespace edgeshed::dyn
