#include "core/bm2.h"

#include <gtest/gtest.h>

#include <set>

#include "core/bounds.h"
#include "core/discrepancy.h"
#include "graph/generators/generators.h"
#include "testing/test_graphs.h"

namespace edgeshed::core {
namespace {

using ::edgeshed::testing::PaperExampleGraph;

TEST(Bm2Test, PaperExampleEndToEnd) {
  auto g = PaperExampleGraph();
  auto result = Bm2().Shed(g, {.p = 0.4});
  ASSERT_TRUE(result.ok());
  // Phase 1 (greedy over canonical edge order) matches (u7,u9) and (u8,u9);
  // Phase 2 then adds two u7-leaf edges, exactly as the Example-2 dynamics
  // dictate for this maximal b-matching.
  EXPECT_EQ(result->kept_edges.size(), 4u);
  std::set<graph::EdgeId> kept(result->kept_edges.begin(),
                               result->kept_edges.end());
  EXPECT_TRUE(kept.contains(g.FindEdge(6, 8)));  // u7-u9
  EXPECT_TRUE(kept.contains(g.FindEdge(7, 8)));  // u8-u9
  EXPECT_TRUE(kept.contains(g.FindEdge(0, 6)));  // u7-u1
  EXPECT_TRUE(kept.contains(g.FindEdge(1, 6)));  // u7-u2
  // Final Δ: u7 +0.2, u9 +0.4, u8 +0.2, u10 -0.8, u1/u2 +0.6 each,
  // u3..u6 and u11 -0.4 each: total 4.8.
  EXPECT_NEAR(result->total_delta, 4.8, 1e-9);
}

TEST(Bm2Test, RejectsInvalidP) {
  auto g = PaperExampleGraph();
  EXPECT_FALSE(Bm2().Shed(g, {.p = 0.0}).ok());
  EXPECT_FALSE(Bm2().Shed(g, {.p = 1.0}).ok());
}

TEST(Bm2Test, CapacitiesRounding) {
  auto g = PaperExampleGraph();
  auto capacities = Bm2::Capacities(g, 0.5);
  EXPECT_EQ(capacities[6], 4u);  // round(3.5) away from zero
  EXPECT_EQ(capacities[8], 2u);  // round(2.0)
  EXPECT_EQ(capacities[0], 1u);  // round(0.5) away from zero
}

TEST(Bm2Test, KeptEdgesAreValidAndUnique) {
  Rng rng(61);
  auto g = graph::BarabasiAlbert(400, 4, rng);
  auto result = Bm2().Shed(g, {.p = 0.6});
  ASSERT_TRUE(result.ok());
  std::set<graph::EdgeId> unique(result->kept_edges.begin(),
                                 result->kept_edges.end());
  EXPECT_EQ(unique.size(), result->kept_edges.size());
  for (graph::EdgeId e : result->kept_edges) EXPECT_LT(e, g.NumEdges());
}

TEST(Bm2Test, ReportedDeltaMatchesRecomputation) {
  Rng rng(62);
  auto g = graph::ErdosRenyi(300, 900, rng);
  auto result = Bm2().Shed(g, {.p = 0.5});
  ASSERT_TRUE(result.ok());
  DegreeDiscrepancy d(g, 0.5);
  for (graph::EdgeId e : result->kept_edges) {
    d.AddEdge(g.edge(e).u, g.edge(e).v);
  }
  EXPECT_NEAR(result->total_delta, d.RecomputeTotalDelta(), 1e-6);
}

TEST(Bm2Test, SatisfiesTheoremTwoBound) {
  Rng rng(63);
  for (double p : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    auto g = graph::BarabasiAlbert(300, 4, rng);
    auto result = Bm2().Shed(g, {.p = p});
    ASSERT_TRUE(result.ok());
    EXPECT_LT(result->average_delta, Bm2AverageDeltaBound(g, p))
        << "p = " << p;
  }
}

TEST(Bm2Test, Phase2ImprovesOrMatchesPhase1Delta) {
  Rng rng(64);
  auto g = graph::BarabasiAlbert(500, 4, rng);
  for (double p : {0.2, 0.5, 0.8}) {
    Bm2Options phase1_only;
    phase1_only.run_phase2 = false;
    auto without = Bm2(phase1_only).Shed(g, {.p = p});
    auto with = Bm2().Shed(g, {.p = p});
    ASSERT_TRUE(without.ok());
    ASSERT_TRUE(with.ok());
    EXPECT_LE(with->total_delta, without->total_delta + 1e-9) << "p = " << p;
  }
}

TEST(Bm2Test, Phase1RespectsCapacities) {
  Rng rng(65);
  auto g = graph::ErdosRenyi(200, 800, rng);
  Bm2Options phase1_only;
  phase1_only.run_phase2 = false;
  auto result = Bm2(phase1_only).Shed(g, {.p = 0.5});
  ASSERT_TRUE(result.ok());
  auto capacities = Bm2::Capacities(g, 0.5);
  std::vector<uint32_t> load(g.NumNodes(), 0);
  for (graph::EdgeId e : result->kept_edges) {
    ++load[g.edge(e).u];
    ++load[g.edge(e).v];
  }
  for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_LE(load[u], capacities[u]);
  }
}

TEST(Bm2Test, Phase2OvershootsByLessThanOnePerNode) {
  // Phase 2 only adds edges at nodes below expectation (A side) or less
  // than 0.5 below (B side); afterwards no node exceeds expected + 1.
  Rng rng(66);
  auto g = graph::BarabasiAlbert(300, 5, rng);
  auto result = Bm2().Shed(g, {.p = 0.5});
  ASSERT_TRUE(result.ok());
  std::vector<uint32_t> load(g.NumNodes(), 0);
  for (graph::EdgeId e : result->kept_edges) {
    ++load[g.edge(e).u];
    ++load[g.edge(e).v];
  }
  for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_LE(static_cast<double>(load[u]),
              0.5 * static_cast<double>(g.Degree(u)) + 1.0 + 1e-9);
  }
}

TEST(Bm2Test, EdgeCountTracksExpectedTotal) {
  // BM2 does not pin |E'| to round(p|E|), but it should land close: each
  // vertex ends within ~1 of p*deg, so |E'| is within about |V|/2 of p|E|.
  Rng rng(67);
  auto g = graph::BarabasiAlbert(500, 4, rng);
  for (double p : {0.3, 0.6, 0.9}) {
    auto result = Bm2().Shed(g, {.p = p});
    ASSERT_TRUE(result.ok());
    const double target = p * static_cast<double>(g.NumEdges());
    EXPECT_NEAR(static_cast<double>(result->kept_edges.size()), target,
                static_cast<double>(g.NumNodes()) / 2.0 + 1)
        << "p = " << p;
  }
}

TEST(Bm2Test, DeterministicInInputOrderMode) {
  Rng rng(68);
  auto g = graph::ErdosRenyi(150, 500, rng);
  auto a = Bm2().Shed(g, {.p = 0.5});
  auto b = Bm2().Shed(g, {.p = 0.5});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->kept_edges, b->kept_edges);
}

TEST(Bm2Test, ShuffledOrderIsValid) {
  Rng rng(69);
  auto g = graph::ErdosRenyi(150, 500, rng);
  Bm2Options options;
  options.edge_order = BMatchingEdgeOrder::kShuffled;
  options.seed = 123;
  auto result = Bm2(options).Shed(g, {.p = 0.5});
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->average_delta, Bm2AverageDeltaBound(g, 0.5));
}

TEST(Bm2Test, StatsArePopulated) {
  auto g = PaperExampleGraph();
  auto result = Bm2().Shed(g, {.p = 0.4});
  ASSERT_TRUE(result.ok());
  double phase1_edges = -1;
  double phase2_edges = -1;
  for (const auto& [key, value] : result->stats) {
    if (key == "phase1_edges") phase1_edges = value;
    if (key == "phase2_edges") phase2_edges = value;
  }
  EXPECT_DOUBLE_EQ(phase1_edges, 2.0);
  EXPECT_DOUBLE_EQ(phase2_edges, 2.0);
}

TEST(Bm2Test, NameIsStable) {
  EXPECT_EQ(Bm2().name(), "bm2");
}

TEST(Bm2Test, IsolatedVerticesAreHandled) {
  // Graph with isolated vertices: they have expected degree 0 and must
  // simply stay isolated.
  auto g = edgeshed::testing::MustBuild(6, {{0, 1}, {1, 2}, {2, 0}});
  auto result = Bm2().Shed(g, {.p = 0.5});
  ASSERT_TRUE(result.ok());
  for (graph::EdgeId e : result->kept_edges) {
    EXPECT_LT(g.edge(e).u, 3u);
    EXPECT_LT(g.edge(e).v, 3u);
  }
}

}  // namespace
}  // namespace edgeshed::core
