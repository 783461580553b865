#include "stream/streaming_shedder.h"

#include <gtest/gtest.h>

#include "core/random_shedding.h"
#include "graph/generators/generators.h"
#include "testing/test_graphs.h"

namespace edgeshed::stream {
namespace {

using ::edgeshed::testing::PaperExampleGraph;

TEST(StreamingShedderTest, BudgetInvariantHoldsThroughout) {
  Rng rng(21);
  auto g = graph::BarabasiAlbert(500, 3, rng);
  StreamingShedder shedder(0.4);
  for (const graph::Edge& e : g.edges()) {
    shedder.AddEdge(e.u, e.v);
    EXPECT_LE(shedder.kept_edges().size(), shedder.Budget());
  }
  EXPECT_EQ(shedder.EdgesSeen(), g.NumEdges());
}

TEST(StreamingShedderTest, BudgetIsReachedAtEnd) {
  Rng rng(22);
  auto g = graph::ErdosRenyi(300, 1200, rng);
  StreamingShedder shedder(0.5);
  for (const graph::Edge& e : g.edges()) shedder.AddEdge(e.u, e.v);
  // Kept count should equal the budget (an admit happens whenever under).
  EXPECT_EQ(shedder.kept_edges().size(), shedder.Budget());
}

TEST(StreamingShedderTest, DeltaMatchesRecomputation) {
  Rng rng(23);
  auto g = graph::BarabasiAlbert(300, 4, rng);
  StreamingShedder shedder(0.3);
  for (const graph::Edge& e : g.edges()) shedder.AddEdge(e.u, e.v);
  EXPECT_NEAR(shedder.TotalDelta(), shedder.RecomputeTotalDelta(), 1e-6);
}

TEST(StreamingShedderTest, SelfLoopsIgnored) {
  StreamingShedder shedder(0.5);
  shedder.AddEdge(3, 3);
  EXPECT_EQ(shedder.EdgesSeen(), 0u);
}

TEST(StreamingShedderTest, DuplicateKeptEdgesIgnored) {
  StreamingShedder shedder(0.9);
  shedder.AddEdge(0, 1);
  shedder.AddEdge(0, 2);
  const uint64_t seen = shedder.EdgesSeen();
  // (0,1) was admitted (budget allows); re-sending it must be a no-op.
  if (!shedder.kept_edges().empty()) {
    const graph::Edge& kept = shedder.kept_edges().front();
    shedder.AddEdge(kept.u, kept.v);
    EXPECT_EQ(shedder.EdgesSeen(), seen);
  }
}

TEST(StreamingShedderTest, NodesGrowOnDemand) {
  StreamingShedder shedder(0.5);
  shedder.AddEdge(0, 1);
  EXPECT_EQ(shedder.NumNodes(), 2u);
  shedder.AddEdge(999, 5);
  EXPECT_EQ(shedder.NumNodes(), 1000u);
}

TEST(StreamingShedderTest, SnapshotMatchesKeptEdges) {
  Rng rng(24);
  auto g = graph::ErdosRenyi(100, 400, rng);
  StreamingShedder shedder(0.5);
  for (const graph::Edge& e : g.edges()) shedder.AddEdge(e.u, e.v);
  graph::Graph snapshot = shedder.SnapshotGraph();
  EXPECT_EQ(snapshot.NumEdges(), shedder.kept_edges().size());
  for (const graph::Edge& e : shedder.kept_edges()) {
    EXPECT_TRUE(snapshot.HasEdge(e.u, e.v));
  }
}

TEST(StreamingShedderTest, KeptEdgesAreRealStreamEdges) {
  Rng rng(25);
  auto g = graph::BarabasiAlbert(200, 3, rng);
  StreamingShedder shedder(0.4);
  for (const graph::Edge& e : g.edges()) shedder.AddEdge(e.u, e.v);
  for (const graph::Edge& e : shedder.kept_edges()) {
    EXPECT_TRUE(g.HasEdge(e.u, e.v));
  }
}

TEST(StreamingShedderTest, CompetitiveWithOfflineRandom) {
  // One-pass shedding with best-of-8 eviction should not be much worse on
  // Δ than offline uniform sampling of the same budget.
  Rng rng(26);
  auto g = graph::BarabasiAlbert(800, 4, rng);
  StreamingShedder shedder(0.5);
  for (const graph::Edge& e : g.edges()) shedder.AddEdge(e.u, e.v);

  auto offline = core::RandomShedding(3).Shed(g, {.p = 0.5});
  ASSERT_TRUE(offline.ok());
  EXPECT_LT(shedder.TotalDelta(), offline->total_delta * 1.2);
}

TEST(StreamingShedderTest, MoreEvictionSamplesHelpOrTie) {
  Rng rng(27);
  auto g = graph::BarabasiAlbert(600, 4, rng);
  StreamingShedderOptions weak;
  weak.eviction_samples = 1;
  StreamingShedderOptions strong;
  strong.eviction_samples = 16;
  StreamingShedder a(0.4, weak);
  StreamingShedder b(0.4, strong);
  for (const graph::Edge& e : g.edges()) {
    a.AddEdge(e.u, e.v);
    b.AddEdge(e.u, e.v);
  }
  EXPECT_LE(b.TotalDelta(), a.TotalDelta() * 1.05);
}

TEST(StreamingShedderTest, DeterministicBySeed) {
  Rng rng(28);
  auto g = graph::ErdosRenyi(150, 600, rng);
  StreamingShedderOptions options;
  options.seed = 77;
  StreamingShedder a(0.5, options);
  StreamingShedder b(0.5, options);
  for (const graph::Edge& e : g.edges()) {
    a.AddEdge(e.u, e.v);
    b.AddEdge(e.u, e.v);
  }
  EXPECT_EQ(a.kept_edges().size(), b.kept_edges().size());
  EXPECT_DOUBLE_EQ(a.TotalDelta(), b.TotalDelta());
}

TEST(StreamingShedderTest, RemoveEdgeDropsKeptEdgeAndShrinksBudget) {
  StreamingShedder shedder(0.9);
  for (graph::NodeId v = 1; v <= 10; ++v) shedder.AddEdge(0, v);
  ASSERT_EQ(shedder.EdgesSeen(), 10u);
  const graph::Edge victim = shedder.kept_edges().front();

  shedder.RemoveEdge(victim.u, victim.v);
  EXPECT_EQ(shedder.EdgesSeen(), 9u);
  for (const graph::Edge& e : shedder.kept_edges()) {
    EXPECT_FALSE(e.u == victim.u && e.v == victim.v);
  }
  EXPECT_LE(shedder.kept_edges().size(), shedder.Budget());
  EXPECT_NEAR(shedder.TotalDelta(), shedder.RecomputeTotalDelta(), 1e-6);

  // Ignored deletions: self-loop, unknown endpoint, already-deleted edge.
  const uint64_t seen = shedder.EdgesSeen();
  shedder.RemoveEdge(3, 3);
  shedder.RemoveEdge(0, 999);
  shedder.RemoveEdge(victim.u, victim.v);
  shedder.RemoveEdge(victim.u, victim.v);  // deg budget exhausted by now
  EXPECT_LE(seen - shedder.EdgesSeen(), 1u);
}

TEST(StreamingShedderTest, InterleavedRemovalsKeepInvariants) {
  Rng rng(29);
  auto g = graph::BarabasiAlbert(400, 4, rng);
  StreamingShedder shedder(0.4);
  const auto& edges = g.edges();
  // Stream everything in, then a turnstile phase: delete every 7th original
  // edge while inserting fresh chords between random live endpoints.
  for (const graph::Edge& e : edges) shedder.AddEdge(e.u, e.v);
  for (size_t i = 0; i < edges.size(); i += 7) {
    shedder.RemoveEdge(edges[i].u, edges[i].v);
    const auto u = static_cast<graph::NodeId>(rng.UniformIndex(400));
    const auto v = static_cast<graph::NodeId>(rng.UniformIndex(400));
    shedder.AddEdge(u, v);
    EXPECT_LE(shedder.kept_edges().size(), shedder.Budget());
  }
  EXPECT_NEAR(shedder.TotalDelta(), shedder.RecomputeTotalDelta(), 1e-6);
  // Every kept edge is still a live stream edge with sane endpoints.
  for (const graph::Edge& e : shedder.kept_edges()) {
    EXPECT_LT(e.u, e.v);
    EXPECT_LT(e.v, shedder.NumNodes());
  }
}

TEST(StreamingShedderDeathTest, InvalidRatioAborts) {
  EXPECT_DEATH({ StreamingShedder shedder(0.0); }, "");
  EXPECT_DEATH({ StreamingShedder shedder(1.0); }, "");
}

TEST(StreamingShedderTest, PaperExampleBudget) {
  auto g = PaperExampleGraph();
  StreamingShedder shedder(0.4);
  for (const graph::Edge& e : g.edges()) shedder.AddEdge(e.u, e.v);
  // round(0.4 * 11) = 4, same as offline CRR's [P].
  EXPECT_EQ(shedder.Budget(), 4u);
  EXPECT_EQ(shedder.kept_edges().size(), 4u);
}

}  // namespace
}  // namespace edgeshed::stream
