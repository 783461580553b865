#include "core/extra_baselines.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "analytics/components.h"
#include "core/shedding.h"
#include "graph/generators/generators.h"
#include "testing/test_graphs.h"

namespace edgeshed::core {
namespace {

using ::edgeshed::testing::PaperExampleGraph;
using ::edgeshed::testing::Star;

TEST(LocalDegreeTest, EveryVertexKeepsItsQuota) {
  Rng rng(5);
  auto g = graph::BarabasiAlbert(300, 4, rng);
  const double p = 0.4;
  auto result = LocalDegreeShedding().Shed(g, {.p = p});
  ASSERT_TRUE(result.ok());
  graph::Graph reduced = result->BuildReducedGraph(g);
  for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    if (g.Degree(u) == 0) continue;
    const auto quota = static_cast<uint64_t>(
        std::ceil(p * static_cast<double>(g.Degree(u))));
    EXPECT_GE(reduced.Degree(u), std::min<uint64_t>(quota, g.Degree(u)))
        << "node " << u;
  }
}

TEST(LocalDegreeTest, NoIsolatedVerticesProduced) {
  Rng rng(6);
  auto g = graph::BarabasiAlbert(200, 3, rng);
  auto result = LocalDegreeShedding().Shed(g, {.p = 0.2});
  ASSERT_TRUE(result.ok());
  graph::Graph reduced = result->BuildReducedGraph(g);
  for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    if (g.Degree(u) > 0) {
      EXPECT_GT(reduced.Degree(u), 0u);
    }
  }
}

TEST(LocalDegreeTest, TypicallyOvershootsTarget) {
  Rng rng(7);
  auto g = graph::BarabasiAlbert(300, 4, rng);
  auto result = LocalDegreeShedding().Shed(g, {.p = 0.3});
  ASSERT_TRUE(result.ok());
  // Union of per-node nominations exceeds round(p|E|) — documented behavior.
  EXPECT_GE(result->kept_edges.size(), TargetEdgeCount(g, 0.3));
}

TEST(LocalDegreeTest, Deterministic) {
  Rng rng(8);
  auto g = graph::ErdosRenyi(150, 450, rng);
  auto a = LocalDegreeShedding().Shed(g, {.p = 0.5});
  auto b = LocalDegreeShedding().Shed(g, {.p = 0.5});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->kept_edges, b->kept_edges);
}

TEST(LocalDegreeTest, RejectsInvalidP) {
  auto g = PaperExampleGraph();
  EXPECT_FALSE(LocalDegreeShedding().Shed(g, {.p = 0.0}).ok());
  EXPECT_FALSE(LocalDegreeShedding().Shed(g, {.p = 1.2}).ok());
}

TEST(SpanningForestTest, PreservesConnectivity) {
  Rng rng(9);
  auto g = graph::BarabasiAlbert(400, 3, rng);  // connected by construction
  for (double p : {0.1, 0.3, 0.6}) {
    auto result = SpanningForestShedding().Shed(g, {.p = p});
    ASSERT_TRUE(result.ok());
    graph::Graph reduced = result->BuildReducedGraph(g);
    auto components = analytics::ConnectedComponents(reduced);
    EXPECT_EQ(components.NumComponents(), 1u) << "p = " << p;
  }
}

TEST(SpanningForestTest, HitsTargetWhenForestFits) {
  Rng rng(10);
  auto g = graph::ErdosRenyi(200, 2000, rng);  // dense: forest << p|E|
  auto result = SpanningForestShedding().Shed(g, {.p = 0.5});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->kept_edges.size(), TargetEdgeCount(g, 0.5));
}

TEST(SpanningForestTest, ForestDominatesWhenTargetTooSmall) {
  // Tree input: forest = |E|; any p keeps the whole tree.
  auto g = Star(50);
  auto result = SpanningForestShedding().Shed(g, {.p = 0.1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->kept_edges.size(), 49u);
}

TEST(SpanningForestTest, MultiComponentForest) {
  auto g = edgeshed::testing::MustBuild(
      6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  auto result = SpanningForestShedding().Shed(g, {.p = 0.6});
  ASSERT_TRUE(result.ok());
  graph::Graph reduced = result->BuildReducedGraph(g);
  auto components = analytics::ConnectedComponents(reduced);
  EXPECT_EQ(components.NumComponents(), 2u);
}

TEST(SpanningForestTest, KeptEdgesUnique) {
  Rng rng(11);
  auto g = graph::ErdosRenyi(100, 400, rng);
  auto result = SpanningForestShedding().Shed(g, {.p = 0.4});
  ASSERT_TRUE(result.ok());
  std::set<graph::EdgeId> unique(result->kept_edges.begin(),
                                 result->kept_edges.end());
  EXPECT_EQ(unique.size(), result->kept_edges.size());
}

TEST(SpanningForestTest, DeterministicBySeed) {
  Rng rng(12);
  auto g = graph::ErdosRenyi(100, 300, rng);
  auto a = SpanningForestShedding(3).Shed(g, {.p = 0.5});
  auto b = SpanningForestShedding(3).Shed(g, {.p = 0.5});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->kept_edges, b->kept_edges);
}

TEST(ExtraBaselinesTest, NamesAreStable) {
  EXPECT_EQ(LocalDegreeShedding().name(), "local-degree");
  EXPECT_EQ(SpanningForestShedding().name(), "spanning-forest");
}

}  // namespace
}  // namespace edgeshed::core
