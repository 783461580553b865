#include "core/random_shedding.h"

#include <gtest/gtest.h>

#include <set>

#include "core/discrepancy.h"
#include "core/shedding.h"
#include "graph/generators/generators.h"
#include "testing/test_graphs.h"

namespace edgeshed::core {
namespace {

using ::edgeshed::testing::PaperExampleGraph;

TEST(RandomSheddingTest, KeepsTargetEdgeCount) {
  auto g = PaperExampleGraph();
  auto result = RandomShedding().Shed(g, {.p = 0.4});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->kept_edges.size(), 4u);
}

TEST(RandomSheddingTest, EdgesAreDistinctAndValid) {
  Rng rng(71);
  auto g = graph::ErdosRenyi(200, 600, rng);
  auto result = RandomShedding().Shed(g, {.p = 0.5});
  ASSERT_TRUE(result.ok());
  std::set<graph::EdgeId> unique(result->kept_edges.begin(),
                                 result->kept_edges.end());
  EXPECT_EQ(unique.size(), 300u);
  for (graph::EdgeId e : result->kept_edges) EXPECT_LT(e, 600u);
}

TEST(RandomSheddingTest, DeterministicBySeed) {
  auto g = PaperExampleGraph();
  auto a = RandomShedding(5).Shed(g, {.p = 0.5});
  auto b = RandomShedding(5).Shed(g, {.p = 0.5});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->kept_edges, b->kept_edges);
  auto c = RandomShedding(6).Shed(g, {.p = 0.5});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->kept_edges.size(), a->kept_edges.size());
}

TEST(RandomSheddingTest, RejectsInvalidP) {
  auto g = PaperExampleGraph();
  EXPECT_FALSE(RandomShedding().Shed(g, {.p = 0.0}).ok());
  EXPECT_FALSE(RandomShedding().Shed(g, {.p = 1.0}).ok());
}

TEST(RandomSheddingTest, DeltaIsConsistent) {
  auto g = PaperExampleGraph();
  auto result = RandomShedding().Shed(g, {.p = 0.4});
  ASSERT_TRUE(result.ok());
  DegreeDiscrepancy d(g, 0.4);
  for (graph::EdgeId e : result->kept_edges) {
    d.AddEdge(g.edge(e).u, g.edge(e).v);
  }
  EXPECT_NEAR(result->total_delta, d.RecomputeTotalDelta(), 1e-9);
}

TEST(RandomSheddingTest, NameIsStable) {
  EXPECT_EQ(RandomShedding().name(), "random");
}

TEST(ValidatePreservationRatioTest, Boundaries) {
  EXPECT_TRUE(ValidatePreservationRatio(0.5).ok());
  EXPECT_TRUE(ValidatePreservationRatio(0.0001).ok());
  EXPECT_FALSE(ValidatePreservationRatio(0.0).ok());
  EXPECT_FALSE(ValidatePreservationRatio(1.0).ok());
  EXPECT_FALSE(ValidatePreservationRatio(-1.0).ok());
  EXPECT_FALSE(ValidatePreservationRatio(2.0).ok());
}

}  // namespace
}  // namespace edgeshed::core
