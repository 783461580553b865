#include "eval/metrics.h"

#include <gtest/gtest.h>

#include "core/crr.h"
#include "graph/generators/generators.h"
#include "testing/test_graphs.h"

namespace edgeshed::eval {
namespace {

using ::edgeshed::testing::MustBuild;
using ::edgeshed::testing::Star;

TEST(TopPercentNodesTest, TakesRoundedPercent) {
  std::vector<double> scores(100);
  for (int i = 0; i < 100; ++i) scores[i] = i;
  auto top = TopPercentNodes(scores, 10.0);
  ASSERT_EQ(top.size(), 10u);
  EXPECT_EQ(top[0], 99u);
  EXPECT_EQ(top[9], 90u);
}

TEST(TopPercentNodesTest, EligibleFilterShrinksPool) {
  std::vector<double> scores{5, 4, 3, 2, 1, 0, 0, 0, 0, 0};
  std::vector<bool> eligible(10, false);
  for (int i = 0; i < 5; ++i) eligible[i] = true;
  // Pool is 5 nodes; 20% of 5 = 1.
  auto top = TopPercentNodes(scores, 20.0, &eligible);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0], 0u);
}

TEST(TopPercentNodesTest, TiesBrokenByIndex) {
  std::vector<double> scores(10, 1.0);
  auto top = TopPercentNodes(scores, 30.0);
  EXPECT_EQ(top, (std::vector<uint32_t>{0, 1, 2}));
}

TEST(TopPercentNodesTest, EmptyScores) {
  EXPECT_TRUE(TopPercentNodes({}, 10.0).empty());
}

TEST(OverlapUtilityTest, Values) {
  EXPECT_DOUBLE_EQ(OverlapUtility({1, 2, 3}, {1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(OverlapUtility({1, 2, 3}, {4, 5, 6}), 0.0);
  EXPECT_DOUBLE_EQ(OverlapUtility({1, 2, 3, 4}, {1, 2}), 0.5);
  EXPECT_DOUBLE_EQ(OverlapUtility({}, {1}), 0.0);
}

TEST(NonIsolatedCountTest, CountsNodesWithEdges) {
  auto g = MustBuild(5, {{0, 1}});
  EXPECT_EQ(NonIsolatedCount(g), 2u);
  EXPECT_EQ(NonIsolatedCount(MustBuild(3, {})), 0u);
}

TEST(TopKUtilityForReducedTest, IdenticalGraphScoresOne) {
  Rng rng(111);
  auto g = graph::BarabasiAlbert(200, 3, rng);
  EXPECT_DOUBLE_EQ(TopKUtilityForReduced(g, g, 10.0), 1.0);
}

TEST(TopKUtilityForReducedTest, EmptyReducedScoresZero) {
  Rng rng(112);
  auto g = graph::BarabasiAlbert(100, 3, rng);
  auto empty = MustBuild(100, {});
  EXPECT_DOUBLE_EQ(TopKUtilityForReduced(g, empty, 10.0), 0.0);
}

TEST(TopKUtilityForReducedTest, GoodReductionScoresHigh) {
  Rng rng(113);
  auto g = graph::BarabasiAlbert(500, 4, rng);
  auto result = core::Crr().Shed(g, {.p = 0.8});
  ASSERT_TRUE(result.ok());
  auto reduced = result->BuildReducedGraph(g);
  EXPECT_GT(TopKUtilityForReduced(g, reduced, 10.0), 0.6);
}

TEST(TopKUtilityForReducedTest, UtilityWithinUnitInterval) {
  Rng rng(114);
  auto g = graph::ErdosRenyi(200, 600, rng);
  auto result = core::Crr().Shed(g, {.p = 0.3});
  ASSERT_TRUE(result.ok());
  double utility = TopKUtilityForReduced(g, result->BuildReducedGraph(g), 10.0);
  EXPECT_GE(utility, 0.0);
  EXPECT_LE(utility, 1.0);
}

TEST(TopKUtilityForUdsTest, SingletonSummaryIsPerfect) {
  // A UDS summary where every vertex is its own supernode and the summary
  // graph equals the original reproduces the original ranking exactly.
  Rng rng(115);
  auto g = graph::BarabasiAlbert(100, 3, rng);
  baseline::UdsSummary summary;
  summary.supernode_of.resize(100);
  for (uint32_t u = 0; u < 100; ++u) {
    summary.supernode_of[u] = u;
    summary.members.push_back({u});
  }
  summary.summary_graph = g;
  EXPECT_DOUBLE_EQ(TopKUtilityForUds(g, summary, 10.0), 1.0);
}

}  // namespace
}  // namespace edgeshed::eval
