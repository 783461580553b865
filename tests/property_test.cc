// Property-style parameterized sweeps over (graph family x preservation
// ratio): the paper's core invariants must hold everywhere, not just on
// hand-picked fixtures.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/b_matching.h"
#include "core/bm2.h"
#include "core/bounds.h"
#include "core/crr.h"
#include "core/discrepancy.h"
#include "core/random_shedding.h"
#include "graph/generators/generators.h"

namespace edgeshed::core {
namespace {

enum class Family { kErdosRenyi, kBarabasiAlbert, kPowerlawCluster, kRMat };

const char* FamilyName(Family family) {
  switch (family) {
    case Family::kErdosRenyi:
      return "ErdosRenyi";
    case Family::kBarabasiAlbert:
      return "BarabasiAlbert";
    case Family::kPowerlawCluster:
      return "PowerlawCluster";
    case Family::kRMat:
      return "RMat";
  }
  return "?";
}

graph::Graph MakeFamilyGraph(Family family, uint64_t seed) {
  Rng rng(seed);
  switch (family) {
    case Family::kErdosRenyi:
      return graph::ErdosRenyi(300, 900, rng);
    case Family::kBarabasiAlbert:
      return graph::BarabasiAlbert(300, 3, rng);
    case Family::kPowerlawCluster:
      return graph::PowerlawCluster(300, 3, 0.6, rng);
    case Family::kRMat:
      return graph::RMat(8, 6, 0.57, 0.19, 0.19, rng);
  }
  return graph::Graph();
}

class SheddingPropertyTest
    : public ::testing::TestWithParam<std::tuple<Family, double>> {
 protected:
  Family family() const { return std::get<0>(GetParam()); }
  double p() const { return std::get<1>(GetParam()); }
  graph::Graph MakeGraph() const { return MakeFamilyGraph(family(), 1234); }
};

TEST_P(SheddingPropertyTest, CrrKeepsExactTargetCount) {
  auto g = MakeGraph();
  auto result = Crr().Shed(g, {.p = p()});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->kept_edges.size(), TargetEdgeCount(g, p()));
}

TEST_P(SheddingPropertyTest, CrrMeetsTheoremOneBound) {
  auto g = MakeGraph();
  auto result = Crr().Shed(g, {.p = p()});
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->average_delta, CrrAverageDeltaBound(g, p()));
}

TEST_P(SheddingPropertyTest, CrrDeltaMatchesRecomputation) {
  auto g = MakeGraph();
  auto result = Crr().Shed(g, {.p = p()});
  ASSERT_TRUE(result.ok());
  DegreeDiscrepancy d(g, p());
  for (graph::EdgeId e : result->kept_edges) {
    d.AddEdge(g.edge(e).u, g.edge(e).v);
  }
  EXPECT_NEAR(result->total_delta, d.RecomputeTotalDelta(), 1e-6);
}

TEST_P(SheddingPropertyTest, Bm2MeetsTheoremTwoBound) {
  auto g = MakeGraph();
  auto result = Bm2().Shed(g, {.p = p()});
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->average_delta, Bm2AverageDeltaBound(g, p()));
}

TEST_P(SheddingPropertyTest, Bm2Phase1IsMaximalBMatching) {
  auto g = MakeGraph();
  Bm2Options phase1_only;
  phase1_only.run_phase2 = false;
  auto result = Bm2(phase1_only).Shed(g, {.p = p()});
  ASSERT_TRUE(result.ok());
  auto capacities = Bm2::Capacities(g, p());
  EXPECT_TRUE(IsMaximalBMatching(g, result->kept_edges, capacities));
}

TEST_P(SheddingPropertyTest, Bm2NodesNeverExceedExpectationPlusOne) {
  auto g = MakeGraph();
  auto result = Bm2().Shed(g, {.p = p()});
  ASSERT_TRUE(result.ok());
  std::vector<uint32_t> load(g.NumNodes(), 0);
  for (graph::EdgeId e : result->kept_edges) {
    ++load[g.edge(e).u];
    ++load[g.edge(e).v];
  }
  for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_LE(static_cast<double>(load[u]),
              p() * static_cast<double>(g.Degree(u)) + 1.0 + 1e-9)
        << "node " << u;
  }
}

TEST_P(SheddingPropertyTest, KeptEdgesAreUniqueSubsets) {
  auto g = MakeGraph();
  Crr crr;
  Bm2 bm2;
  RandomShedding random;
  for (const EdgeShedder* shedder :
       {static_cast<const EdgeShedder*>(&crr),
        static_cast<const EdgeShedder*>(&bm2),
        static_cast<const EdgeShedder*>(&random)}) {
    auto result = shedder->Shed(g, {.p = p()});
    ASSERT_TRUE(result.ok()) << shedder->name();
    std::set<graph::EdgeId> unique(result->kept_edges.begin(),
                                   result->kept_edges.end());
    EXPECT_EQ(unique.size(), result->kept_edges.size()) << shedder->name();
    for (graph::EdgeId e : result->kept_edges) {
      EXPECT_LT(e, g.NumEdges()) << shedder->name();
    }
  }
}

TEST_P(SheddingPropertyTest, ReducedGraphDegreesNeverExceedOriginal) {
  auto g = MakeGraph();
  auto result = Bm2().Shed(g, {.p = p()});
  ASSERT_TRUE(result.ok());
  auto reduced = result->BuildReducedGraph(g);
  ASSERT_EQ(reduced.NumNodes(), g.NumNodes());
  for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_LE(reduced.Degree(u), g.Degree(u));
  }
}

TEST_P(SheddingPropertyTest, CrrNotWorseThanRandomOnDelta) {
  auto g = MakeGraph();
  auto crr_result = Crr().Shed(g, {.p = p()});
  auto random_result = RandomShedding().Shed(g, {.p = p()});
  ASSERT_TRUE(crr_result.ok());
  ASSERT_TRUE(random_result.ok());
  EXPECT_LE(crr_result->total_delta, random_result->total_delta + 1e-9);
}

TEST_P(SheddingPropertyTest, Bm2CompetitiveWithRandomOnDelta) {
  // BM2 usually beats uniform sampling on Δ, but not always: integer
  // capacity rounding costs up to 0.5 per vertex, and on heavy-tailed
  // graphs at large p binomial concentration makes random sampling a
  // strong Δ baseline. Assert BM2 stays within 30% — the paper's claims
  // are about beating UDS, not random sampling on this metric.
  auto g = MakeGraph();
  auto bm2_result = Bm2().Shed(g, {.p = p()});
  auto random_result = RandomShedding().Shed(g, {.p = p()});
  ASSERT_TRUE(bm2_result.ok());
  ASSERT_TRUE(random_result.ok());
  EXPECT_LE(bm2_result->total_delta,
            random_result->total_delta * 1.3 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndRatios, SheddingPropertyTest,
    ::testing::Combine(::testing::Values(Family::kErdosRenyi,
                                         Family::kBarabasiAlbert,
                                         Family::kPowerlawCluster,
                                         Family::kRMat),
                       ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9)),
    [](const ::testing::TestParamInfo<std::tuple<Family, double>>& info) {
      return std::string(FamilyName(std::get<0>(info.param))) + "_p" +
             std::to_string(
                 static_cast<int>(std::get<1>(info.param) * 10 + 0.5));
    });

}  // namespace
}  // namespace edgeshed::core
