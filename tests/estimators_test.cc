#include "estimate/estimators.h"

#include <gtest/gtest.h>

#include "analytics/clustering.h"
#include "core/crr.h"
#include "core/random_shedding.h"
#include "graph/generators/generators.h"
#include "testing/test_graphs.h"

namespace edgeshed::estimate {
namespace {

using ::edgeshed::testing::Clique;
using ::edgeshed::testing::MustBuild;

class EstimatorsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(7);
    original_ = new graph::Graph(graph::PowerlawCluster(2000, 4, 0.5, rng));
  }
  static void TearDownTestSuite() {
    delete original_;
    original_ = nullptr;
  }
  static graph::Graph Reduce(double p) {
    auto result = core::RandomShedding(3).Shed(*original_, {.p = p});
    EDGESHED_CHECK(result.ok());
    return result->BuildReducedGraph(*original_);
  }
  static graph::Graph* original_;
};

graph::Graph* EstimatorsTest::original_ = nullptr;

TEST_F(EstimatorsTest, EdgeCountIsExactForTargetedShedders) {
  for (double p : {0.3, 0.5, 0.8}) {
    graph::Graph reduced = Reduce(p);
    EXPECT_NEAR(EstimatedEdgeCount(reduced, p),
                static_cast<double>(original_->NumEdges()),
                1.0 / p)  // rounding of the target count only
        << "p = " << p;
  }
}

TEST_F(EstimatorsTest, AverageDegreeMatches) {
  graph::Graph reduced = Reduce(0.5);
  EXPECT_NEAR(EstimatedAverageDegree(reduced, 0.5),
              original_->AverageDegree(), 0.05);
}

TEST_F(EstimatorsTest, PerVertexDegreesUnbiasedOnAverage) {
  graph::Graph reduced = Reduce(0.5);
  auto estimates = EstimatedDegrees(reduced, 0.5);
  double total_true = 0.0;
  double total_estimated = 0.0;
  for (graph::NodeId u = 0; u < original_->NumNodes(); ++u) {
    total_true += static_cast<double>(original_->Degree(u));
    total_estimated += estimates[u];
  }
  EXPECT_NEAR(total_estimated / total_true, 1.0, 0.02);
}

TEST_F(EstimatorsTest, TriangleCountWithinTolerance) {
  // Random shedding keeps each triangle with probability ~p^3 (edges are
  // nearly independent draws); the estimator inverts that.
  auto triangles_of = [](const graph::Graph& g) {
    auto per_node = analytics::TrianglesPerNode(g);
    uint64_t total = 0;
    for (uint64_t t : per_node) total += t;
    return static_cast<double>(total) / 3.0;
  };
  const double truth = triangles_of(*original_);
  graph::Graph reduced = Reduce(0.6);
  EXPECT_NEAR(EstimatedTriangleCount(reduced, 0.6) / truth, 1.0, 0.25);
}

TEST_F(EstimatorsTest, GlobalClusteringWithinTolerance) {
  auto transitivity_of = [](const graph::Graph& g) {
    auto per_node = analytics::TrianglesPerNode(g);
    uint64_t total = 0;
    for (uint64_t t : per_node) total += t;
    double wedges = 0;
    for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
      double d = static_cast<double>(g.Degree(u));
      wedges += d * (d - 1) / 2;
    }
    return wedges == 0 ? 0.0 : static_cast<double>(total) / wedges;
  };
  const double truth = transitivity_of(*original_);
  graph::Graph reduced = Reduce(0.6);
  EXPECT_NEAR(EstimatedGlobalClustering(reduced, 0.6), truth, truth * 0.35);
}

TEST_F(EstimatorsTest, SmoothedHistogramSplitsFractionalEstimates) {
  // At p = 0.4 the estimates deg'/p land on multiples of 2.5; plain
  // rounding would leave holes, while mass splitting populates both
  // adjacent integer bins (e.g. 2.5 -> bins 2 and 3).
  auto crr = core::Crr().Shed(*original_, {.p = 0.4});
  ASSERT_TRUE(crr.ok());
  graph::Graph reduced = crr->BuildReducedGraph(*original_);
  Histogram smoothed = EstimatedDegreeHistogramSmoothed(reduced, 0.4);
  uint64_t odd_mass = 0;
  for (int64_t k = 1; k <= 21; k += 2) odd_mass += smoothed.CountFor(k);
  EXPECT_GT(odd_mass, 0u);
  // And the halves split evenly: bin 2 and bin 3 both get mass from 2.5.
  EXPECT_GT(smoothed.CountFor(3), 0u);
}

TEST_F(EstimatorsTest, SmoothedHistogramMassIsOnePerVertex) {
  graph::Graph reduced = Reduce(0.4);
  Histogram smoothed = EstimatedDegreeHistogramSmoothed(reduced, 0.4);
  EXPECT_EQ(smoothed.total(), reduced.NumNodes() * 1000);
}

TEST(EstimatorsSmallTest, ReachablePairsLowerBound) {
  auto g = MustBuild(5, {{0, 1}, {1, 2}});
  // Component {0,1,2} has 3 pairs; singletons none.
  EXPECT_EQ(ReachablePairsLowerBound(g), 3u);
  EXPECT_EQ(ReachablePairsLowerBound(Clique(6)), 15u);
}

TEST(EstimatorsSmallTest, InvalidPAborts) {
  auto g = Clique(4);
  EXPECT_DEATH({ (void)EstimatedEdgeCount(g, 0.0); }, "");
  EXPECT_DEATH({ (void)EstimatedEdgeCount(g, 1.0); }, "");
}

}  // namespace
}  // namespace edgeshed::estimate
