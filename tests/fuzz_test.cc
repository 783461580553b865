// Randomized robustness sweeps: long random operation sequences and random
// graph families pushed through every public algorithm, asserting
// invariants rather than exact values. These catch bookkeeping drift and
// degenerate-input crashes that example-based tests miss.

#include <gtest/gtest.h>

#include <cmath>

#include "analytics/assortativity.h"
#include "analytics/betweenness.h"
#include "analytics/clustering.h"
#include "analytics/components.h"
#include "analytics/eigenvector.h"
#include "analytics/kcore.h"
#include "analytics/pagerank.h"
#include "analytics/shortest_paths.h"
#include "core/bm2.h"
#include "core/bounds.h"
#include "core/crr.h"
#include "core/discrepancy.h"
#include "graph/generators/generators.h"
#include "stream/streaming_shedder.h"

namespace edgeshed {
namespace {

TEST(FuzzDiscrepancyTest, LongRandomOperationSequenceStaysConsistent) {
  Rng rng(91);
  graph::Graph g = graph::ErdosRenyi(120, 500, rng);
  core::DegreeDiscrepancy d(g, 0.37);
  // Track which edges are "in" so removals stay legal.
  std::vector<bool> in(g.NumEdges(), false);
  std::vector<graph::EdgeId> current;
  for (int step = 0; step < 20000; ++step) {
    if (!current.empty() && rng.Bernoulli(0.45)) {
      size_t index = rng.UniformIndex(current.size());
      graph::EdgeId e = current[index];
      d.RemoveEdge(g.edge(e).u, g.edge(e).v);
      in[e] = false;
      current[index] = current.back();
      current.pop_back();
    } else {
      graph::EdgeId e =
          static_cast<graph::EdgeId>(rng.UniformU64(g.NumEdges()));
      if (in[e]) continue;
      d.AddEdge(g.edge(e).u, g.edge(e).v);
      in[e] = true;
      current.push_back(e);
    }
    if (step % 4096 == 0) {
      ASSERT_NEAR(d.TotalDelta(), d.RecomputeTotalDelta(), 1e-6)
          << "step " << step;
    }
  }
  EXPECT_NEAR(d.TotalDelta(), d.RecomputeTotalDelta(), 1e-6);
}

TEST(FuzzStreamingTest, RandomStreamsKeepInvariants) {
  Rng rng(92);
  for (int trial = 0; trial < 5; ++trial) {
    const double p = 0.1 + 0.2 * trial;
    stream::StreamingShedder shedder(p);
    const auto n = static_cast<graph::NodeId>(50 + 100 * trial);
    for (int step = 0; step < 3000; ++step) {
      auto u = static_cast<graph::NodeId>(rng.UniformU64(n));
      auto v = static_cast<graph::NodeId>(rng.UniformU64(n));
      shedder.AddEdge(u, v);  // self-loops/duplicates included on purpose
      ASSERT_LE(shedder.kept_edges().size(), shedder.Budget());
    }
    EXPECT_NEAR(shedder.TotalDelta(), shedder.RecomputeTotalDelta(), 1e-6)
        << "p = " << p;
  }
}

class FuzzAnalyticsTest : public ::testing::TestWithParam<int> {
 protected:
  graph::Graph MakeGraph() const {
    Rng rng(1000 + GetParam());
    switch (GetParam() % 5) {
      case 0:
        return graph::ErdosRenyi(150, 40, rng);  // very sparse, fragmented
      case 1:
        return graph::BarabasiAlbert(150, 2, rng);
      case 2:
        return graph::WattsStrogatz(150, 4, 0.5, rng);
      case 3:
        return graph::PlantedPartition(150, 5, 0.2, 0.01, rng);
      default:
        return graph::RMat(7, 4, 0.6, 0.15, 0.15, rng);
    }
  }
};

TEST_P(FuzzAnalyticsTest, AllAnalyticsSatisfyBasicInvariants) {
  graph::Graph g = MakeGraph();

  auto components = analytics::ConnectedComponents(g);
  uint64_t total = 0;
  for (uint64_t size : components.sizes) total += size;
  EXPECT_EQ(total, g.NumNodes());

  auto pagerank = analytics::PageRank(g);
  double pr_sum = 0.0;
  for (double s : pagerank) {
    EXPECT_GE(s, 0.0);
    pr_sum += s;
  }
  EXPECT_NEAR(pr_sum, 1.0, 1e-6);

  auto core = analytics::CoreDecomposition(g);
  for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_LE(core[u], g.Degree(u));
  }

  auto clustering = analytics::LocalClusteringCoefficients(g);
  for (double c : clustering) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0 + 1e-12);
  }

  const double r = analytics::DegreeAssortativity(g);
  EXPECT_GE(r, -1.0 - 1e-9);
  EXPECT_LE(r, 1.0 + 1e-9);

  auto eigen = analytics::EigenvectorCentrality(g);
  for (double s : eigen) EXPECT_GE(s, -1e-12);

  auto scores = analytics::Betweenness(g, analytics::BetweennessOptions::Exact());
  for (double s : scores.node) EXPECT_GE(s, -1e-9);
  for (double s : scores.edge) EXPECT_GE(s, -1e-9);

  auto profile = analytics::DistanceProfile(g);
  double previous = 0.0;
  for (int64_t k = 0; k <= 20; ++k) {
    double f = analytics::HopPlotFraction(profile, k);
    EXPECT_GE(f, previous - 1e-12);
    previous = f;
  }
}

TEST_P(FuzzAnalyticsTest, SheddersMeetBoundsOnEveryFamily) {
  graph::Graph g = MakeGraph();
  if (g.NumEdges() < 10) return;
  for (double p : {0.25, 0.75}) {
    auto crr = core::Crr().Shed(g, {.p = p});
    auto bm2 = core::Bm2().Shed(g, {.p = p});
    ASSERT_TRUE(crr.ok());
    ASSERT_TRUE(bm2.ok());
    EXPECT_LT(crr->average_delta, core::CrrAverageDeltaBound(g, p));
    EXPECT_LT(bm2->average_delta, core::Bm2AverageDeltaBound(g, p));
  }
}

INSTANTIATE_TEST_SUITE_P(Families, FuzzAnalyticsTest,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace edgeshed
