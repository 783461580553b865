// Cross-module invariant sweeps: laws that must hold between a graph and
// any spanning subgraph of it (which is exactly what every shedder
// produces). Parameterized over generator families, preservation ratios,
// and shedding methods — the strongest correctness net in the suite,
// because each assertion couples two independently implemented modules.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "analytics/clustering.h"
#include "analytics/components.h"
#include "analytics/shortest_paths.h"
#include "core/bm2.h"
#include "core/crr.h"
#include "core/random_shedding.h"
#include "graph/generators/generators.h"
#include "graph/operations.h"

namespace edgeshed {
namespace {

enum class Method { kCrr, kBm2, kRandom };

const char* MethodName(Method m) {
  switch (m) {
    case Method::kCrr:
      return "Crr";
    case Method::kBm2:
      return "Bm2";
    case Method::kRandom:
      return "Random";
  }
  return "?";
}

class SubgraphLawsTest
    : public ::testing::TestWithParam<std::tuple<Method, double>> {
 protected:
  static void SetUpTestSuite() {
    Rng rng(2027);
    graph_ = new graph::Graph(graph::PowerlawCluster(400, 4, 0.5, rng));
  }
  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }

  graph::Graph Reduce() const {
    const auto& [method, p] = GetParam();
    StatusOr<core::SheddingResult> result = [&]() {
      switch (method) {
        case Method::kCrr:
          return core::Crr().Shed(*graph_, {.p = p});
        case Method::kBm2:
          return core::Bm2().Shed(*graph_, {.p = p});
        default:
          return core::RandomShedding().Shed(*graph_, {.p = p});
      }
    }();
    EDGESHED_CHECK(result.ok());
    return result->BuildReducedGraph(*graph_);
  }

  static graph::Graph* graph_;
};

graph::Graph* SubgraphLawsTest::graph_ = nullptr;

TEST_P(SubgraphLawsTest, ReducedIsSubgraph) {
  graph::Graph reduced = Reduce();
  for (const graph::Edge& e : reduced.edges()) {
    EXPECT_TRUE(graph_->HasEdge(e.u, e.v));
  }
}

TEST_P(SubgraphLawsTest, DegreesNeverGrow) {
  graph::Graph reduced = Reduce();
  for (graph::NodeId u = 0; u < graph_->NumNodes(); ++u) {
    EXPECT_LE(reduced.Degree(u), graph_->Degree(u));
  }
}

TEST_P(SubgraphLawsTest, TrianglesNeverGrow) {
  graph::Graph reduced = Reduce();
  auto original_triangles = analytics::TrianglesPerNode(*graph_);
  auto reduced_triangles = analytics::TrianglesPerNode(reduced);
  for (graph::NodeId u = 0; u < graph_->NumNodes(); ++u) {
    EXPECT_LE(reduced_triangles[u], original_triangles[u]);
  }
}

TEST_P(SubgraphLawsTest, ReachablePairsNeverGrow) {
  graph::Graph reduced = Reduce();
  auto count_pairs = [](const graph::Graph& g) {
    auto components = analytics::ConnectedComponents(g);
    uint64_t pairs = 0;
    for (uint64_t size : components.sizes) pairs += size * (size - 1) / 2;
    return pairs;
  };
  EXPECT_LE(count_pairs(reduced), count_pairs(*graph_));
}

TEST_P(SubgraphLawsTest, ComponentsNeverMerge) {
  graph::Graph reduced = Reduce();
  auto original = analytics::ConnectedComponents(*graph_);
  auto after = analytics::ConnectedComponents(reduced);
  EXPECT_GE(after.NumComponents(), original.NumComponents());
  // Vertices together in G' must have been together in G.
  for (const graph::Edge& e : reduced.edges()) {
    EXPECT_EQ(original.component[e.u], original.component[e.v]);
  }
}

TEST_P(SubgraphLawsTest, EdgeJaccardEqualsSharedFraction) {
  graph::Graph reduced = Reduce();
  // G' ⊆ G, so Jaccard(G, G') = |E'| / |E| exactly.
  EXPECT_NEAR(graph::EdgeJaccard(*graph_, reduced),
              static_cast<double>(reduced.NumEdges()) /
                  static_cast<double>(graph_->NumEdges()),
              1e-12);
}

TEST_P(SubgraphLawsTest, UnionWithOriginalIsOriginal) {
  graph::Graph reduced = Reduce();
  graph::Graph merged = graph::GraphUnion(*graph_, reduced);
  EXPECT_EQ(merged.NumEdges(), graph_->NumEdges());
}

TEST_P(SubgraphLawsTest, IntersectionWithOriginalIsReduced) {
  graph::Graph reduced = Reduce();
  graph::Graph inter = graph::GraphIntersection(*graph_, reduced);
  EXPECT_EQ(inter.NumEdges(), reduced.NumEdges());
}

TEST_P(SubgraphLawsTest, DifferencePartitionsEdges) {
  graph::Graph reduced = Reduce();
  graph::Graph shed = graph::GraphDifference(*graph_, reduced);
  EXPECT_EQ(shed.NumEdges() + reduced.NumEdges(), graph_->NumEdges());
}

TEST_P(SubgraphLawsTest, DistanceProfileTotalNeverGrows) {
  // Ordered reachable pairs shrink or stay; the profile total counts them.
  graph::Graph reduced = Reduce();
  analytics::DistanceProfileOptions exact;
  exact.exact_node_threshold = 1 << 20;
  auto original = analytics::DistanceProfile(*graph_, exact);
  auto after = analytics::DistanceProfile(reduced, exact);
  EXPECT_LE(after.total(), original.total());
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndRatios, SubgraphLawsTest,
    ::testing::Combine(::testing::Values(Method::kCrr, Method::kBm2,
                                         Method::kRandom),
                       ::testing::Values(0.2, 0.5, 0.8)),
    [](const ::testing::TestParamInfo<std::tuple<Method, double>>& info) {
      return std::string(MethodName(std::get<0>(info.param))) + "_p" +
             std::to_string(
                 static_cast<int>(std::get<1>(info.param) * 10 + 0.5));
    });

}  // namespace
}  // namespace edgeshed
