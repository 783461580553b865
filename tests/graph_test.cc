#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "testing/test_graphs.h"

namespace edgeshed::graph {
namespace {

using ::edgeshed::testing::MustBuild;
using ::edgeshed::testing::PaperExampleGraph;
using ::edgeshed::testing::Star;

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 0.0);
}

TEST(GraphTest, NodesWithoutEdges) {
  auto g = MustBuild(5, {});
  EXPECT_EQ(g.NumNodes(), 5u);
  EXPECT_EQ(g.NumEdges(), 0u);
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(g.Degree(u), 0u);
}

TEST(GraphTest, TriangleBasics) {
  auto g = MustBuild(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.TotalDegree(), 6u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 2.0);
  for (NodeId u = 0; u < 3; ++u) EXPECT_EQ(g.Degree(u), 2u);
}

TEST(GraphTest, EdgesAreCanonicalized) {
  auto g = MustBuild(3, {{2, 0}, {1, 0}});
  for (const Edge& e : g.edges()) {
    EXPECT_LT(e.u, e.v);
  }
}

TEST(GraphTest, NeighborsSortedAscending) {
  auto g = MustBuild(6, {{3, 0}, {3, 5}, {3, 1}, {3, 4}, {3, 2}});
  auto nbrs = g.Neighbors(3);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 5u);
}

TEST(GraphTest, IncidentEdgesAlignWithNeighbors) {
  auto g = PaperExampleGraph();
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    auto nbrs = g.Neighbors(u);
    auto inc = g.IncidentEdges(u);
    ASSERT_EQ(nbrs.size(), inc.size());
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const Edge& e = g.edge(inc[i]);
      EXPECT_TRUE((e.u == u && e.v == nbrs[i]) ||
                  (e.v == u && e.u == nbrs[i]));
    }
  }
}

TEST(GraphTest, RejectsSelfLoop) {
  auto result = Graph::FromEdges(3, {{1, 1}});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, RejectsDuplicateEdges) {
  auto result = Graph::FromEdges(3, {{0, 1}, {1, 0}});
  EXPECT_FALSE(result.ok());
}

TEST(GraphTest, RejectsOutOfRangeEndpoint) {
  auto result = Graph::FromEdges(3, {{0, 3}});
  EXPECT_FALSE(result.ok());
}

TEST(GraphTest, FindEdgePresentAndAbsent) {
  auto g = PaperExampleGraph();
  EdgeId found = g.FindEdge(0, 6);  // u1 - u7
  ASSERT_NE(found, kInvalidEdge);
  EXPECT_EQ(g.edge(found).u, 0u);
  EXPECT_EQ(g.edge(found).v, 6u);
  // Symmetric lookup.
  EXPECT_EQ(g.FindEdge(6, 0), found);
  // Absent pairs.
  EXPECT_EQ(g.FindEdge(0, 1), kInvalidEdge);
  EXPECT_EQ(g.FindEdge(0, 0), kInvalidEdge);
}

TEST(GraphTest, HasEdgeMatchesFindEdge) {
  auto g = PaperExampleGraph();
  EXPECT_TRUE(g.HasEdge(7, 9));   // u8 - u10
  EXPECT_FALSE(g.HasEdge(7, 6));  // u8 - u7
}

TEST(GraphTest, PaperExampleShape) {
  auto g = PaperExampleGraph();
  EXPECT_EQ(g.NumNodes(), 11u);
  EXPECT_EQ(g.NumEdges(), 11u);
  EXPECT_EQ(g.Degree(6), 7u);   // u7 hub
  EXPECT_EQ(g.Degree(8), 4u);   // u9
  EXPECT_EQ(g.Degree(7), 2u);   // u8
  EXPECT_EQ(g.Degree(9), 2u);   // u10
  for (NodeId leaf : {0u, 1u, 2u, 3u, 4u, 5u, 10u}) {
    EXPECT_EQ(g.Degree(leaf), 1u) << "leaf " << leaf;
  }
}

TEST(GraphTest, StarDegrees) {
  auto g = Star(10);
  EXPECT_EQ(g.Degree(0), 9u);
  for (NodeId u = 1; u < 10; ++u) EXPECT_EQ(g.Degree(u), 1u);
}

// Raw CSR arrays and edge list, for comparing two builds bit for bit.
struct CsrArrays {
  std::vector<uint64_t> offsets;
  std::vector<NodeId> adjacency;
  std::vector<EdgeId> incident;
  std::vector<Edge> edges;
  bool operator==(const CsrArrays&) const = default;
};

CsrArrays ArraysOf(const Graph& g) {
  return {{g.RawOffsets().begin(), g.RawOffsets().end()},
          {g.RawAdjacency().begin(), g.RawAdjacency().end()},
          {g.RawIncident().begin(), g.RawIncident().end()},
          {g.edges().begin(), g.edges().end()}};
}

/// Sorted canonical edges of a pseudo-random simple graph; large enough
/// that FromEdges' parallel scans split the input into several chunks.
std::vector<Edge> SortedRandomEdges(NodeId n, uint64_t count) {
  std::vector<Edge> edges;
  uint64_t state = 12345;
  while (edges.size() < count) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const auto u = static_cast<NodeId>((state >> 33) % n);
    const auto v = static_cast<NodeId>((state >> 13) % n);
    if (u != v) edges.push_back({std::min(u, v), std::max(u, v)});
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

TEST(GraphTest, SortedAndShuffledInputBuildIdenticalGraphs) {
  const std::vector<Edge> sorted = SortedRandomEdges(500, 6000);
  std::vector<Edge> shuffled = sorted;
  std::reverse(shuffled.begin(), shuffled.end());
  std::swap(shuffled[0], shuffled[shuffled.size() / 2]);
  auto from_sorted = Graph::FromEdges(500, sorted);
  auto from_shuffled = Graph::FromEdges(500, shuffled);
  ASSERT_TRUE(from_sorted.ok()) << from_sorted.status();
  ASSERT_TRUE(from_shuffled.ok()) << from_shuffled.status();
  EXPECT_TRUE(ArraysOf(*from_sorted) == ArraysOf(*from_shuffled));
  EXPECT_TRUE(std::equal(sorted.begin(), sorted.end(),
                         from_sorted->edges().begin(),
                         from_sorted->edges().end()));
}

TEST(GraphTest, CsrFillMatchesASerialWalkAtEveryThreadCount) {
  // 60k edges over 2000 vertices: at 2 and 4 threads the fill scatters in
  // 2 and 3 chunks. Every build must equal one walk over the edges in id
  // order, which writes each vertex's list ascending.
  const std::vector<Edge> edges = SortedRandomEdges(2000, 60000);
  CsrArrays expected;
  expected.edges = edges;
  expected.offsets.assign(2001, 0);
  for (const Edge& e : edges) {
    ++expected.offsets[e.u + 1];
    ++expected.offsets[e.v + 1];
  }
  std::partial_sum(expected.offsets.begin(), expected.offsets.end(),
                   expected.offsets.begin());
  expected.adjacency.resize(2 * edges.size());
  expected.incident.resize(2 * edges.size());
  std::vector<uint64_t> cursor(expected.offsets.begin(),
                               expected.offsets.end() - 1);
  for (EdgeId id = 0; id < edges.size(); ++id) {
    const Edge& e = edges[id];
    expected.adjacency[cursor[e.u]] = e.v;
    expected.incident[cursor[e.u]++] = id;
    expected.adjacency[cursor[e.v]] = e.u;
    expected.incident[cursor[e.v]++] = id;
  }
  const char* previous = std::getenv("EDGESHED_THREADS");
  const std::string saved = previous != nullptr ? previous : "";
  for (const char* threads : {"1", "2", "4"}) {
    ::setenv("EDGESHED_THREADS", threads, 1);
    SCOPED_TRACE(::testing::Message() << "EDGESHED_THREADS=" << threads);
    auto g = Graph::FromEdges(2000, edges);
    ASSERT_TRUE(g.ok()) << g.status();
    EXPECT_TRUE(ArraysOf(*g) == expected);
    for (NodeId u = 0; u < 2000; ++u) {
      const auto nbrs = g->Neighbors(u);
      ASSERT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end())) << "vertex " << u;
    }
  }
  if (previous != nullptr) {
    ::setenv("EDGESHED_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("EDGESHED_THREADS");
  }
}

TEST(GraphTest, SortedInputWithAdjacentDuplicateNamesThePair) {
  std::vector<Edge> edges = SortedRandomEdges(500, 6000);
  const Edge dup = edges[edges.size() / 3];
  edges.insert(edges.begin() + edges.size() / 3, dup);
  auto result = Graph::FromEdges(500, edges);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message(),
            "duplicate edge (" + std::to_string(dup.u) + ", " +
                std::to_string(dup.v) + ")");
}

TEST(GraphTest, InputSortedOnlyAfterCanonicalizingBuildsTheSameGraph) {
  const std::vector<Edge> sorted = SortedRandomEdges(500, 6000);
  std::vector<Edge> flipped = sorted;
  for (size_t i = 0; i < flipped.size(); i += 3) {
    std::swap(flipped[i].u, flipped[i].v);
  }
  auto from_sorted = Graph::FromEdges(500, sorted);
  auto from_flipped = Graph::FromEdges(500, flipped);
  ASSERT_TRUE(from_sorted.ok());
  ASSERT_TRUE(from_flipped.ok()) << from_flipped.status();
  EXPECT_TRUE(ArraysOf(*from_sorted) == ArraysOf(*from_flipped));
}

TEST(GraphTest, EmptyAndSingleEdgeInputs) {
  auto empty = Graph::FromEdges(4, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->NumNodes(), 4u);
  EXPECT_EQ(empty->NumEdges(), 0u);
  auto single = Graph::FromEdges(4, {{3, 1}});
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(single->NumEdges(), 1u);
  EXPECT_EQ(single->edge(0), (Edge{1, 3}));
  EXPECT_EQ(single->Degree(1), 1u);
  EXPECT_EQ(single->Degree(3), 1u);
}

TEST(SubgraphTest, KeepsVertexSetDropsEdges) {
  auto g = PaperExampleGraph();
  Graph reduced = SubgraphFromEdgeIds(g, {0, 2, 6});
  EXPECT_EQ(reduced.NumNodes(), g.NumNodes());
  EXPECT_EQ(reduced.NumEdges(), 3u);
}

TEST(SubgraphTest, EmptySelectionGivesEdgelessGraph) {
  auto g = PaperExampleGraph();
  Graph reduced = SubgraphFromEdgeIds(g, {});
  EXPECT_EQ(reduced.NumNodes(), 11u);
  EXPECT_EQ(reduced.NumEdges(), 0u);
  for (NodeId u = 0; u < reduced.NumNodes(); ++u) {
    EXPECT_EQ(reduced.Degree(u), 0u);
  }
}

TEST(SubgraphTest, FullSelectionReproducesGraph) {
  auto g = PaperExampleGraph();
  std::vector<EdgeId> all(g.NumEdges());
  std::iota(all.begin(), all.end(), EdgeId{0});
  Graph copy = SubgraphFromEdgeIds(g, all);
  EXPECT_EQ(copy.NumEdges(), g.NumEdges());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_EQ(copy.Degree(u), g.Degree(u));
  }
}

TEST(SubgraphTest, SubgraphEdgesExistInParent) {
  auto g = PaperExampleGraph();
  Graph reduced = SubgraphFromEdgeIds(g, {1, 3, 5, 7});
  for (const Edge& e : reduced.edges()) {
    EXPECT_TRUE(g.HasEdge(e.u, e.v));
  }
}

TEST(EdgeTest, OrderingAndEquality) {
  Edge a{0, 1};
  Edge b{0, 2};
  Edge c{0, 1};
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_TRUE(a == c);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace edgeshed::graph
