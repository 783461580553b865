#include "analytics/betweenness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <unordered_set>

#include "common/stopwatch.h"
#include "graph/generators/generators.h"
#include "graph/graph_builder.h"
#include "testing/test_graphs.h"

namespace edgeshed::analytics {
namespace {

using ::edgeshed::testing::Clique;
using ::edgeshed::testing::Cycle;
using ::edgeshed::testing::Path;
using ::edgeshed::testing::Star;
using ::edgeshed::testing::TwoTrianglesWithBridge;

TEST(BetweennessTest, PathOfThreeNodeScores) {
  auto scores = Betweenness(Path(3), BetweennessOptions::Exact());
  EXPECT_DOUBLE_EQ(scores.node[0], 0.0);
  EXPECT_DOUBLE_EQ(scores.node[1], 1.0);  // the single (0,2) pair
  EXPECT_DOUBLE_EQ(scores.node[2], 0.0);
}

TEST(BetweennessTest, PathOfThreeEdgeScores) {
  auto g = Path(3);
  auto scores = Betweenness(g, BetweennessOptions::Exact());
  // Each edge carries its endpoint pair plus the (0,2) pair.
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_DOUBLE_EQ(scores.edge[e], 2.0);
  }
}

TEST(BetweennessTest, PathOfFiveMiddleDominates) {
  auto scores = Betweenness(Path(5), BetweennessOptions::Exact());
  // Node 2 mediates pairs (0,3),(0,4),(1,3),(1,4) = 4.
  EXPECT_DOUBLE_EQ(scores.node[2], 4.0);
  EXPECT_DOUBLE_EQ(scores.node[1], 3.0);
  EXPECT_DOUBLE_EQ(scores.node[0], 0.0);
}

TEST(BetweennessTest, StarCenter) {
  const int n = 8;
  auto scores = Betweenness(Star(n), BetweennessOptions::Exact());
  // Center mediates all C(n-1, 2) leaf pairs.
  EXPECT_DOUBLE_EQ(scores.node[0], (n - 1) * (n - 2) / 2.0);
  for (int u = 1; u < n; ++u) EXPECT_DOUBLE_EQ(scores.node[u], 0.0);
}

TEST(BetweennessTest, StarEdges) {
  const int n = 8;
  auto g = Star(n);
  auto scores = Betweenness(g, BetweennessOptions::Exact());
  // Each spoke carries its own pair plus (n-2) leaf pairs.
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_DOUBLE_EQ(scores.edge[e], static_cast<double>(n - 1));
  }
}

TEST(BetweennessTest, CliqueNodesAreZero) {
  auto scores = Betweenness(Clique(6), BetweennessOptions::Exact());
  for (double s : scores.node) EXPECT_DOUBLE_EQ(s, 0.0);
  // Every edge carries exactly its endpoint pair.
  for (double s : scores.edge) EXPECT_DOUBLE_EQ(s, 1.0);
}

TEST(BetweennessTest, CycleSplitsPaths) {
  auto scores = Betweenness(Cycle(4), BetweennessOptions::Exact());
  // Each opposite pair has two shortest paths; each mediates 1/2.
  for (double s : scores.node) EXPECT_DOUBLE_EQ(s, 0.5);
}

TEST(BetweennessTest, BridgeHasMaximumEdgeScore) {
  auto g = TwoTrianglesWithBridge();
  auto scores = Betweenness(g, BetweennessOptions::Exact());
  graph::EdgeId bridge = g.FindEdge(2, 3);
  ASSERT_NE(bridge, graph::kInvalidEdge);
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (e != bridge) {
      EXPECT_LT(scores.edge[e], scores.edge[bridge]);
    }
  }
  // 3x3 cross pairs all cross the bridge, plus its endpoint pair is (2,3).
  EXPECT_DOUBLE_EQ(scores.edge[bridge], 9.0);
}

TEST(BetweennessTest, BridgeEndpointsHaveMaxNodeScore) {
  auto g = TwoTrianglesWithBridge();
  auto scores = Betweenness(g, BetweennessOptions::Exact());
  EXPECT_GT(scores.node[2], scores.node[0]);
  EXPECT_DOUBLE_EQ(scores.node[2], scores.node[3]);
}

TEST(BetweennessTest, DisconnectedGraphIsFine) {
  auto g = edgeshed::testing::MustBuild(6, {{0, 1}, {1, 2}, {3, 4}});
  auto scores = Betweenness(g, BetweennessOptions::Exact());
  EXPECT_DOUBLE_EQ(scores.node[1], 1.0);
  EXPECT_DOUBLE_EQ(scores.node[4], 0.0);
}

TEST(BetweennessTest, EmptyGraph) {
  graph::Graph g;
  auto scores = Betweenness(g);
  EXPECT_TRUE(scores.node.empty());
  EXPECT_TRUE(scores.edge.empty());
}

TEST(BetweennessTest, ThreadCountDoesNotChangeResult) {
  Rng rng(31);
  graph::Graph g = graph::ErdosRenyi(200, 800, rng);
  BetweennessOptions one = BetweennessOptions::Exact();
  one.threads = 1;
  BetweennessOptions many = BetweennessOptions::Exact();
  many.threads = 4;
  auto a = Betweenness(g, one);
  auto b = Betweenness(g, many);
  for (size_t i = 0; i < a.node.size(); ++i) {
    EXPECT_NEAR(a.node[i], b.node[i], 1e-7);
  }
  for (size_t i = 0; i < a.edge.size(); ++i) {
    EXPECT_NEAR(a.edge[i], b.edge[i], 1e-7);
  }
}

TEST(BetweennessTest, SampledEstimatesRankHubsHighly) {
  Rng rng(32);
  graph::Graph g = graph::BarabasiAlbert(2000, 3, rng);
  auto exact = Betweenness(g, BetweennessOptions::Exact());

  BetweennessOptions sampled_options;
  sampled_options.exact_node_threshold = 1;  // force sampling
  sampled_options.sample_sources = 256;
  auto sampled = Betweenness(g, sampled_options);

  auto top_nodes = [](const std::vector<double>& scores, size_t k) {
    std::vector<uint32_t> ids(scores.size());
    std::iota(ids.begin(), ids.end(), 0u);
    std::partial_sort(ids.begin(), ids.begin() + static_cast<long>(k),
                      ids.end(), [&](uint32_t a, uint32_t b) {
                        return scores[a] > scores[b];
                      });
    ids.resize(k);
    return ids;
  };
  auto exact_top = top_nodes(exact.node, 10);
  auto sampled_top = top_nodes(sampled.node, 40);
  std::unordered_set<uint32_t> sampled_set(sampled_top.begin(),
                                           sampled_top.end());
  int hits = 0;
  for (uint32_t u : exact_top) hits += sampled_set.contains(u);
  EXPECT_GE(hits, 6);  // sampled ranking finds most true top nodes
}

TEST(BetweennessTest, SampledMagnitudeIsUnbiasedScale) {
  Rng rng(33);
  graph::Graph g = graph::ErdosRenyi(1000, 4000, rng);
  auto exact = Betweenness(g, BetweennessOptions::Exact());
  BetweennessOptions sampled_options;
  sampled_options.exact_node_threshold = 1;
  sampled_options.sample_sources = 500;
  auto sampled = Betweenness(g, sampled_options);
  double exact_sum = 0;
  double sampled_sum = 0;
  for (double s : exact.node) exact_sum += s;
  for (double s : sampled.node) sampled_sum += s;
  EXPECT_NEAR(sampled_sum / exact_sum, 1.0, 0.15);
}

TEST(EdgesByBetweennessTest, DescendingAndComplete) {
  auto g = TwoTrianglesWithBridge();
  auto order = EdgesByBetweennessDescending(g, BetweennessOptions::Exact());
  EXPECT_EQ(order.size(), g.NumEdges());
  EXPECT_EQ(order[0], g.FindEdge(2, 3));  // bridge first
  auto scores = Betweenness(g, BetweennessOptions::Exact());
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(scores.edge[order[i - 1]], scores.edge[order[i]]);
  }
}

TEST(EdgesByBetweennessTest, TiesBrokenByEdgeId) {
  auto g = Clique(5);  // all edges tie
  auto order = EdgesByBetweennessDescending(g, BetweennessOptions::Exact());
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

// ---- Direction-optimizing hybrid kernel (DESIGN.md §12) ----

void ExpectBitIdentical(const BetweennessScores& a,
                        const BetweennessScores& b) {
  ASSERT_EQ(a.node.size(), b.node.size());
  ASSERT_EQ(a.edge.size(), b.edge.size());
  for (size_t i = 0; i < a.node.size(); ++i) {
    ASSERT_EQ(a.node[i], b.node[i]) << "node " << i;
  }
  for (size_t i = 0; i < a.edge.size(); ++i) {
    ASSERT_EQ(a.edge[i], b.edge[i]) << "edge " << i;
  }
  EXPECT_EQ(a.sources_processed, b.sources_processed);
}

TEST(HybridKernelTest, ExactScoresBitIdenticalToClassic) {
  Rng rng(41);
  std::vector<graph::Graph> graphs;
  graphs.push_back(Path(7));
  graphs.push_back(Star(9));
  graphs.push_back(Clique(6));
  graphs.push_back(Cycle(10));
  graphs.push_back(TwoTrianglesWithBridge());
  graphs.push_back(graph::ErdosRenyi(300, 1200, rng));
  graphs.push_back(graph::BarabasiAlbert(500, 3, rng));
  for (size_t i = 0; i < graphs.size(); ++i) {
    BetweennessOptions classic = BetweennessOptions::Exact();
    classic.kernel = BetweennessOptions::Kernel::kClassic;
    BetweennessOptions hybrid = BetweennessOptions::Exact();
    hybrid.kernel = BetweennessOptions::Kernel::kHybrid;
    SCOPED_TRACE(::testing::Message() << "graph " << i);
    ExpectBitIdentical(Betweenness(graphs[i], classic),
                       Betweenness(graphs[i], hybrid));
  }
}

TEST(HybridKernelTest, SampledScoresBitIdenticalToClassic) {
  Rng rng(42);
  graph::Graph g = graph::BarabasiAlbert(3000, 3, rng);
  BetweennessOptions classic;
  classic.exact_node_threshold = 1;  // force sampling
  classic.sample_sources = 128;
  classic.kernel = BetweennessOptions::Kernel::kClassic;
  BetweennessOptions hybrid = classic;
  hybrid.kernel = BetweennessOptions::Kernel::kHybrid;
  ExpectBitIdentical(Betweenness(g, classic), Betweenness(g, hybrid));
}

TEST(HybridKernelTest, AggressiveSwitchThresholdStaysBitIdentical) {
  // hybrid_alpha only moves the push/pull break-even point; any value must
  // produce the same bits because both directions share one canonical
  // accumulation order.
  Rng rng(43);
  graph::Graph g = graph::ErdosRenyi(800, 6400, rng);
  BetweennessOptions base = BetweennessOptions::Exact();
  base.kernel = BetweennessOptions::Kernel::kClassic;
  for (double alpha : {0.05, 1.0, 20.0}) {
    BetweennessOptions hybrid = BetweennessOptions::Exact();
    hybrid.kernel = BetweennessOptions::Kernel::kHybrid;
    hybrid.hybrid_alpha = alpha;
    SCOPED_TRACE(::testing::Message() << "alpha " << alpha);
    ExpectBitIdentical(Betweenness(g, base), Betweenness(g, hybrid));
  }
}

TEST(HybridKernelTest, CancelledBeforeStartReturnsZeroedScores) {
  Rng rng(44);
  graph::Graph g = graph::BarabasiAlbert(1000, 4, rng);
  CancellationToken token;
  token.Cancel();
  BetweennessOptions options = BetweennessOptions::Exact();
  options.cancel = &token;
  auto scores = Betweenness(g, options);
  ASSERT_EQ(scores.node.size(), g.NumNodes());
  for (double s : scores.node) EXPECT_EQ(s, 0.0);
  for (double s : scores.edge) EXPECT_EQ(s, 0.0);
}

// ---- Adaptive pivot waves (DESIGN.md §12) ----

TEST(AdaptiveWaveTest, NeverStoppingWaveRunMatchesSinglePass) {
  Rng rng(45);
  graph::Graph g = graph::BarabasiAlbert(2500, 3, rng);
  BetweennessOptions single;
  single.exact_node_threshold = 1;
  single.sample_sources = 96;
  BetweennessOptions waves = single;
  waves.wave_size = 16;
  waves.wave_stability = 2.0;  // > 1: never stop early
  auto a = Betweenness(g, single);
  auto b = Betweenness(g, waves);
  ExpectBitIdentical(a, b);
  EXPECT_EQ(a.waves, 1u);
  EXPECT_EQ(b.waves, 6u);  // ceil(96 / 16)
  EXPECT_EQ(b.sources_processed, 96u);
}

TEST(AdaptiveWaveTest, StopsEarlyOnceRankingStabilizes) {
  Rng rng(46);
  graph::Graph g = graph::BarabasiAlbert(4000, 3, rng);
  BetweennessOptions options;
  options.exact_node_threshold = 1;
  options.sample_sources = 256;
  options.wave_size = 32;
  options.wave_stability = 0.9;
  auto scores = Betweenness(g, options);
  EXPECT_LT(scores.sources_processed, 256u);
  EXPECT_LT(scores.waves, 8u);
  EXPECT_GE(scores.waves, 2u);  // the stop needs a previous wave to compare

  // The early stop must not cost ranking quality beyond what sampling
  // already costs: compare the early-stopped ranking against the same
  // sampled run with waves disabled, over the top half of the edges (the
  // slice a p=0.5 CRR reduction consumes, and the auto wave_top_k slice).
  // Sampling noise itself dominates the wave truncation, so the two
  // rankings agree well above chance (~0.5 for a random half).
  BetweennessOptions full = options;
  full.wave_size = 0;
  auto full_rank = EdgesByBetweennessDescending(g, full);
  auto fast = EdgesByBetweennessDescending(g, options);
  const size_t slice = g.NumEdges() / 2;
  std::unordered_set<graph::EdgeId> full_top(full_rank.begin(),
                                             full_rank.begin() + slice);
  size_t hits = 0;
  for (size_t i = 0; i < slice; ++i) hits += full_top.contains(fast[i]);
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(slice), 0.8);
}

TEST(AdaptiveWaveTest, RescaleUsesProcessedSourceCount) {
  // An early-stopped run must rescale by n/processed, not n/sample_sources,
  // to stay an unbiased estimate of the exact magnitudes.
  Rng rng(47);
  graph::Graph g = graph::ErdosRenyi(1500, 6000, rng);
  BetweennessOptions options;
  options.exact_node_threshold = 1;
  options.sample_sources = 512;
  options.wave_size = 64;
  options.wave_stability = 0.85;
  auto sampled = Betweenness(g, options);
  auto exact = Betweenness(g, BetweennessOptions::Exact());
  double exact_sum = 0.0;
  double sampled_sum = 0.0;
  for (double s : exact.node) exact_sum += s;
  for (double s : sampled.node) sampled_sum += s;
  EXPECT_NEAR(sampled_sum / exact_sum, 1.0, 0.2);
}

TEST(AdaptiveWaveTest, WavesOnlyEngageWhenSampling) {
  // Below the exact threshold every source runs; a wave request is ignored.
  auto g = TwoTrianglesWithBridge();
  BetweennessOptions options = BetweennessOptions::FastRanking();
  auto scores = Betweenness(g, options);
  EXPECT_EQ(scores.waves, 1u);
  EXPECT_EQ(scores.sources_processed, g.NumNodes());
  ExpectBitIdentical(scores, Betweenness(g, BetweennessOptions::Exact()));
}

TEST(AdaptiveWaveTest, WaveScheduleIsThreadCountInvariant) {
  Rng rng(48);
  graph::Graph g = graph::BarabasiAlbert(3000, 3, rng);
  BetweennessOptions one;
  one.exact_node_threshold = 1;
  one.sample_sources = 192;
  one.wave_size = 24;
  one.wave_stability = 0.9;
  one.threads = 1;
  BetweennessOptions many = one;
  many.threads = 4;
  auto a = Betweenness(g, one);
  auto b = Betweenness(g, many);
  EXPECT_EQ(a.waves, b.waves);
  ExpectBitIdentical(a, b);
}

TEST(AdaptiveWaveTest, WavesInsideOneStripeAreThreadCountInvariant) {
  // FastRanking's waves of 8 over 256 sources (16 stripes of 16): every
  // wave sits inside one stripe, so its sweeps run side by side in buffers
  // of their own at 2+ threads and fold back in source order (DESIGN.md
  // §12, "Sweeps within a wave"). R-MAT leaves vertices isolated, and some
  // of those are swept: their buffers are never folded.
  Rng rng(12);
  const graph::Graph g = graph::RMat(12, 8, 0.57, 0.19, 0.19, rng);
  BetweennessOptions options = BetweennessOptions::FastRanking();
  options.exact_node_threshold = 1024;
  options.threads = 1;
  const BetweennessScores want = Betweenness(g, options);
  const std::vector<graph::EdgeId> want_ranked =
      EdgesByBetweennessDescending(g, options);
  ASSERT_GE(want.waves, 2u);
  Rng source_rng(options.seed);
  const std::vector<uint64_t> sources =
      source_rng.SampleIndices(g.NumNodes(), options.sample_sources);
  uint64_t isolated = 0;
  for (uint64_t i = 0; i < want.sources_processed; ++i) {
    isolated += g.Degree(static_cast<graph::NodeId>(sources[i])) == 0;
  }
  ASSERT_GT(isolated, 0u);

  for (int threads : {2, 3, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    options.threads = threads;
    const BetweennessScores got = Betweenness(g, options);
    EXPECT_EQ(got.waves, want.waves);
    ExpectBitIdentical(want, got);
    EXPECT_EQ(EdgesByBetweennessDescending(g, options), want_ranked);
  }
}

TEST(AdaptiveWaveTest, TokenTrippedMidWaveLeavesNoPartialResult) {
  // The token trips on the poll halfway through the run, inside a wave's
  // sweeps; at 2+ threads every FastRanking wave runs its sweeps side by
  // side. The run must stop in the round that tripped: each other sweep of
  // the round polls at most once more, then the round's own check. The
  // result is all zeros, and a later run is unharmed.
  Rng rng(12);
  const graph::Graph g = graph::RMat(12, 8, 0.57, 0.19, 0.19, rng);
  BetweennessOptions options = BetweennessOptions::FastRanking();
  options.exact_node_threshold = 1024;
  options.wave_stability = 2.0;  // never stop early: every wave runs
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    options.threads = threads;
    options.cancel = nullptr;
    const BetweennessScores want = Betweenness(g, options);
    ASSERT_GT(want.waves, 2u);

    CancellationToken counter;  // armed, never trips: counts the polls
    counter.CancelOnPoll(std::numeric_limits<uint64_t>::max());
    options.cancel = &counter;
    ExpectBitIdentical(want, Betweenness(g, options));
    const uint64_t trip = counter.Polls() / 2;
    ASSERT_GT(trip, 0u);

    CancellationToken token;
    token.CancelOnPoll(trip);
    options.cancel = &token;
    const BetweennessScores got = Betweenness(g, options);
    EXPECT_GE(token.Polls(), trip);
    EXPECT_LE(token.Polls(), trip + static_cast<uint64_t>(threads));
    EXPECT_EQ(got.waves, 0u);
    EXPECT_EQ(got.sources_processed, 0u);
    for (double s : got.node) ASSERT_EQ(s, 0.0);
    for (double s : got.edge) ASSERT_EQ(s, 0.0);

    options.cancel = nullptr;
    ExpectBitIdentical(want, Betweenness(g, options));
  }
}

// ---- Ranking order (DESIGN.md §12, "Ranking order") ----

/// `copies` disjoint side x side grids. Every copy has the same scores, so
/// tie groups span the copies, and a sampled run leaves the copies no
/// source reached at score 0.
graph::Graph Grids(graph::NodeId copies, graph::NodeId side) {
  graph::GraphBuilder builder;
  for (graph::NodeId c = 0; c < copies; ++c) {
    const graph::NodeId base = c * side * side;
    for (graph::NodeId row = 0; row < side; ++row) {
      for (graph::NodeId col = 0; col < side; ++col) {
        const graph::NodeId v = base + row * side + col;
        if (col + 1 < side) builder.AddEdge(v, v + 1);
        if (row + 1 < side) builder.AddEdge(v, v + side);
      }
    }
  }
  return builder.Build();
}

/// The ranking oracle: edge ids stable-sorted by score descending, so ties
/// keep ascending id order.
std::vector<graph::EdgeId> ReferenceOrder(const std::vector<double>& scores) {
  std::vector<graph::EdgeId> ids(scores.size());
  std::iota(ids.begin(), ids.end(), graph::EdgeId{0});
  std::stable_sort(ids.begin(), ids.end(),
                   [&scores](graph::EdgeId a, graph::EdgeId b) {
                     return scores[a] > scores[b];
                   });
  return ids;
}

/// The wave top-k selection before packed keys: an nth_element over ids
/// with the (score desc, id asc) comparator, ids returned ascending.
std::vector<graph::EdgeId> ReferenceTopK(const std::vector<double>& scores,
                                         uint64_t k) {
  std::vector<graph::EdgeId> ids(scores.size());
  std::iota(ids.begin(), ids.end(), graph::EdgeId{0});
  k = std::min<uint64_t>(k, ids.size());
  std::nth_element(ids.begin(), ids.begin() + static_cast<ptrdiff_t>(k),
                   ids.end(), [&scores](graph::EdgeId a, graph::EdgeId b) {
                     if (scores[a] != scores[b]) return scores[a] > scores[b];
                     return a < b;
                   });
  ids.resize(k);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<graph::EdgeId> MarkedIds(const std::vector<uint64_t>& bits) {
  std::vector<graph::EdgeId> ids;
  for (graph::EdgeId e = 0; e < bits.size() * 64; ++e) {
    if ((bits[e >> 6] >> (e & 63)) & 1u) ids.push_back(e);
  }
  return ids;
}

/// Runs ranking checks under EDGESHED_THREADS = 1, 2 and 4 (options.threads
/// stays 0, so DefaultThreadCount() decides) and restores the variable.
class RankingOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* previous = std::getenv("EDGESHED_THREADS");
    had_previous_ = previous != nullptr;
    if (had_previous_) previous_ = previous;
  }
  void TearDown() override {
    if (had_previous_) {
      ::setenv("EDGESHED_THREADS", previous_.c_str(), 1);
    } else {
      ::unsetenv("EDGESHED_THREADS");
    }
  }

  /// EdgesByBetweennessDescending must equal the oracle order over
  /// Betweenness()'s scores at every thread count.
  static void ExpectOracleOrder(const graph::Graph& g,
                                const BetweennessOptions& options) {
    for (const char* threads : {"1", "2", "4"}) {
      ::setenv("EDGESHED_THREADS", threads, 1);
      SCOPED_TRACE(::testing::Message() << "EDGESHED_THREADS=" << threads);
      const BetweennessScores scores = Betweenness(g, options);
      EXPECT_EQ(EdgesByBetweennessDescending(g, options),
                ReferenceOrder(scores.edge));
    }
  }

  bool had_previous_ = false;
  std::string previous_;
};

TEST_F(RankingOrderTest, MatchesOracleOnTieHeavyGraphs) {
  std::vector<graph::Graph> graphs;
  graphs.push_back(Star(40));
  graphs.push_back(Cycle(64));
  graphs.push_back(Clique(12));
  graphs.push_back(Grids(1, 12));
  graphs.push_back(Grids(300, 3));  // 3600 edges: the radix path, not the
                                    // small-input fallback
  for (size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "graph " << i);
    ExpectOracleOrder(graphs[i], BetweennessOptions::Exact());
  }
}

TEST_F(RankingOrderTest, MatchesOracleWithZeroScoredIsolatedEdges) {
  // A path plus 3000 isolated edges, ranked from 8 sampled sources: every
  // isolated edge no source landed on scores exactly 0.
  std::vector<graph::Edge> edges;
  for (graph::NodeId v = 0; v + 1 < 50; ++v) edges.push_back({v, v + 1});
  for (graph::NodeId v = 50; v < 50 + 2 * 3000; v += 2) {
    edges.push_back({v, v + 1});
  }
  const graph::Graph g = edgeshed::testing::MustBuild(50 + 2 * 3000, edges);
  BetweennessOptions options;
  options.exact_node_threshold = 1;
  options.sample_sources = 8;
  const BetweennessScores scores = Betweenness(g, options);
  ASSERT_GT(std::count(scores.edge.begin(), scores.edge.end(), 0.0), 2900);
  ExpectOracleOrder(g, options);
}

TEST_F(RankingOrderTest, MatchesOracleOnSampledFastRanking) {
  Rng rng(49);
  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::BarabasiAlbert(6000, 3, rng));
  graphs.push_back(graph::RMat(12, 8, 0.57, 0.19, 0.19, rng));
  BetweennessOptions options = BetweennessOptions::FastRanking();
  options.exact_node_threshold = 1024;  // sample, so the waves engage
  for (size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "graph " << i);
    ExpectOracleOrder(graphs[i], options);
  }
}

TEST_F(RankingOrderTest, WaveTopKSplittingATieGroupKeepsTheStopDecision) {
  // 60 disjoint 3x3 grids: 720 edges, of which one 8-source wave reaches at
  // most 96, so a top-100 or top-200 cut always splits the tie group at
  // score 0 (and often the equal positive scores of the grids). The
  // expected (waves, sources) are what the nth_element selection gave;
  // taking ties by highest id instead would give (12, 96), (8, 64) and
  // (5, 40).
  const graph::Graph g = Grids(60, 3);
  struct Case {
    uint64_t top_k;
    double stability;
    uint64_t waves;
    uint64_t sources;
  };
  for (const Case& c : {Case{100, 0.9, 7, 56}, Case{200, 0.9, 11, 88},
                        Case{200, 0.8, 4, 32}}) {
    BetweennessOptions options;
    options.exact_node_threshold = 1;
    options.sample_sources = 96;
    options.wave_size = 8;
    options.wave_top_k = c.top_k;
    options.wave_stability = c.stability;
    for (const char* threads : {"1", "2", "4"}) {
      ::setenv("EDGESHED_THREADS", threads, 1);
      SCOPED_TRACE(::testing::Message()
                   << "k=" << c.top_k << " stability=" << c.stability
                   << " EDGESHED_THREADS=" << threads);
      const BetweennessScores scores = Betweenness(g, options);
      EXPECT_EQ(scores.waves, c.waves);
      EXPECT_EQ(scores.sources_processed, c.sources);
    }
    ExpectOracleOrder(g, options);
  }
}

TEST(RankingPrimitivesTest, MarkTopKEdgesMatchesNthElementSelection) {
  // Five distinct scores over 5000 edges: every k below splits a tie group.
  std::mt19937_64 gen(50);
  std::vector<double> scores(5000);
  for (double& s : scores) s = static_cast<double>(gen() % 5) * 0.5;
  std::vector<double> all_equal(3000, 1.25);
  // Enough edges that the first selection level counts in several chunks:
  // spread scores, and scores that share their top 32 key bits so the
  // deeper levels also read every key.
  std::vector<double> spread(70000);
  for (double& s : spread) s = static_cast<double>(gen() % 4000) * 0.25;
  std::vector<double> close(70000);
  for (double& s : close) {
    s = 1.0 + std::ldexp(static_cast<double>(gen() % 9), -40);
  }
  for (const auto* input : {&scores, &all_equal, &spread, &close}) {
    std::vector<uint64_t> keys(input->size());
    for (size_t e = 0; e < keys.size(); ++e) {
      keys[e] = DescendingScoreKey((*input)[e]);
    }
    for (uint64_t k : {uint64_t{0}, uint64_t{1}, uint64_t{17}, uint64_t{999},
                       uint64_t{2500}, uint64_t{2999}, uint64_t{3000},
                       uint64_t{4999}, uint64_t{5000}, uint64_t{6000},
                       uint64_t{35001}, uint64_t{69999}}) {
      const std::vector<uint64_t> expected = ReferenceTopK(*input, k);
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(::testing::Message() << "m=" << keys.size() << " k=" << k
                                          << " threads=" << threads);
        std::vector<uint64_t> top;
        MarkTopKEdges(keys, k, &top, threads);
        ASSERT_EQ(top.size(), (keys.size() + 63) / 64);
        EXPECT_EQ(MarkedIds(top), expected);
      }
    }
  }
}

TEST(RankingPrimitivesTest, MarkTopKEdgesSplitsThresholdTiesAcrossChunks) {
  // 70,000 keys scan in 1, 2 or 4 chunks of whole 64-key bitmap words, cut
  // at keys 17472, 35008 and 52480 (1094 words split evenly). Ties at the
  // threshold sit every 7th key and densely around each cut, and k makes
  // the last tie taken fall just before, on, or just after a cut, so each
  // chunk's share of the ties depends on the chunks before it.
  constexpr size_t kEdges = 70000;
  const std::vector<size_t> cuts = {17472, 35008, 52480};
  std::vector<double> scores(kEdges, 1.0);
  for (size_t e = 0; e < kEdges; e += 11) scores[e] = 3.0 + 1e-6 * e;
  for (size_t e = 0; e < kEdges; e += 7) scores[e] = 2.0;
  for (const size_t cut : cuts) {
    for (size_t e = cut - 8; e < cut + 8; ++e) scores[e] = 2.0;
  }
  std::vector<uint64_t> keys(kEdges);
  for (size_t e = 0; e < kEdges; ++e) keys[e] = DescendingScoreKey(scores[e]);
  const uint64_t above = static_cast<uint64_t>(
      std::count_if(scores.begin(), scores.end(),
                    [](double s) { return s > 2.0; }));
  for (const size_t cut : cuts) {
    const uint64_t ties_before = static_cast<uint64_t>(
        std::count(scores.begin(), scores.begin() + static_cast<ptrdiff_t>(cut),
                   2.0));
    for (const uint64_t k : {above + ties_before - 2, above + ties_before - 1,
                             above + ties_before, above + ties_before + 1}) {
      const std::vector<uint64_t> expected = ReferenceTopK(scores, k);
      for (const int threads : {1, 2, 4}) {
        SCOPED_TRACE(::testing::Message()
                     << "cut=" << cut << " k=" << k << " threads=" << threads);
        std::vector<uint64_t> top;
        MarkTopKEdges(keys, k, &top, threads);
        EXPECT_EQ(MarkedIds(top), expected);
      }
    }
  }
}

TEST(RankingPrimitivesTest, DescendingScoreKeyReversesScoreOrder) {
  const std::vector<double> descending = {
      std::numeric_limits<double>::infinity(), 1e300, 3.5, 1.0, 1e-300,
      std::numeric_limits<double>::denorm_min(), 0.0};
  for (size_t i = 1; i < descending.size(); ++i) {
    EXPECT_LT(DescendingScoreKey(descending[i - 1]),
              DescendingScoreKey(descending[i]))
        << descending[i - 1] << " vs " << descending[i];
  }
  EXPECT_EQ(DescendingScoreKey(0.0), DescendingScoreKey(-0.0));
}

TEST(RankingPrimitivesTest, CancelledRankingReturnsPromptly) {
  // The token trips before the first sweep: ranking must not sweep or sort,
  // and returns an id vector of the right size that the caller discards
  // (Crr::Shed checks the token and returns kCancelled).
  Rng rng(51);
  const graph::Graph g = graph::BarabasiAlbert(20000, 4, rng);
  CancellationToken token;
  token.Cancel();
  BetweennessOptions options = BetweennessOptions::FastRanking();
  options.cancel = &token;
  Stopwatch watch;
  const std::vector<graph::EdgeId> ids =
      EdgesByBetweennessDescending(g, options);
  EXPECT_LT(watch.ElapsedSeconds(), 1.0);
  EXPECT_EQ(ids.size(), g.NumEdges());
  EXPECT_TRUE(CancellationRequested(options.cancel));
}

}  // namespace
}  // namespace edgeshed::analytics
