#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "analytics/betweenness.h"
#include "analytics/bfs.h"
#include "common/random.h"
#include "core/discrepancy.h"
#include "dyn/versioned_graph.h"
#include "graph/mutation_io.h"
#include "testing/test_graphs.h"

namespace edgeshed::dyn {
namespace {

using graph::Edge;
using graph::MutationBatch;
using graph::NodeId;

/// Reference model: the live edge set as a sorted std::set, mutated in
/// lockstep with the VersionedGraph under test.
class ReferenceEdges {
 public:
  explicit ReferenceEdges(const graph::Graph& g)
      : num_nodes_(static_cast<NodeId>(g.NumNodes())),
        edges_(g.edges().begin(), g.edges().end()) {}

  void Apply(const MutationBatch& batch) {
    for (const Edge& e : batch.deletes) ASSERT_EQ(edges_.erase(e), 1u);
    for (const Edge& e : batch.inserts) {
      ASSERT_TRUE(edges_.insert(e).second);
    }
  }

  graph::Graph Rebuild() const {
    return testing::MustBuild(
        num_nodes_, std::vector<Edge>(edges_.begin(), edges_.end()));
  }

 private:
  NodeId num_nodes_;
  std::set<Edge> edges_;
};

/// Draws a random valid batch against the current live edge set: deletes of
/// live edges and inserts of currently absent pairs, no duplicates.
MutationBatch RandomBatch(const DeltaGraph& snap, Rng* rng, size_t deletes,
                          size_t inserts) {
  MutationBatch batch;
  const std::vector<Edge> live = snap.LiveEdges();
  std::set<uint64_t> used;
  while (batch.deletes.size() < deletes && batch.deletes.size() < live.size()) {
    const Edge& e = live[rng->UniformIndex(live.size())];
    if (used.insert(graph::EdgeKey(e)).second) batch.deletes.push_back(e);
  }
  const NodeId n = static_cast<NodeId>(snap.NumNodes());
  size_t attempts = 0;
  while (batch.inserts.size() < inserts && attempts++ < 1000) {
    const NodeId u = static_cast<NodeId>(rng->UniformIndex(n));
    const NodeId v = static_cast<NodeId>(rng->UniformIndex(n));
    if (u == v) continue;
    if (snap.HasEdge(u, v)) continue;
    const Edge e{std::min(u, v), std::max(u, v)};
    if (used.insert(graph::EdgeKey(e)).second) batch.inserts.push_back(e);
  }
  return batch;
}

void ExpectViewMatchesRebuild(const DeltaGraph& snap,
                              const graph::Graph& rebuilt, int threads) {
  ASSERT_EQ(snap.NumNodes(), rebuilt.NumNodes());
  ASSERT_EQ(snap.NumEdges(), rebuilt.NumEdges());

  // Accessor surface: degrees, neighbor order, membership, live edge list.
  EXPECT_TRUE(std::span<const Edge>(snap.LiveEdges()) == rebuilt.edges());
  for (NodeId u = 0; u < rebuilt.NumNodes(); ++u) {
    EXPECT_EQ(snap.Degree(u), rebuilt.Degree(u)) << "vertex " << u;
    std::vector<NodeId> view_nbrs;
    snap.ForEachNeighbor(u, [&](NodeId n) { view_nbrs.push_back(n); });
    const auto rebuilt_nbrs = rebuilt.Neighbors(u);
    ASSERT_EQ(view_nbrs.size(), rebuilt_nbrs.size()) << "vertex " << u;
    EXPECT_TRUE(std::equal(view_nbrs.begin(), view_nbrs.end(),
                           rebuilt_nbrs.begin()))
        << "vertex " << u;
  }

  // Materialized CSR: bit-identical arrays.
  auto materialized = snap.Materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  EXPECT_TRUE(materialized->edges() == rebuilt.edges());
  ASSERT_EQ(materialized->RawOffsets().size(), rebuilt.RawOffsets().size());
  EXPECT_TRUE(std::equal(materialized->RawOffsets().begin(),
                         materialized->RawOffsets().end(),
                         rebuilt.RawOffsets().begin()));
  EXPECT_TRUE(std::equal(materialized->RawAdjacency().begin(),
                         materialized->RawAdjacency().end(),
                         rebuilt.RawAdjacency().begin()));
  EXPECT_TRUE(std::equal(materialized->RawIncident().begin(),
                         materialized->RawIncident().end(),
                         rebuilt.RawIncident().begin()));

  // Kernels on the materialized view vs the from-scratch build, at the
  // requested thread count: BFS, hybrid betweenness (bit-identical
  // doubles), degree discrepancy.
  if (rebuilt.NumNodes() > 0) {
    EXPECT_EQ(analytics::BfsDistances(*materialized, 0),
              analytics::BfsDistances(rebuilt, 0));
  }
  analytics::BetweennessOptions betweenness;
  betweenness.kernel = analytics::BetweennessOptions::Kernel::kHybrid;
  betweenness.threads = threads;
  const auto view_scores = analytics::Betweenness(*materialized, betweenness);
  const auto rebuilt_scores = analytics::Betweenness(rebuilt, betweenness);
  EXPECT_EQ(view_scores.node, rebuilt_scores.node);
  EXPECT_EQ(view_scores.edge, rebuilt_scores.edge);

  core::DegreeDiscrepancy view_disc(*materialized, 0.5);
  core::DegreeDiscrepancy rebuilt_disc(rebuilt, 0.5);
  EXPECT_EQ(view_disc.TotalDelta(), rebuilt_disc.TotalDelta());
}

class DynEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DynEquivalence, RandomizedSequenceMatchesFromScratch) {
  const int threads = GetParam();
  // Random connected-ish seed graph: a cycle plus chords.
  graph::Graph seed = testing::Cycle(60);
  {
    Rng rng(7);
    std::vector<Edge> edges(seed.edges().begin(), seed.edges().end());
    std::set<Edge> have(edges.begin(), edges.end());
    while (edges.size() < 150) {
      const NodeId u = static_cast<NodeId>(rng.UniformIndex(60));
      const NodeId v = static_cast<NodeId>(rng.UniformIndex(60));
      if (u == v) continue;
      const Edge e{std::min(u, v), std::max(u, v)};
      if (have.insert(e).second) edges.push_back(e);
    }
    seed = testing::MustBuild(60, std::move(edges));
  }

  ReferenceEdges reference(seed);
  VersionedGraphOptions options;
  options.auto_compact = false;  // compaction exercised explicitly below
  VersionedGraph vg(seed, options);
  Rng rng(99 + static_cast<uint64_t>(threads));
  constexpr int kBatches = 12;
  for (int b = 0; b < kBatches; ++b) {
    const MutationBatch batch =
        RandomBatch(*vg.Snapshot(), &rng, /*deletes=*/4, /*inserts=*/4);
    reference.Apply(batch);
    auto version = vg.ApplyBatch(batch);
    ASSERT_TRUE(version.ok()) << version.status().ToString();
    ExpectViewMatchesRebuild(*vg.Snapshot(), reference.Rebuild(), threads);
    if (b == kBatches / 2) {
      // Mid-sequence compaction must be invisible to every reader.
      ASSERT_TRUE(vg.Compact().ok());
      EXPECT_EQ(vg.Snapshot()->OverlaySize(), 0u);
      ExpectViewMatchesRebuild(*vg.Snapshot(), reference.Rebuild(), threads);
    }
  }
}

/// Every accessor of `snap` against its own materialization: edge count,
/// live edge order, degrees, neighbor order, and membership of every pair.
void ExpectAccessorsMatchMaterialized(const DeltaGraph& snap) {
  auto materialized = snap.Materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  const graph::Graph& g = *materialized;
  ASSERT_EQ(snap.NumEdges(), g.NumEdges()) << "version " << snap.version();
  EXPECT_TRUE(std::span<const Edge>(snap.LiveEdges()) == g.edges())
      << "version " << snap.version();
  std::vector<NodeId> nbrs;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_EQ(snap.Degree(u), g.Degree(u)) << "vertex " << u;
    nbrs.clear();
    snap.ForEachNeighbor(u, [&](NodeId n) { nbrs.push_back(n); });
    EXPECT_TRUE(std::ranges::equal(nbrs, g.Neighbors(u))) << "vertex " << u;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_EQ(snap.HasEdge(u, v), g.FindEdge(u, v) != graph::kInvalidEdge)
          << "pair " << u << ", " << v;
    }
  }
}

TEST_P(DynEquivalence, OverlayChurnUnderBackgroundCompaction) {
  const int threads = GetParam();
  // 200 vertices span four of the overlay's 64-vertex index stretches.
  const graph::Graph seed = testing::Cycle(200);
  ReferenceEdges reference(seed);
  VersionedGraphOptions options;
  options.compact_ratio = 0.1;  // compactions land every few batches
  VersionedGraph vg(seed, options);
  Rng rng(31 + static_cast<uint64_t>(threads));
  std::set<const graph::Graph*> bases = {vg.Snapshot()->base().get()};
  constexpr int kBatches = 24;
  for (int b = 0; b < kBatches; ++b) {
    const auto prev = vg.Snapshot();
    // The first batch puts overlay entries on both sides of the stretch
    // boundaries.
    MutationBatch batch;
    if (b == 0) {
      batch.deletes = {{63, 64}, {127, 128}};
      batch.inserts = {{0, 64}, {63, 128}, {127, 192}, {128, 199}};
    } else {
      batch = RandomBatch(*prev, &rng, /*deletes=*/3, /*inserts=*/4);
    }
    std::set<Edge> used(batch.deletes.begin(), batch.deletes.end());
    used.insert(batch.inserts.begin(), batch.inserts.end());
    // Delete an overlay insert and un-delete a base edge whenever the
    // overlay has one to offer.
    for (const Edge& e : prev->inserted()) {
      if (used.insert(e).second) {
        batch.deletes.push_back(e);
        break;
      }
    }
    for (const graph::EdgeId id : prev->deleted_ids()) {
      const Edge e = prev->base()->edge(id);
      if (used.insert(e).second) {
        batch.inserts.push_back(e);
        break;
      }
    }
    reference.Apply(batch);
    auto version = vg.ApplyBatch(batch);
    ASSERT_TRUE(version.ok()) << version.status().ToString();
    if (b == kBatches / 2) vg.WaitForCompaction();
    const auto snap = vg.Snapshot();
    bases.insert(snap->base().get());
    ExpectAccessorsMatchMaterialized(*snap);
    ExpectViewMatchesRebuild(*snap, reference.Rebuild(), threads);
  }
  vg.WaitForCompaction();
  EXPECT_GT(bases.size(), 1u) << "no compaction landed mid-sequence";
  ExpectAccessorsMatchMaterialized(*vg.Snapshot());
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, DynEquivalence,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace edgeshed::dyn
