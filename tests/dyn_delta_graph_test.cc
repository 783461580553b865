#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dyn/delta_graph.h"
#include "dyn/versioned_graph.h"
#include "graph/mutation_io.h"
#include "testing/test_graphs.h"

namespace edgeshed::dyn {
namespace {

using graph::Edge;
using graph::MutationBatch;
using graph::NodeId;

MutationBatch Batch(std::vector<Edge> inserts, std::vector<Edge> deletes) {
  MutationBatch batch;
  batch.inserts = std::move(inserts);
  batch.deletes = std::move(deletes);
  return batch;
}

TEST(DynMutationIo, ValidateRejectsSelfLoopNamingPair) {
  MutationBatch batch = Batch({{3, 3}}, {});
  const Status status = graph::ValidateAndCanonicalizeBatch(&batch);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("{3, 3}"), std::string::npos)
      << status.message();
}

TEST(DynMutationIo, ValidateRejectsDuplicateInsertNamingPair) {
  // Same undirected pair in both orientations.
  MutationBatch batch = Batch({{1, 2}, {2, 1}}, {});
  const Status status = graph::ValidateAndCanonicalizeBatch(&batch);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("{1, 2}"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("inserts"), std::string::npos)
      << status.message();
}

TEST(DynMutationIo, ValidateRejectsDuplicateDelete) {
  MutationBatch batch = Batch({}, {{4, 5}, {4, 5}});
  const Status status = graph::ValidateAndCanonicalizeBatch(&batch);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("deletes"), std::string::npos)
      << status.message();
}

TEST(DynMutationIo, ValidateRejectsInsertDeleteConflict) {
  MutationBatch batch = Batch({{1, 2}}, {{2, 1}});
  const Status status = graph::ValidateAndCanonicalizeBatch(&batch);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("both insert and delete"),
            std::string::npos)
      << status.message();
}

TEST(DynMutationIo, ValidateNamesTheFirstErrorInScanOrder) {
  // Scan order is inserts, then deletes. {1, 2} sorts before {5, 6}, but
  // {5, 6} repeats first; the self-loop comes after both repeats.
  MutationBatch batch =
      Batch({{1, 2}, {5, 6}, {6, 5}, {2, 1}}, {{9, 9}, {1, 2}});
  EXPECT_EQ(graph::ValidateAndCanonicalizeBatch(&batch).message(),
            "mutation batch lists edge {5, 6} twice among inserts");

  // A key listed three times is named at its second occurrence, and a
  // self-loop ahead of every repeat wins.
  batch = Batch({{3, 4}, {8, 7}}, {{7, 8}, {4, 3}, {8, 7}});
  EXPECT_EQ(graph::ValidateAndCanonicalizeBatch(&batch).message(),
            "mutation batch lists edge {7, 8} as both insert and delete");
  batch = Batch({{3, 4}}, {{5, 6}, {2, 2}, {6, 5}, {4, 3}});
  EXPECT_EQ(graph::ValidateAndCanonicalizeBatch(&batch).message(),
            "mutation batch contains self-loop {2, 2}");
  batch = Batch({}, {{5, 6}, {1, 3}, {3, 1}, {6, 5}, {1, 3}});
  EXPECT_EQ(graph::ValidateAndCanonicalizeBatch(&batch).message(),
            "mutation batch lists edge {1, 3} twice among deletes");
}

TEST(DynMutationIo, ValidateCanonicalizes) {
  MutationBatch batch = Batch({{7, 2}}, {{9, 4}});
  ASSERT_TRUE(graph::ValidateAndCanonicalizeBatch(&batch).ok());
  EXPECT_EQ(batch.inserts[0], (Edge{2, 7}));
  EXPECT_EQ(batch.deletes[0], (Edge{4, 9}));
}

TEST(DynMutationIo, ParseTextBatchesAndComments) {
  const auto parsed = graph::ParseMutationText(
      "# header\n"
      "+ 1 2\n"
      "- 3 4\n"
      "---\n"
      "% second batch\n"
      "+ 5 0\n"
      "---\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].inserts, (std::vector<Edge>{{1, 2}}));
  EXPECT_EQ((*parsed)[0].deletes, (std::vector<Edge>{{3, 4}}));
  EXPECT_EQ((*parsed)[1].inserts, (std::vector<Edge>{{0, 5}}));
  EXPECT_TRUE((*parsed)[1].deletes.empty());
}

TEST(DynMutationIo, ParseTextRejectsBadLineWithLineNumber) {
  const auto parsed = graph::ParseMutationText("+ 1 2\nok nope\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos)
      << parsed.status().message();
}

TEST(DynMutationIo, ParseTextRejectsSelfLoopNamingPairAndBatch) {
  const auto parsed = graph::ParseMutationText("+ 1 2\n---\n+ 6 6\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("{6, 6}"), std::string::npos)
      << parsed.status().message();
  EXPECT_NE(parsed.status().message().find("line 3"), std::string::npos)
      << parsed.status().message();
}

TEST(DynDeltaGraph, ApplyBatchVersionsAreMonotone) {
  VersionedGraph vg(testing::Cycle(6));
  EXPECT_EQ(vg.CurrentVersion(), 0u);
  auto v1 = vg.ApplyBatch(Batch({{0, 2}}, {}));
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(*v1, 1u);
  auto v2 = vg.ApplyBatch(Batch({}, {{0, 1}}));
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2u);
  EXPECT_EQ(vg.CurrentVersion(), 2u);
}

TEST(DynDeltaGraph, RejectsNonLiveDeleteAndLiveInsertNamingPair) {
  VersionedGraph vg(testing::Cycle(6));
  auto missing = vg.ApplyBatch(Batch({}, {{0, 3}}));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(missing.status().message().find("{0, 3}"), std::string::npos);

  auto dup = vg.ApplyBatch(Batch({{1, 0}}, {}));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup.status().message().find("{0, 1}"), std::string::npos);

  auto range = vg.ApplyBatch(Batch({{0, 17}}, {}));
  ASSERT_FALSE(range.ok());
  EXPECT_EQ(range.status().code(), StatusCode::kInvalidArgument);

  // A rejected batch leaves the head untouched.
  EXPECT_EQ(vg.CurrentVersion(), 0u);
  EXPECT_EQ(vg.Snapshot()->NumEdges(), 6u);
}

TEST(DynDeltaGraph, BatchRejectedAtItsLastEntryLeavesHeadUnchanged) {
  VersionedGraphOptions options;
  options.auto_compact = false;
  VersionedGraph vg(testing::Cycle(8), options);
  ASSERT_TRUE(vg.ApplyBatch(Batch({{0, 4}, {2, 6}}, {{0, 1}, {3, 4}})).ok());
  const auto head = vg.Snapshot();
  const std::vector<Edge> live = head->LiveEdges();

  // Every entry is valid except the last insert: {1, 2} is a live base
  // edge, {2, 6} a live overlay insert.
  for (const Edge last : {Edge{2, 1}, Edge{6, 2}}) {
    auto rejected = vg.ApplyBatch(Batch({{0, 1}, {1, 5}, {3, 7}, last},
                                        {{0, 4}, {5, 6}, {0, 7}}));
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
    const std::string pair = "{" + std::to_string(std::min(last.u, last.v)) +
                             ", " + std::to_string(std::max(last.u, last.v)) +
                             "}";
    EXPECT_NE(rejected.status().message().find(
                  "insert of already-live edge " + pair),
              std::string::npos)
        << rejected.status().message();
    EXPECT_EQ(vg.CurrentVersion(), 1u);
    EXPECT_EQ(vg.Snapshot(), head);
    EXPECT_EQ(vg.Snapshot()->LiveEdges(), live);
  }
}

TEST(DynDeltaGraph, RejectionNamesTheFirstOffenderInBatchOrder) {
  VersionedGraphOptions options;
  options.auto_compact = false;
  VersionedGraph vg(testing::Cycle(8), options);  // {0,1} ... {6,7}, {0,7}
  // Two bad inserts, listed against their sorted order: the first listed
  // is named.
  auto inserts = vg.ApplyBatch(Batch({{0, 3}, {5, 6}, {0, 1}}, {}));
  ASSERT_FALSE(inserts.ok());
  EXPECT_NE(inserts.status().message().find("{5, 6}"), std::string::npos)
      << inserts.status().message();
  // A bad delete is named before any bad insert, and an out-of-range
  // endpoint is named where it stands among the deletes.
  auto deletes =
      vg.ApplyBatch(Batch({{1, 2}}, {{1, 3}, {0, 99}, {2, 5}}));
  ASSERT_FALSE(deletes.ok());
  EXPECT_NE(deletes.status().message().find("delete of non-live edge {1, 3}"),
            std::string::npos)
      << deletes.status().message();
  auto range = vg.ApplyBatch(Batch({{1, 2}}, {{0, 99}, {1, 3}}));
  ASSERT_FALSE(range.ok());
  EXPECT_NE(range.status().message().find("out of range in delete {0, 99}"),
            std::string::npos)
      << range.status().message();
  EXPECT_EQ(vg.CurrentVersion(), 0u);
  EXPECT_EQ(vg.Snapshot()->OverlaySize(), 0u);
}

TEST(DynDeltaGraph, OverlayAccessorsMatchMutatedGraph) {
  VersionedGraph vg(testing::Path(5));  // 0-1-2-3-4
  ASSERT_TRUE(vg.ApplyBatch(Batch({{0, 4}, {1, 3}}, {{1, 2}})).ok());
  auto snap = vg.Snapshot();
  EXPECT_EQ(snap->NumNodes(), 5u);
  EXPECT_EQ(snap->NumEdges(), 5u);
  EXPECT_EQ(snap->Degree(0), 2u);  // 1 and 4
  EXPECT_EQ(snap->Degree(1), 2u);  // 0 and 3 (1-2 deleted)
  EXPECT_EQ(snap->Degree(2), 1u);  // 3
  EXPECT_TRUE(snap->HasEdge(0, 4));
  EXPECT_TRUE(snap->HasEdge(3, 1));
  EXPECT_FALSE(snap->HasEdge(1, 2));
  std::vector<NodeId> nbrs;
  snap->ForEachNeighbor(1, [&](NodeId n) { nbrs.push_back(n); });
  EXPECT_EQ(nbrs, (std::vector<NodeId>{0, 3}));
  EXPECT_EQ(snap->LiveEdges(),
            (std::vector<Edge>{{0, 1}, {0, 4}, {1, 3}, {2, 3}, {3, 4}}));
}

TEST(DynDeltaGraph, SnapshotIsolationAcrossMutationsAndCompaction) {
  VersionedGraphOptions options;
  options.auto_compact = false;
  VersionedGraph vg(testing::Cycle(4), options);
  auto before = vg.Snapshot();
  ASSERT_TRUE(vg.ApplyBatch(Batch({{0, 2}}, {{0, 1}})).ok());
  ASSERT_TRUE(vg.Compact().ok());
  ASSERT_TRUE(vg.ApplyBatch(Batch({{1, 3}}, {})).ok());
  // The pinned snapshot still sees version 0 exactly.
  EXPECT_EQ(before->version(), 0u);
  EXPECT_EQ(before->NumEdges(), 4u);
  EXPECT_TRUE(before->HasEdge(0, 1));
  EXPECT_FALSE(before->HasEdge(0, 2));
  auto after = vg.Snapshot();
  EXPECT_EQ(after->version(), 2u);
  EXPECT_TRUE(after->HasEdge(1, 3));
  EXPECT_FALSE(after->HasEdge(0, 1));
}

/// Everything a reader can observe of one version.
struct ViewImage {
  uint64_t num_edges = 0;
  std::vector<Edge> live;
  std::vector<uint64_t> degrees;
  std::vector<std::vector<NodeId>> neighbors;
  std::vector<bool> has_edge;  // row-major over all ordered pairs

  explicit ViewImage(const DeltaGraph& g) : num_edges(g.NumEdges()) {
    live = g.LiveEdges();
    const auto n = static_cast<NodeId>(g.NumNodes());
    for (NodeId u = 0; u < n; ++u) {
      degrees.push_back(g.Degree(u));
      neighbors.emplace_back();
      g.ForEachNeighbor(u, [&](NodeId v) { neighbors.back().push_back(v); });
      for (NodeId v = 0; v < n; ++v) has_edge.push_back(g.HasEdge(u, v));
    }
  }
  bool operator==(const ViewImage&) const = default;
};

TEST(DynDeltaGraph, PinnedSnapshotUnchangedByLaterBatchesAndCompaction) {
  VersionedGraphOptions options;
  options.auto_compact = false;
  VersionedGraph vg(testing::Cycle(8), options);
  ASSERT_TRUE(vg.ApplyBatch(Batch({{0, 4}, {2, 6}}, {{0, 1}, {3, 4}})).ok());
  ASSERT_TRUE(vg.ApplyBatch(Batch({{1, 5}, {0, 1}}, {{2, 6}})).ok());
  const auto pinned = vg.Snapshot();
  const ViewImage image(*pinned);
  // Overlay at the pin: {0, 4} and {1, 5} inserted, base {3, 4} deleted.
  EXPECT_EQ(image.num_edges, 9u);
  EXPECT_EQ(pinned->OverlaySize(), 3u);

  // Later batches delete and re-insert around the pinned overlay, then a
  // compaction installs a new base and one more batch lands on it.
  ASSERT_TRUE(vg.ApplyBatch(Batch({{2, 6}, {3, 7}}, {{1, 5}, {5, 6}})).ok());
  ASSERT_TRUE(vg.ApplyBatch(Batch({{3, 4}}, {{0, 4}})).ok());
  ASSERT_TRUE(vg.Compact().ok());
  ASSERT_TRUE(vg.ApplyBatch(Batch({{1, 5}}, {{2, 3}})).ok());
  EXPECT_NE(vg.Snapshot()->base(), pinned->base());

  EXPECT_EQ(pinned->version(), 2u);
  EXPECT_TRUE(ViewImage(*pinned) == image);
}

TEST(DynDeltaGraph, UnDeleteAndDeleteOfInsertCancelOut) {
  // Overlay-algebra assertions need a stable base: a background compaction
  // landing mid-sequence would re-base the overlay and make OverlaySize
  // timing-dependent (LiveEdges would still be right).
  VersionedGraphOptions options;
  options.auto_compact = false;
  VersionedGraph vg(testing::Cycle(4), options);
  ASSERT_TRUE(vg.ApplyBatch(Batch({}, {{0, 1}})).ok());
  ASSERT_TRUE(vg.ApplyBatch(Batch({{1, 0}}, {})).ok());  // un-delete
  ASSERT_TRUE(vg.ApplyBatch(Batch({{0, 2}}, {})).ok());
  ASSERT_TRUE(vg.ApplyBatch(Batch({}, {{0, 2}})).ok());  // delete the insert
  auto snap = vg.Snapshot();
  EXPECT_EQ(snap->OverlaySize(), 0u);
  EXPECT_EQ(snap->LiveEdges(),
            (std::vector<Edge>{{0, 1}, {0, 3}, {1, 2}, {2, 3}}));
}

TEST(DynDeltaGraph, MaterializeMatchesFromScratchBitIdentically) {
  VersionedGraphOptions options;
  options.auto_compact = false;
  VersionedGraph vg(testing::TwoTrianglesWithBridge(), options);
  ASSERT_TRUE(vg.ApplyBatch(Batch({{0, 3}, {1, 5}}, {{2, 3}})).ok());
  auto snap = vg.Snapshot();
  auto materialized = snap->Materialize();
  ASSERT_TRUE(materialized.ok());
  auto scratch = graph::Graph::FromEdges(
      6, {{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}, {0, 3}, {1, 5}});
  ASSERT_TRUE(scratch.ok());
  EXPECT_TRUE(materialized->edges() == scratch->edges());
  EXPECT_EQ(std::vector<uint64_t>(materialized->RawOffsets().begin(),
                                  materialized->RawOffsets().end()),
            std::vector<uint64_t>(scratch->RawOffsets().begin(),
                                  scratch->RawOffsets().end()));
  EXPECT_EQ(std::vector<NodeId>(materialized->RawAdjacency().begin(),
                                materialized->RawAdjacency().end()),
            std::vector<NodeId>(scratch->RawAdjacency().begin(),
                                scratch->RawAdjacency().end()));
  EXPECT_EQ(std::vector<graph::EdgeId>(materialized->RawIncident().begin(),
                                       materialized->RawIncident().end()),
            std::vector<graph::EdgeId>(scratch->RawIncident().begin(),
                                       scratch->RawIncident().end()));
}

/// Applies `batches` to an uncompacted overlay on `base` and checks that
/// LiveEdges() and Materialize() equal a from-scratch build over the live
/// set tracked independently here.
void ExpectLiveEdgesMatchFromScratch(const graph::Graph& base,
                                     const std::vector<MutationBatch>& batches) {
  VersionedGraphOptions options;
  options.auto_compact = false;
  VersionedGraph vg(base, options);
  std::set<Edge> live(base.edges().begin(), base.edges().end());
  for (const MutationBatch& batch : batches) {
    ASSERT_TRUE(vg.ApplyBatch(batch).ok());
    for (const Edge& e : batch.deletes) live.erase(e);
    for (const Edge& e : batch.inserts) live.insert(e);
  }
  const std::vector<Edge> expected(live.begin(), live.end());
  auto snap = vg.Snapshot();
  EXPECT_EQ(snap->LiveEdges(), expected);
  auto materialized = snap->Materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  auto scratch = graph::Graph::FromEdges(
      static_cast<NodeId>(base.NumNodes()), expected);
  ASSERT_TRUE(scratch.ok());
  EXPECT_TRUE(materialized->edges() == scratch->edges());
  EXPECT_TRUE(std::ranges::equal(materialized->RawOffsets(),
                                 scratch->RawOffsets()));
  EXPECT_TRUE(std::ranges::equal(materialized->RawAdjacency(),
                                 scratch->RawAdjacency()));
  EXPECT_TRUE(std::ranges::equal(materialized->RawIncident(),
                                 scratch->RawIncident()));
}

// Cycle(8) base ids, canonical order: 0 {0,1}, 1 {0,7}, 2 {1,2}, 3 {2,3},
// 4 {3,4}, 5 {4,5}, 6 {5,6}, 7 {6,7}.

TEST(DynDeltaGraph, LiveEdgesSkipFirstAndLastBaseIds) {
  const graph::Graph base = testing::Cycle(8);
  ExpectLiveEdgesMatchFromScratch(base, {Batch({}, {{0, 1}, {6, 7}})});
  // Inserts become the first and the last live edge.
  ExpectLiveEdgesMatchFromScratch(
      base, {Batch({{0, 2}, {5, 7}}, {{0, 1}}), Batch({}, {{6, 7}})});
}

TEST(DynDeltaGraph, LiveEdgesSkipConsecutiveBaseIds) {
  const graph::Graph base = testing::Cycle(8);
  ExpectLiveEdgesMatchFromScratch(
      base, {Batch({{2, 5}}, {{2, 3}, {3, 4}}),
             Batch({{1, 4}}, {{1, 2}, {4, 5}})});
}

TEST(DynDeltaGraph, LiveEdgesWithEveryBaseEdgeDeleted) {
  const graph::Graph base = testing::Cycle(8);
  const std::vector<Edge> all(base.edges().begin(), base.edges().end());
  ExpectLiveEdgesMatchFromScratch(base, {Batch({}, all)});
  ExpectLiveEdgesMatchFromScratch(base, {Batch({{0, 2}, {1, 3}}, all)});
}

TEST(DynDeltaGraph, LiveEdgesAfterReinsertingDeletedBaseEdge) {
  const graph::Graph base = testing::Cycle(8);
  ExpectLiveEdgesMatchFromScratch(
      base, {Batch({{0, 4}}, {{0, 1}, {3, 4}, {6, 7}}), Batch({{3, 4}}, {}),
             Batch({{0, 1}}, {{0, 4}, {2, 3}})});
}

// DeltaGraph::EdgeIdsOf against the ForEachLiveEdge walk it replaces.

/// Every live edge's id by walking the version, keyed by the pair.
std::map<std::pair<NodeId, NodeId>, graph::EdgeId> WalkIds(
    const DeltaGraph& snap) {
  std::map<std::pair<NodeId, NodeId>, graph::EdgeId> ids;
  graph::EdgeId id = 0;
  snap.ForEachLiveEdge([&](const Edge& e) { ids[{e.u, e.v}] = id++; });
  return ids;
}

/// EdgeIdsOf over all live edges and over every third one, at 1 and 4
/// threads, equals the walk.
void ExpectIdsMatchWalk(const DeltaGraph& snap) {
  const auto walk = WalkIds(snap);
  const std::vector<Edge> live = snap.LiveEdges();
  std::vector<Edge> some;
  for (size_t i = 1; i < live.size(); i += 3) some.push_back(live[i]);
  const std::vector<const std::vector<Edge>*> lists = {&live, &some};
  for (const std::vector<Edge>* edges : lists) {
    for (const int threads : {1, 4}) {
      auto ids = snap.EdgeIdsOf(*edges, threads);
      ASSERT_TRUE(ids.ok()) << ids.status();
      ASSERT_EQ(ids->size(), edges->size());
      for (size_t i = 0; i < edges->size(); ++i) {
        ASSERT_EQ((*ids)[i], walk.at({(*edges)[i].u, (*edges)[i].v}))
            << "edge " << i << " at " << threads << " threads";
      }
    }
  }
}

/// A path over 1..n-2 with chords, so vertex 0 and vertex n-1 have no base
/// edge: an insert at either end lands before the first or after the last
/// base edge. Large enough that 4 threads split the id mapping.
graph::Graph ChordedPath(NodeId n) {
  std::set<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 1; u + 2 < n; ++u) edges.emplace(u, u + 1);
  for (NodeId u = 1; u + 7 < n; u += 2) edges.emplace(u, u + 7);
  for (NodeId u = 3; u + 30 < n; u += 5) edges.emplace(u, u + 30);
  std::vector<Edge> list;
  for (const auto& [u, v] : edges) list.push_back({u, v});
  return testing::MustBuild(n, std::move(list));
}

TEST(DynDeltaGraph, EdgeIdsOfMatchesTheWalkAcrossScriptedVersions) {
  const NodeId n = 1200;
  const graph::Graph base = ChordedPath(n);
  const Edge first = base.edge(0);
  const Edge last = base.edge(base.NumEdges() - 1);
  const Edge middle = base.edge(base.NumEdges() / 2);
  VersionedGraph vg(base, {.auto_compact = false});
  {
    SCOPED_TRACE("empty overlay");
    ExpectIdsMatchWalk(*vg.Snapshot());
  }
  // Inserts before the first and after the last base edge; deletes of base
  // id 0, the last base id and one in between.
  ASSERT_TRUE(vg.ApplyBatch(Batch({{0, 1}, {0, n - 1}, {n - 2, n - 1}},
                                  {first, last, middle}))
                  .ok());
  {
    SCOPED_TRACE("inserts at both ends, deletes of the first and last ids");
    ExpectIdsMatchWalk(*vg.Snapshot());
  }
  // A deleted base edge re-inserted, and inserts spread through the range.
  std::vector<Edge> spread = {middle};
  for (NodeId u = 2; u + 100 < n; u += 97) spread.push_back({u, u + 100});
  ASSERT_TRUE(vg.ApplyBatch(Batch(spread, {{0, 1}})).ok());
  {
    SCOPED_TRACE("deleted base edge re-inserted");
    ExpectIdsMatchWalk(*vg.Snapshot());
  }
  ASSERT_TRUE(vg.Compact().ok());
  ASSERT_EQ(vg.Snapshot()->OverlaySize(), 0u);
  {
    SCOPED_TRACE("after Compact()");
    ExpectIdsMatchWalk(*vg.Snapshot());
  }
}

TEST(DynDeltaGraph, EdgeIdsOfRejectsEdgesThatAreNotLiveAsInternal) {
  const graph::Graph base = testing::Cycle(8);
  VersionedGraph vg(base);
  ASSERT_TRUE(vg.ApplyBatch(Batch({{0, 4}}, {{2, 3}})).ok());
  const auto snap = vg.Snapshot();
  const std::vector<std::vector<Edge>> bad = {
      {{0, 1}, {2, 3}},  // a deleted base edge
      {{0, 5}},          // never an edge
      {{1, 2}, {0, 4}},  // live, but out of order
      {{4, 3}},          // not canonical
  };
  for (const std::vector<Edge>& edges : bad) {
    const auto ids = snap->EdgeIdsOf(edges);
    ASSERT_FALSE(ids.ok());
    EXPECT_EQ(ids.status().code(), StatusCode::kInternal);
  }
  // The message names the first edge that is not live.
  EXPECT_NE(snap->EdgeIdsOf(bad[0]).status().message().find("{2, 3}"),
            std::string::npos);
  auto empty = snap->EdgeIdsOf({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(DynDeltaGraph, BaseRanksOfCountsBaseEdgesBelowAnyEdge) {
  const NodeId n = 300;
  VersionedGraph vg(ChordedPath(n), {.auto_compact = false});
  ASSERT_TRUE(vg.ApplyBatch(Batch({{0, 1}, {0, n - 1}, {5, 200}}, {})).ok());
  const auto snap = vg.Snapshot();
  const std::span<const Edge> base_edges = snap->base()->edges();
  // Base edges, inserted edges, edges above every base edge and out of
  // order: r is always the lower bound in the base edge list.
  std::vector<Edge> edges = snap->LiveEdges();
  edges.push_back({n - 2, n - 1});
  edges.push_back({4, 6});
  edges.push_back({0, 1});
  for (const int threads : {1, 4}) {
    const std::vector<uint32_t> ranks = snap->BaseRanksOf(edges, threads);
    ASSERT_EQ(ranks.size(), edges.size());
    for (size_t i = 0; i < edges.size(); ++i) {
      EXPECT_EQ(ranks[i],
                std::lower_bound(base_edges.begin(), base_edges.end(),
                                 edges[i]) -
                    base_edges.begin())
          << "{" << edges[i].u << ", " << edges[i].v << "}";
    }
  }
}

TEST(DynDeltaGraph, IdsFromRanksRejectsRanksThatMissTheBase) {
  VersionedGraph vg(testing::Cycle(8), {.auto_compact = false});
  ASSERT_TRUE(vg.ApplyBatch(Batch({{0, 4}}, {{2, 3}})).ok());
  const auto snap = vg.Snapshot();
  const std::vector<Edge> live = snap->LiveEdges();
  std::vector<uint32_t> ranks = snap->BaseRanksOf(live);
  ASSERT_TRUE(snap->IdsFromRanks(live, ranks).ok());
  // A base edge with another base edge's rank, an inserted edge with a rank
  // that is not its lower bound, and a rank past the base.
  for (const size_t i : {size_t{0}, size_t{1}, live.size() - 1}) {
    std::vector<uint32_t> wrong = ranks;
    wrong[i] += i + 1 == live.size() ? 5 : 1;
    const auto ids = snap->IdsFromRanks(live, wrong);
    ASSERT_FALSE(ids.ok()) << "edge " << i;
    EXPECT_EQ(ids.status().code(), StatusCode::kInternal);
  }
}

TEST(DynDeltaGraph, BackgroundCompactionPreservesVersionsAndEdges) {
  VersionedGraphOptions options;
  options.compact_ratio = 0.01;  // compact after every batch
  VersionedGraph vg(testing::Cycle(8), options);
  ASSERT_TRUE(vg.ApplyBatch(Batch({{0, 4}}, {{0, 1}})).ok());
  vg.WaitForCompaction();
  auto snap = vg.Snapshot();
  EXPECT_EQ(snap->version(), 1u);
  // Compaction folded the overlay into the base.
  EXPECT_EQ(snap->OverlaySize(), 0u);
  EXPECT_TRUE(snap->HasEdge(0, 4));
  EXPECT_FALSE(snap->HasEdge(0, 1));
  // Mutations after compaction keep the version sequence.
  auto v2 = vg.ApplyBatch(Batch({{0, 1}}, {}));
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2u);
}

TEST(DynDeltaGraph, BatchesSinceReturnsSuffixOrNulloptWhenTrimmed) {
  VersionedGraphOptions options;
  options.auto_compact = false;
  options.history_limit = 2;
  VersionedGraph vg(testing::Clique(5), options);
  ASSERT_TRUE(vg.ApplyBatch(Batch({}, {{0, 1}})).ok());
  ASSERT_TRUE(vg.ApplyBatch(Batch({}, {{0, 2}})).ok());
  ASSERT_TRUE(vg.ApplyBatch(Batch({}, {{0, 3}})).ok());

  auto since1 = vg.BatchesSince(1);
  ASSERT_TRUE(since1.has_value());
  ASSERT_EQ(since1->size(), 2u);
  EXPECT_EQ((*since1)[0].deletes, (std::vector<Edge>{{0, 2}}));
  EXPECT_EQ((*since1)[1].deletes, (std::vector<Edge>{{0, 3}}));
  auto current = vg.BatchesSince(3);
  ASSERT_TRUE(current.has_value());
  EXPECT_TRUE(current->empty());
  // Future versions are unknown.
  EXPECT_FALSE(vg.BatchesSince(9).has_value());

  // History trimming only happens for batches already folded into the
  // base; compact, then push the limit.
  ASSERT_TRUE(vg.Compact().ok());
  ASSERT_TRUE(vg.ApplyBatch(Batch({}, {{0, 4}})).ok());
  ASSERT_TRUE(vg.ApplyBatch(Batch({}, {{1, 2}})).ok());
  ASSERT_TRUE(vg.ApplyBatch(Batch({}, {{1, 3}})).ok());
  EXPECT_FALSE(vg.BatchesSince(1).has_value());  // trimmed
  auto tail = vg.BatchesSince(4);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->size(), 2u);
}

}  // namespace
}  // namespace edgeshed::dyn
