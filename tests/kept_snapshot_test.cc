// WriteKeptSnapshot, the one G' writer: its files must equal, byte for
// byte, SaveBinaryGraph over the kept subgraph built in memory, at any
// layout, and load back through both v3 load modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/bm2.h"
#include "core/crr.h"
#include "graph/binary_io.h"
#include "graph/datasets.h"
#include "graph/generators/generators.h"
#include "testing/test_graphs.h"

namespace edgeshed::graph {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/kept_snapshot_" + name;
}

/// Writes the kept subgraph both ways and expects identical, non-empty
/// files.
void ExpectSameBytes(const Graph& parent, const std::vector<EdgeId>& ids,
                     const std::string& name,
                     const SnapshotOptions& options = {}) {
  SCOPED_TRACE(name);
  const std::string written = TempPath(name + ".esg");
  const std::string reference = TempPath(name + "_reference.esg");
  ASSERT_TRUE(WriteKeptSnapshot(parent, ids, written, options).ok());
  ASSERT_TRUE(
      SaveBinaryGraph(SubgraphFromEdgeIds(parent, ids), reference, options)
          .ok());
  const std::string bytes = ReadFile(written);
  ASSERT_FALSE(bytes.empty());
  EXPECT_TRUE(bytes == ReadFile(reference));
}

/// Every other edge id, so the kept graph has isolated vertices and
/// vertices with lower neighbours only.
std::vector<EdgeId> EveryOther(const Graph& g) {
  std::vector<EdgeId> ids;
  for (EdgeId e = 0; e < g.NumEdges(); e += 2) ids.push_back(e);
  return ids;
}

TEST(KeptSnapshotTest, CrrAndBm2KeptSetsOnTheCatalogSurrogates) {
  for (const DatasetId id : AllDatasets()) {
    const DatasetSpec& spec = GetDatasetSpec(id);
    // About 2,000 vertices each.
    const double scale = 2000.0 / static_cast<double>(spec.paper_nodes);
    const Graph g = MakeDataset(id, {.scale = std::min(0.3, scale)});
    ASSERT_GT(g.NumEdges(), 0u) << spec.name;
    auto crr = core::Crr().Shed(g, {.p = 0.4});
    ASSERT_TRUE(crr.ok()) << crr.status();
    ExpectSameBytes(g, crr->kept_edges, spec.name + "_crr");
    auto bm2 = core::Bm2().Shed(g, {.p = 0.4});
    ASSERT_TRUE(bm2.ok()) << bm2.status();
    ExpectSameBytes(g, bm2->kept_edges, spec.name + "_bm2");
    // Ids in no particular order take the sort-a-copy branch.
    std::vector<EdgeId> shuffled = crr->kept_edges;
    Rng rng(11);
    rng.Shuffle(&shuffled);
    ExpectSameBytes(g, shuffled, spec.name + "_shuffled");
  }
}

TEST(KeptSnapshotTest, EmptyKeptSetsAndIsolatedVertices) {
  const Graph g = testing::PaperExampleGraph();
  ExpectSameBytes(g, {}, "empty_kept");
  ExpectSameBytes(Graph(), {}, "empty_graph");
  // Only the first and the last edge: every other vertex is isolated.
  ExpectSameBytes(g, {0, g.NumEdges() - 1}, "ends_only");
  ExpectSameBytes(g, EveryOther(g), "every_other");

  // The pairs overload over vertices beyond every edge.
  const std::string path = TempPath("isolated_tail.esg");
  const std::vector<Edge> kept = {{1, 2}, {1, 4}, {2, 3}};
  ASSERT_TRUE(WriteKeptSnapshot(10, kept, path).ok());
  const std::string reference = TempPath("isolated_tail_reference.esg");
  ASSERT_TRUE(
      SaveBinaryGraph(testing::MustBuild(10, kept), reference).ok());
  EXPECT_TRUE(ReadFile(path) == ReadFile(reference));
}

TEST(KeptSnapshotTest, ChunksStraddleSectionBoundaries) {
  Rng rng(7);
  const Graph g = BarabasiAlbert(3000, 4, rng);
  const std::vector<EdgeId> ids = EveryOther(g);
  // page_align 8 packs the sections, so 4 KiB chunks cross every boundary;
  // a chunk size that is not a multiple of 8 also splits entries.
  for (const uint64_t chunk : {uint64_t{4096}, uint64_t{4100}}) {
    SnapshotOptions options;
    options.page_align = 8;
    options.chunk_bytes = chunk;
    ExpectSameBytes(g, ids, "straddle_" + std::to_string(chunk), options);
  }
  SnapshotOptions options;
  options.chunk_bytes = 4096;
  std::vector<uint64_t> original_ids(g.NumNodes());
  for (size_t i = 0; i < original_ids.size(); ++i) original_ids[i] = 7 * i;
  options.original_ids = original_ids;
  ExpectSameBytes(g, ids, "original_ids", options);
}

TEST(KeptSnapshotTest, LoadsBackThroughBothLoadModes) {
  Rng rng(3);
  const Graph g = BarabasiAlbert(2000, 5, rng);
  const std::vector<EdgeId> ids = EveryOther(g);
  const Graph expected = SubgraphFromEdgeIds(g, ids);
  SnapshotOptions options;
  options.page_align = 8;
  options.chunk_bytes = 4096;
  const std::string path = TempPath("load_back.esg");
  ASSERT_TRUE(WriteKeptSnapshot(g, ids, path, options).ok());
  for (const bool mmap : {true, false}) {
    SCOPED_TRACE(mmap ? "mmap" : "copy");
    auto loaded = LoadSnapshot(path, {.mmap = mmap});
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->graph.IsMapped(), mmap);
    EXPECT_TRUE(std::ranges::equal(loaded->graph.edges(), expected.edges()));
    EXPECT_TRUE(
        std::ranges::equal(loaded->graph.RawOffsets(), expected.RawOffsets()));
    EXPECT_TRUE(std::ranges::equal(loaded->graph.RawAdjacency(),
                                   expected.RawAdjacency()));
    EXPECT_TRUE(std::ranges::equal(loaded->graph.RawIncident(),
                                   expected.RawIncident()));
  }
}

TEST(KeptSnapshotTest, UnwritablePathIsIOErrorNamingThePath) {
  const std::string path =
      ::testing::TempDir() + "/no_such_directory/kept.esg";
  const Status status =
      WriteKeptSnapshot(testing::PaperExampleGraph(), std::vector<EdgeId>{0},
                        path);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find(path), std::string::npos)
      << status.message();
}

TEST(KeptSnapshotTest, RejectsKeptPairsThatAreNotCanonicalAscending) {
  const std::string path = TempPath("rejected.esg");
  const std::vector<std::vector<Edge>> bad = {
      {{2, 1}},          // not canonical
      {{1, 1}},          // self-loop
      {{1, 9}},          // endpoint out of range
      {{1, 3}, {1, 2}},  // descending
      {{1, 2}, {1, 2}},  // duplicate
  };
  for (const std::vector<Edge>& kept : bad) {
    EXPECT_EQ(WriteKeptSnapshot(5, kept, path).code(),
              StatusCode::kInvalidArgument);
  }
  const Graph g = testing::PaperExampleGraph();
  EXPECT_EQ(WriteKeptSnapshot(g, std::vector<EdgeId>{g.NumEdges()}, path)
                .code(),
            StatusCode::kInvalidArgument);
  SnapshotOptions options;
  options.chunk_bytes = 100;
  EXPECT_EQ(WriteKeptSnapshot(g, std::vector<EdgeId>{0}, path, options).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace edgeshed::graph
