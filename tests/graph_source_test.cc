#include "graph/source.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "graph/binary_io.h"
#include "graph/edge_list_io.h"
#include "graph/generators/generators.h"
#include "testing/test_graphs.h"

namespace edgeshed::graph {
namespace {

using ::edgeshed::testing::PaperExampleGraph;

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class GraphSourceTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }
};

TEST_F(GraphSourceTest, SniffClassifiesMagics) {
  EXPECT_EQ(SniffGraphFormat("EDGSHED1........"), GraphFormat::kSnapshot);
  EXPECT_EQ(SniffGraphFormat("EDGSHED2........"), GraphFormat::kSnapshot);
  EXPECT_EQ(SniffGraphFormat("EDGSHED3........"), GraphFormat::kSnapshot);
  EXPECT_EQ(SniffGraphFormat("EDGSHEDL........"), GraphFormat::kSnapshot);
  EXPECT_EQ(SniffGraphFormat("# comment\n0 1\n"), GraphFormat::kText);
  EXPECT_EQ(SniffGraphFormat("0 1\n"), GraphFormat::kText);
  EXPECT_EQ(SniffGraphFormat(""), GraphFormat::kText);
  EXPECT_EQ(SniffGraphFormat("EDGSHED"), GraphFormat::kText);  // too short
  EXPECT_EQ(SniffGraphFormat("EDGSHEDX"), GraphFormat::kText);
}

TEST_F(GraphSourceTest, FormatNamesRoundTrip) {
  for (const GraphFormat f :
       {GraphFormat::kAuto, GraphFormat::kText, GraphFormat::kSnapshot}) {
    auto parsed = ParseGraphFormat(GraphFormatName(f));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, f);
  }
  EXPECT_FALSE(ParseGraphFormat("csv").ok());
  EXPECT_FALSE(ParseGraphFormat("binary_edges").ok());
  EXPECT_EQ(ParseGraphFormat("csv").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GraphSourceTest, DetectReadsTheFile) {
  const std::string text = TempPath("detect.txt");
  WriteFile(text, "0 1\n");
  auto detected = DetectGraphFormat(text);
  ASSERT_TRUE(detected.ok());
  EXPECT_EQ(*detected, GraphFormat::kText);

  const std::string snap = TempPath("detect.esg");
  ASSERT_TRUE(SaveBinaryGraph(PaperExampleGraph(), snap).ok());
  detected = DetectGraphFormat(snap);
  ASSERT_TRUE(detected.ok());
  EXPECT_EQ(*detected, GraphFormat::kSnapshot);

  EXPECT_EQ(DetectGraphFormat(TempPath("missing.txt")).status().code(),
            StatusCode::kIOError);
}

TEST_F(GraphSourceTest, AutoLoadsEveryFormat) {
  // Text is the source of truth: reloading it fixes the dense numbering
  // every other format must reproduce.
  const std::string text = TempPath("auto.txt");
  ASSERT_TRUE(SaveEdgeList(PaperExampleGraph(), text).ok());
  auto ref = LoadGraph(text);
  ASSERT_TRUE(ref.ok());

  const std::string snapshot = TempPath("auto.es3");
  SnapshotOptions snapshot_options;
  snapshot_options.original_ids = ref->original_ids;
  ASSERT_TRUE(SaveBinaryGraph(ref->graph, snapshot, snapshot_options).ok());

  for (const std::string& path : {text, snapshot}) {
    auto loaded = LoadGraph(path);  // implicit GraphSource, kAuto
    ASSERT_TRUE(loaded.ok()) << path << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded->graph.edges(), ref->graph.edges()) << path;
  }
}

TEST_F(GraphSourceTest, ExplicitFormatMismatchFails) {
  const std::string snapshot = TempPath("mismatch.es3");
  ASSERT_TRUE(
      SaveBinaryGraph(PaperExampleGraph(), snapshot, SnapshotOptions{}).ok());
  auto loaded = LoadGraph({snapshot, GraphFormat::kText});
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("EDGSHED3"), std::string::npos);

  const std::string text = TempPath("mismatch.txt");
  WriteFile(text, "0 1\n");
  loaded = LoadGraph({text, GraphFormat::kSnapshot});
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphSourceTest, MissingFileIsIOError) {
  EXPECT_EQ(LoadGraph(TempPath("nope.txt")).status().code(),
            StatusCode::kIOError);
}

TEST_F(GraphSourceTest, TextLoadPreservesOriginalIds) {
  const std::string path = TempPath("remap.txt");
  WriteFile(path, "# remapped\n1000 7\n7 42\n42 1000\n");
  auto loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->graph.NumNodes(), 3u);
  EXPECT_EQ(loaded->graph.NumEdges(), 3u);
  const std::vector<uint64_t> want = {1000, 7, 42};  // first-seen order
  EXPECT_EQ(loaded->original_ids, want);
}

TEST_F(GraphSourceTest, SnapshotRoundTripsLoadedGraphExactly) {
  const std::string text = TempPath("rt.txt");
  WriteFile(text, "500 9\n9 8\n8 500\n500 77\n9 8\n");  // dup collapses
  auto from_text = LoadGraph(text);
  ASSERT_TRUE(from_text.ok());

  const std::string binary = TempPath("rt.es3");
  SnapshotOptions options;
  options.original_ids = from_text->original_ids;
  ASSERT_TRUE(SaveBinaryGraph(from_text->graph, binary, options).ok());
  auto from_binary = LoadGraph(binary);
  ASSERT_TRUE(from_binary.ok()) << from_binary.status().ToString();
  EXPECT_EQ(from_binary->graph.edges(), from_text->graph.edges());
  EXPECT_EQ(from_binary->original_ids, from_text->original_ids);
}

TEST_F(GraphSourceTest, ThreadCountDoesNotChangeTextLoad) {
  Rng rng(13);
  const Graph g = ErdosRenyi(400, 1600, rng);
  const std::string path = TempPath("threads.txt");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  IngestOptions serial;
  serial.threads = 1;
  IngestOptions wide;
  wide.threads = 8;
  auto a = LoadGraph(path, serial);
  auto b = LoadGraph(path, wide);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->graph.edges(), b->graph.edges());
  EXPECT_EQ(a->original_ids, b->original_ids);
}

TEST_F(GraphSourceTest, CancelledTextLoadReturnsCancelled) {
  const std::string path = TempPath("cancel.txt");
  WriteFile(path, "0 1\n1 2\n");
  CancellationToken token;
  token.Cancel();
  IngestOptions options;
  options.cancel = &token;
  auto loaded = LoadGraph(path, options);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace edgeshed::graph
