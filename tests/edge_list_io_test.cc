#include "graph/edge_list_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace edgeshed::graph {
namespace {

class EdgeListIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }
};

TEST_F(EdgeListIoTest, LoadsSnapFormat) {
  const std::string path = TempPath("snap.txt");
  WriteFile(path,
            "# Directed graph (each unordered pair of nodes is saved once)\n"
            "# FromNodeId\tToNodeId\n"
            "100\t200\n"
            "200\t300\n"
            "100\t300\n");
  auto loaded = LoadEdgeList(path, {});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph.NumNodes(), 3u);
  EXPECT_EQ(loaded->graph.NumEdges(), 3u);
  EXPECT_EQ(loaded->original_ids.size(), 3u);
  EXPECT_EQ(loaded->original_ids[0], 100u);
}

TEST_F(EdgeListIoTest, CollapsesDirectedDuplicates) {
  const std::string path = TempPath("dups.txt");
  WriteFile(path, "1 2\n2 1\n1 2\n");
  auto loaded = LoadEdgeList(path, {});
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->graph.NumEdges(), 1u);
}

TEST_F(EdgeListIoTest, DropsSelfLoops) {
  const std::string path = TempPath("loops.txt");
  WriteFile(path, "1 1\n1 2\n");
  auto loaded = LoadEdgeList(path, {});
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->graph.NumEdges(), 1u);
}

TEST_F(EdgeListIoTest, SkipsCommentAndBlankLines) {
  const std::string path = TempPath("comments.txt");
  WriteFile(path, "# comment\n% other comment\n\n   \n0 1\n");
  auto loaded = LoadEdgeList(path, {});
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->graph.NumEdges(), 1u);
}

TEST_F(EdgeListIoTest, MissingFileIsIOError) {
  auto loaded = LoadEdgeList(TempPath("does_not_exist.txt"), {});
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(EdgeListIoTest, MalformedLineIsInvalidArgument) {
  const std::string path = TempPath("bad.txt");
  WriteFile(path, "0 1\nnot numbers\n");
  auto loaded = LoadEdgeList(path, {});
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EdgeListIoTest, ParseErrorReportsLineNumberAndSnippet) {
  const std::string path = TempPath("bad_line.txt");
  WriteFile(path, "# header\n0 1\n1 2\nbogus line here\n2 3\n");
  auto loaded = LoadEdgeList(path, {});
  ASSERT_FALSE(loaded.ok());
  const std::string message = loaded.status().ToString();
  EXPECT_NE(message.find(path + ":4:"), std::string::npos) << message;
  EXPECT_NE(message.find("bogus line here"), std::string::npos) << message;
}

TEST_F(EdgeListIoTest, ParseErrorTruncatesLongLines) {
  const std::string path = TempPath("bad_long_line.txt");
  const std::string junk(300, 'x');
  WriteFile(path, "0 1\n" + junk + "\n");
  auto loaded = LoadEdgeList(path, {});
  ASSERT_FALSE(loaded.ok());
  const std::string message = loaded.status().ToString();
  EXPECT_NE(message.find(path + ":2:"), std::string::npos) << message;
  EXPECT_NE(message.find("..."), std::string::npos) << message;
  EXPECT_LT(message.size(), 200u) << message;
}

TEST_F(EdgeListIoTest, FirstBadLineWinsWhenSeveralAreMalformed) {
  const std::string path = TempPath("two_bad.txt");
  WriteFile(path, "0 1\nfirst bad\n1 2\nsecond bad\n");
  auto loaded = LoadEdgeList(path, {});
  ASSERT_FALSE(loaded.ok());
  const std::string message = loaded.status().ToString();
  EXPECT_NE(message.find(":2:"), std::string::npos) << message;
  EXPECT_NE(message.find("first bad"), std::string::npos) << message;
}

// Regression: "-1" used to be accepted via unsigned wrap (istream-style
// modulo 2^64), silently creating node id 18446744073709551615. Negative
// ids must be a parse error, with the line number reported.
TEST_F(EdgeListIoTest, NegativeIdIsInvalidArgumentNotWrapped) {
  const std::string path = TempPath("negative.txt");
  WriteFile(path, "0 1\n-1 5\n");
  auto loaded = LoadEdgeList(path, {});
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  const std::string message = loaded.status().ToString();
  EXPECT_NE(message.find(":2:"), std::string::npos) << message;
  EXPECT_NE(message.find("-1 5"), std::string::npos) << message;
}

TEST_F(EdgeListIoTest, ExplicitPlusSignIsAccepted) {
  const std::string path = TempPath("plus.txt");
  WriteFile(path, "+3 4\n");
  auto loaded = LoadEdgeList(path, {});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph.NumNodes(), 2u);
  EXPECT_EQ(loaded->graph.NumEdges(), 1u);
  EXPECT_EQ(loaded->original_ids[0], 3u);
  EXPECT_EQ(loaded->original_ids[1], 4u);
}

TEST_F(EdgeListIoTest, LoneSignWithoutDigitsIsAnError) {
  const std::string path = TempPath("lone_sign.txt");
  WriteFile(path, "- 2\n");
  auto loaded = LoadEdgeList(path, {});
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EdgeListIoTest, MissingSecondFieldIsAnError) {
  const std::string path = TempPath("one_field.txt");
  WriteFile(path, "0 1\n42\n");
  auto loaded = LoadEdgeList(path, {});
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().ToString().find(":2:"), std::string::npos);
}

TEST_F(EdgeListIoTest, EmptyFileYieldsEmptyGraph) {
  const std::string path = TempPath("empty.txt");
  WriteFile(path, "");
  auto loaded = LoadEdgeList(path, {});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph.NumNodes(), 0u);
  EXPECT_EQ(loaded->graph.NumEdges(), 0u);
}

TEST_F(EdgeListIoTest, FileWithoutTrailingNewlineParses) {
  const std::string path = TempPath("no_trailing_newline.txt");
  WriteFile(path, "0 1\n1 2");
  auto loaded = LoadEdgeList(path, {});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph.NumEdges(), 2u);
}

TEST_F(EdgeListIoTest, ExtraColumnsIgnored) {
  const std::string path = TempPath("extra.txt");
  WriteFile(path, "0 1 42 annotation\n1 2 7\n");
  auto loaded = LoadEdgeList(path, {});
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->graph.NumEdges(), 2u);
}

TEST_F(EdgeListIoTest, SaveLoadRoundTrip) {
  const std::string path = TempPath("roundtrip.txt");
  auto original = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(SaveEdgeList(*original, path).ok());
  auto loaded = LoadEdgeList(path, {});
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->graph.NumNodes(), original->NumNodes());
  EXPECT_EQ(loaded->graph.NumEdges(), original->NumEdges());
}

TEST_F(EdgeListIoTest, SaveToUnwritablePathFails) {
  auto g = Graph::FromEdges(2, {{0, 1}});
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(SaveEdgeList(*g, "/nonexistent_dir_xyz/out.txt").ok());
}

TEST_F(EdgeListIoTest, SparseIdsAreRemappedDensely) {
  const std::string path = TempPath("sparse.txt");
  WriteFile(path, "1000000 2000000\n2000000 3000000\n");
  auto loaded = LoadEdgeList(path, {});
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->graph.NumNodes(), 3u);
  EXPECT_EQ(loaded->original_ids[2], 3000000u);
}

}  // namespace
}  // namespace edgeshed::graph
