#include "graph/external_build.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "graph/binary_io.h"
#include "graph/edge_list_io.h"
#include "testing/test_graphs.h"

namespace edgeshed::graph {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class ExternalBuildTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  /// Builds the reference snapshot through the in-memory path.
  std::string InMemorySnapshot(const std::string& text_path,
                               const std::string& name) {
    auto loaded = LoadEdgeList(text_path, {});
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    SnapshotOptions options;
    options.original_ids = loaded->original_ids;
    const std::string path = TempPath(name);
    EXPECT_TRUE(SaveBinaryGraph(loaded->graph, path, options).ok());
    return path;
  }
};

TEST_F(ExternalBuildTest, SmallInputMatchesInMemoryPathByteForByte) {
  const std::string text = TempPath("small.txt");
  WriteFile(text,
            "# comment line\n"
            "1000 7\n"
            "7 42\n"
            "42 1000\n"
            "7 7\n"      // self-loop: dropped, node still counted
            "42 7\n"     // reverse duplicate
            "1000 7\n"); // exact duplicate
  const std::string expected = InMemorySnapshot(text, "small_ref.es3");
  const std::string out = TempPath("small_ext.es3");
  auto stats = BuildSnapshotExternal(text, out);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->num_nodes, 3u);
  EXPECT_EQ(stats->num_edges, 3u);
  EXPECT_EQ(stats->input_edges, 6u);
  EXPECT_EQ(ReadFile(out), ReadFile(expected));
}

TEST_F(ExternalBuildTest, IdentityIdsOmitTheTable) {
  const std::string text = TempPath("identity.txt");
  WriteFile(text, "0 1\n1 2\n2 0\n");
  const std::string expected = InMemorySnapshot(text, "identity_ref.es3");
  const std::string out = TempPath("identity_ext.es3");
  ASSERT_TRUE(BuildSnapshotExternal(text, out).ok());
  EXPECT_EQ(ReadFile(out), ReadFile(expected));
  auto loaded = LoadSnapshot(out);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->original_ids.empty());  // identity left implicit
}

TEST_F(ExternalBuildTest, InputLargerThanBudgetSpillsAndStillMatches) {
  // ~300K directed pairs with duplicates and shuffled order: far beyond the
  // 1 MiB (clamped) budget's ~65K-edge run buffer, so phases A and B must
  // spill several runs each.
  const std::string text = TempPath("big.txt");
  {
    std::ofstream out(text);
    std::mt19937_64 rng(123);
    out << "# big shuffled input\n";
    for (int i = 0; i < 300000; ++i) {
      const uint64_t u = rng() % 40000 + 5;  // non-identity ids
      const uint64_t v = rng() % 40000 + 5;
      out << u << " " << v << "\n";
    }
  }
  const std::string expected = InMemorySnapshot(text, "big_ref.es3");
  const std::string out = TempPath("big_ext.es3");
  ExternalBuildOptions options;
  options.memory_budget_bytes = 1;  // clamped up to 1 MiB
  auto stats = BuildSnapshotExternal(text, out, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->edge_runs, 1u);
  EXPECT_GT(stats->reverse_runs, 1u);
  EXPECT_GT(stats->spilled_bytes, uint64_t{1} << 20);
  // Bounded peak: buffers never grew past the (clamped) budget plus one
  // block's worth of slack.
  EXPECT_LT(stats->peak_buffer_bytes, uint64_t{16} << 20);
  EXPECT_EQ(ReadFile(out), ReadFile(expected));
}

TEST_F(ExternalBuildTest, ConvertedSnapshotServesIdenticalGraph) {
  const std::string text = TempPath("serve.txt");
  {
    std::ofstream out(text);
    std::mt19937_64 rng(77);
    for (int i = 0; i < 20000; ++i) {
      out << rng() % 3000 << " " << rng() % 3000 << "\n";
    }
  }
  const std::string out = TempPath("serve.es3");
  ASSERT_TRUE(BuildSnapshotExternal(text, out).ok());
  auto from_text = LoadEdgeList(text, {});
  auto from_snapshot = LoadSnapshot(out);
  ASSERT_TRUE(from_text.ok());
  ASSERT_TRUE(from_snapshot.ok());
  EXPECT_TRUE(from_snapshot->graph.IsMapped());
  EXPECT_EQ(from_snapshot->graph.edges(), from_text->graph.edges());
  EXPECT_EQ(from_snapshot->original_ids, from_text->original_ids);
}

TEST_F(ExternalBuildTest, TempFilesAreRemovedOnSuccess) {
  const std::string dir = TempPath("tmp_success");
  std::filesystem::create_directories(dir);
  const std::string text = dir + "/in.txt";
  WriteFile(text, "0 1\n1 2\n");
  const std::string out = dir + "/out.es3";
  ASSERT_TRUE(BuildSnapshotExternal(text, out).ok());
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 2u);  // in.txt and out.es3 only
}

TEST_F(ExternalBuildTest, TempFilesAreRemovedOnParseFailure) {
  const std::string dir = TempPath("tmp_failure");
  std::filesystem::create_directories(dir);
  const std::string text = dir + "/in.txt";
  WriteFile(text, "0 1\nnot an edge\n");
  const std::string out = dir + "/out.es3";
  auto stats = BuildSnapshotExternal(text, out);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(name == "in.txt" || name == "out.es3") << name;
  }
}

TEST_F(ExternalBuildTest, ParseErrorNamesGlobalLine) {
  const std::string text = TempPath("badline.txt");
  WriteFile(text, "0 1\n1 2\n# fine\nbroken here\n");
  auto stats = BuildSnapshotExternal(text, TempPath("badline.es3"));
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stats.status().message().find(":4:"), std::string::npos)
      << stats.status().ToString();
}

TEST_F(ExternalBuildTest, RejectsBinaryInput) {
  const std::string snap = TempPath("already.es3");
  ASSERT_TRUE(SaveBinaryGraph(edgeshed::testing::PaperExampleGraph(), snap,
                              SnapshotOptions{})
                  .ok());
  auto stats = BuildSnapshotExternal(snap, TempPath("reject.es3"));
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExternalBuildTest, RejectsNonV3Options) {
  const std::string text = TempPath("v2req.txt");
  WriteFile(text, "0 1\n");
  ExternalBuildOptions options;
  options.snapshot.version = 2;
  auto stats = BuildSnapshotExternal(text, TempPath("v2req.es3"), options);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExternalBuildTest, MissingInputIsIOError) {
  auto stats =
      BuildSnapshotExternal(TempPath("ghost.txt"), TempPath("ghost.es3"));
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kIOError);
}

TEST_F(ExternalBuildTest, EmptyInputBuildsEmptySnapshot) {
  const std::string text = TempPath("empty.txt");
  WriteFile(text, "# nothing but comments\n\n");
  const std::string out = TempPath("empty.es3");
  auto stats = BuildSnapshotExternal(text, out);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->num_nodes, 0u);
  EXPECT_EQ(stats->num_edges, 0u);
  auto loaded = LoadSnapshot(out);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph.NumNodes(), 0u);
}

TEST_F(ExternalBuildTest, CancelStopsTheBuild) {
  const std::string text = TempPath("cancel.txt");
  WriteFile(text, "0 1\n1 2\n");
  CancellationToken token;
  token.Cancel();
  ExternalBuildOptions options;
  options.cancel = &token;
  auto stats = BuildSnapshotExternal(text, TempPath("cancel.es3"), options);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCancelled);
}

TEST_F(ExternalBuildTest, TempDirOptionIsHonored) {
  const std::string spill_dir = TempPath("spill_here");
  std::filesystem::create_directories(spill_dir);
  const std::string text = TempPath("tempdir.txt");
  WriteFile(text, "5 6\n6 7\n");
  ExternalBuildOptions options;
  options.temp_dir = spill_dir;
  const std::string out = TempPath("tempdir.es3");
  ASSERT_TRUE(BuildSnapshotExternal(text, out, options).ok());
  // Spill dir used and cleaned: nothing left behind.
  EXPECT_TRUE(std::filesystem::is_empty(spill_dir));
  EXPECT_TRUE(LoadSnapshot(out).ok());
}

}  // namespace
}  // namespace edgeshed::graph
