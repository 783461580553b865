#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/crr.h"
#include "graph/binary_io.h"
#include "graph/edge_list_io.h"
#include "graph/generators/generators.h"
#include "graph/snapshot_format.h"
#include "graph/source.h"
#include "testing/test_graphs.h"

namespace edgeshed::graph {
namespace {

using ::edgeshed::testing::PaperExampleGraph;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class SnapshotV3Test : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  /// A saved v3 snapshot of the paper graph, with original ids.
  std::string SavedPaperSnapshot(const std::string& name,
                                 SnapshotOptions options = {}) {
    const std::string path = TempPath(name);
    const Graph g = PaperExampleGraph();
    std::vector<uint64_t> ids(g.NumNodes());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = 100 + i;
    options.original_ids = ids;
    EXPECT_TRUE(SaveBinaryGraph(g, path, options).ok());
    return path;
  }
};

/// Whether two graphs have identical CSR arrays and edge lists.
bool SameCsr(const Graph& a, const Graph& b) {
  return a.NumNodes() == b.NumNodes() &&
         std::ranges::equal(a.edges(), b.edges()) &&
         std::ranges::equal(a.RawOffsets(), b.RawOffsets()) &&
         std::ranges::equal(a.RawAdjacency(), b.RawAdjacency()) &&
         std::ranges::equal(a.RawIncident(), b.RawIncident());
}

void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_TRUE(std::equal(a.RawOffsets().begin(), a.RawOffsets().end(),
                         b.RawOffsets().begin(), b.RawOffsets().end()));
  EXPECT_TRUE(std::equal(a.RawAdjacency().begin(), a.RawAdjacency().end(),
                         b.RawAdjacency().begin(), b.RawAdjacency().end()));
  EXPECT_TRUE(std::equal(a.RawIncident().begin(), a.RawIncident().end(),
                         b.RawIncident().begin(), b.RawIncident().end()));
}

TEST_F(SnapshotV3Test, MmapRoundTripPreservesEverything) {
  const Graph g = PaperExampleGraph();
  const std::string path = SavedPaperSnapshot("paper.es3");
  IngestOptions mmap_options;
  mmap_options.mmap = true;
  auto loaded = LoadSnapshot(path, mmap_options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->graph.IsMapped());
  ExpectSameGraph(loaded->graph, g);
  ASSERT_EQ(loaded->original_ids.size(), g.NumNodes());
  EXPECT_EQ(loaded->original_ids[0], 100u);
  EXPECT_EQ(loaded->original_ids[10], 110u);
}

TEST_F(SnapshotV3Test, CopyRoundTripPreservesEverything) {
  const Graph g = PaperExampleGraph();
  const std::string path = SavedPaperSnapshot("paper_copy.es3");
  IngestOptions copy_options;
  copy_options.mmap = false;
  auto loaded = LoadSnapshot(path, copy_options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->graph.IsMapped());
  ExpectSameGraph(loaded->graph, g);
}

TEST_F(SnapshotV3Test, MappedGraphOutlivesOtherHandles) {
  const std::string path = SavedPaperSnapshot("keepalive.es3");
  Graph g;
  {
    auto loaded = LoadSnapshot(path);
    ASSERT_TRUE(loaded.ok());
    g = loaded->graph;  // copy shares the mapping keep-alive
  }
  EXPECT_TRUE(g.IsMapped());
  EXPECT_EQ(g.NumEdges(), 11u);
  EXPECT_EQ(g.Degree(0), g.Neighbors(0).size());
}

TEST_F(SnapshotV3Test, MmapAndCopyShedIdentically) {
  Rng rng(7);
  const Graph g = BarabasiAlbert(400, 3, rng);
  const std::string path = TempPath("shed.es3");
  ASSERT_TRUE(SaveBinaryGraph(g, path, SnapshotOptions{}).ok());
  IngestOptions mmap_options;
  IngestOptions copy_options;
  copy_options.mmap = false;
  auto mapped = LoadSnapshot(path, mmap_options);
  auto copied = LoadSnapshot(path, copy_options);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(copied.ok());
  ASSERT_TRUE(mapped->graph.IsMapped());
  ASSERT_FALSE(copied->graph.IsMapped());
  core::Crr crr;
  auto from_mapped = crr.Shed(mapped->graph, {.p = 0.5});
  auto from_copied = crr.Shed(copied->graph, {.p = 0.5});
  ASSERT_TRUE(from_mapped.ok());
  ASSERT_TRUE(from_copied.ok());
  EXPECT_EQ(from_mapped->kept_edges, from_copied->kept_edges);
}

TEST_F(SnapshotV3Test, SaveIsDeterministic) {
  Rng rng(11);
  const Graph g = ErdosRenyi(500, 2000, rng);
  const std::string a = TempPath("det_a.es3");
  const std::string b = TempPath("det_b.es3");
  ASSERT_TRUE(SaveBinaryGraph(g, a, SnapshotOptions{}).ok());
  ASSERT_TRUE(SaveBinaryGraph(g, b, SnapshotOptions{}).ok());
  EXPECT_EQ(ReadFile(a), ReadFile(b));
}

TEST_F(SnapshotV3Test, EmptyGraphRoundTrips) {
  const Graph g;
  const std::string path = TempPath("empty.es3");
  ASSERT_TRUE(SaveBinaryGraph(g, path, SnapshotOptions{}).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->graph.NumNodes(), 0u);
  EXPECT_EQ(loaded->graph.NumEdges(), 0u);
}

TEST_F(SnapshotV3Test, UnusualAlignmentAndChunkSizesRoundTrip) {
  Rng rng(3);
  const Graph g = ErdosRenyi(300, 1500, rng);
  for (const uint64_t align : {uint64_t{8}, uint64_t{64}, uint64_t{65536}}) {
    SnapshotOptions options;
    options.page_align = align;
    options.chunk_bytes = 4096;
    const std::string path =
        TempPath("align" + std::to_string(align) + ".es3");
    ASSERT_TRUE(SaveBinaryGraph(g, path, options).ok());
    auto loaded = LoadSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << "align=" << align << ": "
                             << loaded.status().ToString();
    ExpectSameGraph(loaded->graph, g);
  }
}

TEST_F(SnapshotV3Test, RejectsUnsupportedVersion) {
  const Graph g = PaperExampleGraph();
  for (const uint32_t version : {0u, 1u, 2u, 4u, 7u}) {
    SnapshotOptions options;
    options.version = version;
    const Status s = SaveBinaryGraph(g, TempPath("v7.es3"), options);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "version " << version;
  }
}

TEST_F(SnapshotV3Test, BareSaveWritesV3) {
  const Graph g = PaperExampleGraph();
  const std::string path = TempPath("bare.esg");
  ASSERT_TRUE(SaveBinaryGraph(g, path).ok());
  const std::string bytes = ReadFile(path);
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 8), "EDGSHED3");
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->graph.IsMapped());
}

TEST_F(SnapshotV3Test, AnyFlippedByteFailsOrLoadsTheSameGraph) {
  // Flip every byte of a small multi-chunk snapshot in turn, for both load
  // paths. Each corruption must fail with DataLoss (a CRC caught it) or
  // InvalidArgument (a field sanity check caught it first), or — for the
  // zero padding between the header and the first section, which no CRC
  // covers — load the very same graph and ids. Never OK with a different
  // graph.
  Rng rng(5);
  const Graph g = BarabasiAlbert(100, 3, rng);
  std::vector<uint64_t> ids(g.NumNodes());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = 7 * i + 1;
  SnapshotOptions options;
  options.page_align = 64;
  options.chunk_bytes = 4096;
  options.original_ids = ids;
  const std::string path = TempPath("bitrot.es3");
  ASSERT_TRUE(SaveBinaryGraph(g, path, options).ok());
  const std::string pristine = ReadFile(path);
  ASSERT_GT(pristine.size(), 2 * options.chunk_bytes);

  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good());
  for (const bool mmap : {true, false}) {
    SCOPED_TRACE(mmap ? "mmap" : "copy");
    IngestOptions load;
    load.mmap = mmap;
    int data_loss = 0;
    int unchanged = 0;
    for (size_t i = 0; i < pristine.size(); ++i) {
      file.seekp(static_cast<std::streamoff>(i));
      file.put(static_cast<char>(pristine[i] ^ 0x01));
      file.flush();
      auto loaded = LoadSnapshot(path, load);
      file.seekp(static_cast<std::streamoff>(i));
      file.put(pristine[i]);
      file.flush();
      if (loaded.ok()) {
        ++unchanged;
        const bool same =
            SameCsr(loaded->graph, g) && loaded->original_ids == ids;
        ASSERT_TRUE(same) << "byte " << i << " loaded a different graph";
        continue;
      }
      const StatusCode code = loaded.status().code();
      ASSERT_TRUE(code == StatusCode::kDataLoss ||
                  code == StatusCode::kInvalidArgument)
          << "byte " << i << ": " << loaded.status().ToString();
      if (code == StatusCode::kDataLoss) ++data_loss;
    }
    EXPECT_GT(data_loss, 0);
    // Only header padding loads: far fewer bytes than one chunk.
    EXPECT_LT(unchanged, 64);
  }
  EXPECT_EQ(ReadFile(path), pristine);
}

TEST_F(SnapshotV3Test, RetiredMagicsAreRejectedNamingTheMagic) {
  // The retired v1/v2 snapshots and the binary edge list still sniff as
  // binary, so no loader parses them as text; each names the magic and
  // says to re-convert.
  for (const std::string magic : {"EDGSHED1", "EDGSHED2", "EDGSHEDL"}) {
    SCOPED_TRACE(magic);
    const std::string path = TempPath("retired_" + magic + ".esg");
    // Node count 2, edge count 1, edge (0, 1), as the retired writers laid
    // out their headers.
    std::string bytes = magic;
    for (const uint64_t field : {uint64_t{2}, uint64_t{1}, uint64_t{1} << 32}) {
      for (int b = 0; b < 8; ++b) {
        bytes.push_back(static_cast<char>((field >> (8 * b)) & 0xff));
      }
    }
    WriteFile(path, bytes);
    EXPECT_EQ(SniffGraphFormat(bytes), GraphFormat::kSnapshot);
    const StatusOr<LoadedGraph> attempts[] = {
        LoadGraph(path),
        LoadGraph({path, GraphFormat::kSnapshot}),
        LoadGraph({path, GraphFormat::kText}),
        LoadEdgeList(path, {}),
    };
    for (const StatusOr<LoadedGraph>& loaded : attempts) {
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(loaded.status().message().find(magic), std::string::npos)
          << loaded.status().ToString();
      EXPECT_NE(loaded.status().message().find("re-convert"),
                std::string::npos)
          << loaded.status().ToString();
    }
  }
}

// --- Corrupt-file corpus: exact status codes, pinned by ISSUE.md. ---

TEST_F(SnapshotV3Test, TruncatedHeaderIsInvalidArgument) {
  const std::string path = SavedPaperSnapshot("trunc.es3");
  const std::string bytes = ReadFile(path);
  for (const size_t keep : {size_t{0}, size_t{4}, size_t{8}, size_t{60},
                            size_t{123}}) {
    const std::string cut = TempPath("trunc_cut.es3");
    WriteFile(cut, bytes.substr(0, keep));
    auto loaded = LoadSnapshot(cut);
    ASSERT_FALSE(loaded.ok()) << "keep=" << keep;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "keep=" << keep << ": " << loaded.status().ToString();
  }
}

TEST_F(SnapshotV3Test, TruncatedDataRegionIsInvalidArgument) {
  const std::string path = SavedPaperSnapshot("trunc_data.es3");
  const std::string bytes = ReadFile(path);
  const std::string cut = TempPath("trunc_data_cut.es3");
  WriteFile(cut, bytes.substr(0, bytes.size() - 100));
  auto loaded = LoadSnapshot(cut);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotV3Test, FlippedDataByteIsDataLossNamingTheChunk) {
  // The paper graph fits in one chunk. The BA graph spans ~1300 4 KiB
  // chunks, enough for both verifiers to split them across workers.
  Rng rng(21);
  const Graph large = BarabasiAlbert(20000, 8, rng);
  SnapshotOptions small_chunks;
  small_chunks.chunk_bytes = 4096;
  const std::string large_path = TempPath("flip_large.es3");
  ASSERT_TRUE(SaveBinaryGraph(large, large_path, small_chunks).ok());
  for (const std::string& path :
       {SavedPaperSnapshot("flip.es3"), large_path}) {
    std::string bytes = ReadFile(path);
    bytes[bytes.size() - 1] ^= 0x40;  // inside the last data chunk
    const std::string bad = path + ".bad";
    WriteFile(bad, bytes);
    for (const bool mmap : {true, false}) {
      IngestOptions options;
      options.mmap = mmap;
      options.threads = 4;
      auto loaded = LoadSnapshot(bad, options);
      ASSERT_FALSE(loaded.ok()) << path << (mmap ? " mmap" : " copy");
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
      EXPECT_NE(loaded.status().message().find("chunk"), std::string::npos)
          << loaded.status().ToString();
    }
  }
  IngestOptions parallel;
  parallel.threads = 4;
  auto loaded = LoadSnapshot(large_path, parallel);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameGraph(loaded->graph, large);
}

TEST_F(SnapshotV3Test, FlippedHeaderCrcIsDataLoss) {
  const std::string path = SavedPaperSnapshot("hdrcrc.es3");
  std::string bytes = ReadFile(path);
  // The num_chunks field feeds the header CRC but passes every sanity
  // bound, so flipping a chunk CRC entry right after it trips the CRC.
  bytes[kSnapshotChunkCountOffset + 4] ^= 0x01;
  const std::string bad = TempPath("hdrcrc_bad.es3");
  WriteFile(bad, bytes);
  auto loaded = LoadSnapshot(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
      << loaded.status().ToString();
}

TEST_F(SnapshotV3Test, BadAlignmentFieldIsInvalidArgumentNotCrcError) {
  const std::string path = SavedPaperSnapshot("badalign.es3");
  std::string bytes = ReadFile(path);
  bytes[24] = 0x03;  // page_align = 3: not a power of two
  const std::string bad = TempPath("badalign_bad.es3");
  WriteFile(bad, bytes);
  auto loaded = LoadSnapshot(bad);
  ASSERT_FALSE(loaded.ok());
  // Field sanity is checked before the header CRC, so the report names the
  // nonsense field instead of a generic checksum mismatch.
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("page_align"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(SnapshotV3Test, SkippingVerificationLoadsFlippedDataByte) {
  const std::string path = SavedPaperSnapshot("noverify.es3");
  std::string bytes = ReadFile(path);
  bytes[bytes.size() - 1] ^= 0x40;  // original_ids payload, not structure
  const std::string bad = TempPath("noverify_bad.es3");
  WriteFile(bad, bytes);
  IngestOptions trusting;
  trusting.verify_checksums = false;
  auto loaded = LoadSnapshot(bad, trusting);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
}

TEST_F(SnapshotV3Test, TextParserRejectsV3SnapshotNamingTheMagic) {
  const std::string path = SavedPaperSnapshot("astext.es3");
  auto loaded = LoadEdgeList(path, {});
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("EDGSHED3"), std::string::npos)
      << loaded.status().ToString();
  // Not reported as a line-1 parse failure.
  EXPECT_EQ(loaded.status().message().find("expected 'src dst'"),
            std::string::npos);
}

TEST_F(SnapshotV3Test, LoadSnapshotRejectsTextFile) {
  const std::string path = TempPath("plain.txt");
  WriteFile(path, "0 1\n1 2\n");
  auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotV3Test, CancelledLoadReturnsCancelled) {
  const std::string path = SavedPaperSnapshot("cancel.es3");
  CancellationToken token;
  token.Cancel();
  IngestOptions options;
  options.cancel = &token;
  auto loaded = LoadSnapshot(path, options);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCancelled);
}

// --- Verification across worker windows, at several thread counts. ---

/// Sets EDGESHED_THREADS for one scope and restores it after.
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* threads) {
    if (const char* previous = std::getenv("EDGESHED_THREADS")) {
      previous_ = previous;
    }
    ::setenv("EDGESHED_THREADS", threads, 1);
  }
  ~ScopedThreads() {
    if (previous_.has_value()) {
      ::setenv("EDGESHED_THREADS", previous_->c_str(), 1);
    } else {
      ::unsetenv("EDGESHED_THREADS");
    }
  }

 private:
  std::optional<std::string> previous_;
};

/// Re-seals a v3 snapshot whose data region was edited: chunk and header
/// CRCs are recomputed, so only the content checks can catch the edit.
std::string Reseal(std::string bytes) {
  auto header = DecodeSnapshotHeader(bytes.data(), bytes.size(), "reseal");
  EXPECT_TRUE(header.ok()) << header.status().ToString();
  header->chunk_crcs = ComputeSnapshotChunkCrcs(
      bytes.data() + header->DataStart(), bytes.size() - header->DataStart(),
      header->chunk_bytes);
  const std::string encoded = EncodeSnapshotHeader(*header);
  bytes.replace(0, encoded.size(), encoded);
  return bytes;
}

/// A star whose hub (vertex 0) lists neighbors 1..70000 in slots
/// [0, 70000) with incident ids 0..69999, saved in 4 KiB chunks; the
/// returned bytes swap slots kCsrWindowSlots - 1 and kCsrWindowSlots in
/// both adjacency and incident and are resealed. Each slot still names its
/// own edge, so only the ascending-neighbor check across the edge between
/// the first two validation windows can catch the swap.
std::string StarWithPairSwappedAcrossWindowEdge(const std::string& path) {
  constexpr NodeId kLeaves = 70000;
  std::vector<Edge> edges;
  for (NodeId leaf = 1; leaf <= kLeaves; ++leaf) edges.push_back({0, leaf});
  auto star = Graph::FromEdges(kLeaves + 1, std::move(edges));
  EXPECT_TRUE(star.ok());
  SnapshotOptions options;
  options.chunk_bytes = 4096;
  EXPECT_TRUE(SaveBinaryGraph(*star, path, options).ok());
  std::string bytes = ReadFile(path);
  auto header = DecodeSnapshotHeader(bytes.data(), bytes.size(), path);
  EXPECT_TRUE(header.ok()) << header.status().ToString();
  const uint64_t slot = kCsrWindowSlots;
  const uint64_t adjacency = header->sections[kSectionAdjacency].offset;
  const uint64_t incident = header->sections[kSectionIncident].offset;
  for (uint64_t b = 0; b < 4; ++b) {
    std::swap(bytes[adjacency + 4 * (slot - 1) + b],
              bytes[adjacency + 4 * slot + b]);
  }
  for (uint64_t b = 0; b < 8; ++b) {
    std::swap(bytes[incident + 8 * (slot - 1) + b],
              bytes[incident + 8 * slot + b]);
  }
  return Reseal(std::move(bytes));
}

TEST_F(SnapshotV3Test, OutOfOrderPairAcrossAWindowEdgeIsInvalidArgument) {
  const std::string path = TempPath("star.es3");
  const std::string swapped = StarWithPairSwappedAcrossWindowEdge(path);
  const std::string pristine = ReadFile(path);
  const std::string bad = TempPath("star_swapped.es3");
  for (const char* threads : {"1", "2", "4"}) {
    const ScopedThreads scoped(threads);
    for (const bool mmap : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "EDGESHED_THREADS=" << threads
                                        << (mmap ? " mmap" : " copy"));
      IngestOptions options;
      options.mmap = mmap;
      // Resealing an unedited snapshot changes nothing.
      WriteFile(bad, Reseal(pristine));
      auto resealed = LoadSnapshot(bad, options);
      ASSERT_TRUE(resealed.ok()) << resealed.status().ToString();
      WriteFile(bad, swapped);
      auto loaded = LoadSnapshot(bad, options);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
          << loaded.status().ToString();
      EXPECT_NE(loaded.status().message().find("content check"),
                std::string::npos)
          << loaded.status().ToString();
    }
  }
}

TEST_F(SnapshotV3Test, BadChunkBeforeAContentErrorIsDataLossNamingTheLowest) {
  // The content error sits in the second validation window; chunks 5 and
  // 9 (4 KiB each, in the offsets section) are damaged as well.
  std::string bytes =
      StarWithPairSwappedAcrossWindowEdge(TempPath("star_lowest.es3"));
  auto header = DecodeSnapshotHeader(bytes.data(), bytes.size(), "star");
  ASSERT_TRUE(header.ok());
  for (const uint64_t chunk : {uint64_t{9}, uint64_t{5}}) {
    bytes[header->DataStart() + chunk * header->chunk_bytes + 100] ^= 0x10;
  }
  const std::string bad = TempPath("star_lowest_bad.es3");
  WriteFile(bad, bytes);
  for (const char* threads : {"1", "2", "4"}) {
    const ScopedThreads scoped(threads);
    for (const bool mmap : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "EDGESHED_THREADS=" << threads
                                        << (mmap ? " mmap" : " copy"));
      IngestOptions options;
      options.mmap = mmap;
      auto loaded = LoadSnapshot(bad, options);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
          << loaded.status().ToString();
      EXPECT_NE(loaded.status().message().find("snapshot chunk 5 checksum"),
                std::string::npos)
          << loaded.status().ToString();
    }
  }
}

// --- SaveBinaryGraph / LoadSnapshot basics, each through both load paths.

class BinaryIoTest : public SnapshotV3Test {
 protected:
  /// Loads `path` with mmap and with a heap copy; both must succeed and
  /// agree with `g`.
  void ExpectLoadsAs(const std::string& path, const Graph& g) {
    for (const bool mmap : {true, false}) {
      IngestOptions options;
      options.mmap = mmap;
      auto loaded = LoadSnapshot(path, options);
      ASSERT_TRUE(loaded.ok()) << (mmap ? "mmap: " : "copy: ")
                               << loaded.status().ToString();
      ExpectSameGraph(loaded->graph, g);
    }
  }

  /// Both load paths fail on `path` with `code`.
  void ExpectLoadFails(const std::string& path, StatusCode code) {
    for (const bool mmap : {true, false}) {
      IngestOptions options;
      options.mmap = mmap;
      auto loaded = LoadSnapshot(path, options);
      ASSERT_FALSE(loaded.ok()) << (mmap ? "mmap" : "copy");
      EXPECT_EQ(loaded.status().code(), code)
          << loaded.status().ToString();
    }
  }
};

TEST_F(BinaryIoTest, RoundTripPreservesEverything) {
  const Graph g = PaperExampleGraph();
  const std::string path = TempPath("paper.esg");
  ASSERT_TRUE(SaveBinaryGraph(g, path).ok());
  ExpectLoadsAs(path, g);
}

TEST_F(BinaryIoTest, RoundTripKeepsIsolatedVertices) {
  const Graph g = edgeshed::testing::MustBuild(10, {{0, 1}});
  const std::string path = TempPath("isolated.esg");
  ASSERT_TRUE(SaveBinaryGraph(g, path).ok());
  ExpectLoadsAs(path, g);  // unlike text edge lists, all 10 nodes survive
}

TEST_F(BinaryIoTest, RoundTripLargeRandomGraph) {
  Rng rng(9);
  const Graph g = ErdosRenyi(2000, 8000, rng);
  const std::string path = TempPath("large.esg");
  ASSERT_TRUE(SaveBinaryGraph(g, path).ok());
  ExpectLoadsAs(path, g);
}

TEST_F(BinaryIoTest, EmptyGraphRoundTrip) {
  const std::string path = TempPath("empty.esg");
  ASSERT_TRUE(SaveBinaryGraph(Graph(), path).ok());
  for (const bool mmap : {true, false}) {
    IngestOptions options;
    options.mmap = mmap;
    auto loaded = LoadSnapshot(path, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->graph.NumNodes(), 0u);
    EXPECT_EQ(loaded->graph.NumEdges(), 0u);
  }
}

TEST_F(BinaryIoTest, MissingFileIsIOError) {
  ExpectLoadFails(TempPath("missing.esg"), StatusCode::kIOError);
}

TEST_F(BinaryIoTest, WrongMagicRejected) {
  const std::string path = TempPath("bad_magic.esg");
  WriteFile(path, "definitely not a graph file, sorry");
  ExpectLoadFails(path, StatusCode::kInvalidArgument);
}

TEST_F(BinaryIoTest, TruncatedFileRejected) {
  const std::string path = TempPath("trunc.esg");
  ASSERT_TRUE(SaveBinaryGraph(PaperExampleGraph(), path).ok());
  const std::string bytes = ReadFile(path);
  WriteFile(path, bytes.substr(0, bytes.size() - 6));
  ExpectLoadFails(path, StatusCode::kInvalidArgument);
}

TEST_F(BinaryIoTest, SaveToBadPathFails) {
  EXPECT_FALSE(
      SaveBinaryGraph(PaperExampleGraph(), "/no_such_dir_xyz/g.esg").ok());
}

}  // namespace
}  // namespace edgeshed::graph
