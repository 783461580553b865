#ifndef EDGESHED_GRAPH_SNAPSHOT_FORMAT_H_
#define EDGESHED_GRAPH_SNAPSHOT_FORMAT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"

namespace edgeshed::graph {

/// Version-3 snapshot layout (DESIGN.md §14): a CSR graph serialized so the
/// loader can mmap the file and adopt the arrays in place — zero parse, zero
/// copy. All integers little-endian; sections start on `page_align`
/// boundaries so mapped spans are correctly aligned for their element types.
///
///   bytes 0-7    magic "EDGSHED3"
///   bytes 8-39   u64 num_nodes, u64 num_edges, u64 page_align,
///                u64 chunk_bytes
///   bytes 40-119 section table: 5 x { u64 file offset, u64 byte length }
///                in order: offsets (u64 x n+1), adjacency (u32 x 2m),
///                incident (u64 x 2m), edges (2 x u32 x m),
///                original_ids (u64 x n; length 0 when absent)
///   bytes 120-   u32 num_chunks, then u32 chunk_crcs[num_chunks], then
///                u32 header CRC-32 over bytes [8, 124 + 4 * num_chunks)
///   then zero padding to the first page_align boundary, then the sections,
///   each zero-padded up to page_align.
///
/// The data region [DataStart(), FileBytes()) is covered by fixed-size
/// `chunk_bytes` chunks (last one short); chunk_crcs[i] is the CRC-32 of
/// chunk i, padding included. Chunked CRCs let the loader verify in
/// parallel and name the damaged byte range on mismatch.
inline constexpr char kSnapshotMagicV3[8] = {'E', 'D', 'G', 'S',
                                             'H', 'E', 'D', '3'};

enum SnapshotSection : int {
  kSectionOffsets = 0,
  kSectionAdjacency = 1,
  kSectionIncident = 2,
  kSectionEdges = 3,
  kSectionOriginalIds = 4,
};
inline constexpr int kSnapshotSectionCount = 5;

/// Byte offset of the u32 chunk count (end of the fixed header fields).
inline constexpr uint64_t kSnapshotChunkCountOffset = 120;

/// Header bytes for a snapshot with `num_chunks` data chunks: fixed fields +
/// chunk count + chunk CRC table + header CRC.
inline constexpr uint64_t SnapshotHeaderBytes(uint64_t num_chunks) {
  return kSnapshotChunkCountOffset + 4 + 4 * num_chunks + 4;
}

inline constexpr uint64_t RoundUpTo(uint64_t value, uint64_t align) {
  return (value + align - 1) / align * align;
}

/// Parsed (or planned) v3 header.
struct SnapshotHeader {
  struct Section {
    uint64_t offset = 0;  // absolute file offset; page_align multiple
    uint64_t bytes = 0;   // unpadded payload length; 0 = section absent
  };

  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  uint64_t page_align = 0;
  uint64_t chunk_bytes = 0;
  std::array<Section, kSnapshotSectionCount> sections;
  std::vector<uint32_t> chunk_crcs;

  uint64_t HeaderBytes() const {
    return SnapshotHeaderBytes(chunk_crcs.size());
  }
  /// First byte of the checksummed data region (page-aligned).
  uint64_t DataStart() const {
    return RoundUpTo(HeaderBytes(), page_align);
  }
  /// Total file size: end of the last non-empty section.
  uint64_t FileBytes() const;
};

/// Plans the section layout for a graph of the given shape: section offsets,
/// chunk count (CRCs zeroed, to be filled after the data is written), and
/// total file size. `page_align` must be a power of two in [8, 1 GiB];
/// `chunk_bytes` in [4 KiB, 1 GiB].
SnapshotHeader PlanSnapshotLayout(uint64_t num_nodes, uint64_t num_edges,
                                  bool with_original_ids, uint64_t page_align,
                                  uint64_t chunk_bytes);

/// Serializes the header (including the trailing header CRC) into exactly
/// HeaderBytes() bytes. chunk_crcs must be fully populated.
std::string EncodeSnapshotHeader(const SnapshotHeader& header);

/// Parses and validates a v3 header from the first `file_bytes` bytes of a
/// file. Status taxonomy (tests/snapshot_v3_test.cc pins it):
///  * wrong magic                      -> InvalidArgument naming the magic
///  * truncated header / sections      -> InvalidArgument
///  * nonsense fixed fields (counts out of range, page_align not a power of
///    two, bad chunk_bytes) -> InvalidArgument — checked BEFORE the header
///    CRC so a corrupt alignment field is reported as the field error
///  * header CRC mismatch              -> DataLoss
///  * section table inconsistent with the counts, misaligned sections,
///    chunk count disagreeing with the file size -> InvalidArgument
/// Chunk CRCs are returned unverified; the loader verifies the data region
/// against them (VerifySnapshotStreamed in graph/binary_io.cc).
StatusOr<SnapshotHeader> DecodeSnapshotHeader(const char* data,
                                              uint64_t file_bytes,
                                              const std::string& path);

/// CRC-32 of each `chunk_bytes`-sized chunk of the data region (last chunk
/// short), computed in parallel. Writers call this after streaming the
/// sections to fill the header table.
std::vector<uint32_t> ComputeSnapshotChunkCrcs(const char* data,
                                               uint64_t data_bytes,
                                               uint64_t chunk_bytes,
                                               int threads = 0);

/// Writer finalize step shared by the in-memory saver (graph/binary_io.cc)
/// and the out-of-core builder (graph/external_build.cc): the file at
/// `path` must hold `header.FileBytes()` bytes with every section in place
/// (the header region's content is ignored). Re-reads the (page-cached)
/// data region to fill header.chunk_crcs, then patches the encoded header
/// over bytes [0, HeaderBytes()).
Status FinalizeSnapshotFile(const std::string& path, SnapshotHeader header);

}  // namespace edgeshed::graph

#endif  // EDGESHED_GRAPH_SNAPSHOT_FORMAT_H_
