#ifndef EDGESHED_GRAPH_BINARY_IO_H_
#define EDGESHED_GRAPH_BINARY_IO_H_

#include <cstdint>
#include <span>
#include <string>

#include "common/statusor.h"
#include "graph/graph.h"
#include "graph/source.h"

namespace edgeshed::graph {

/// Binary CSR snapshots for fast reload (the "reduce once, reuse many
/// times" workflow). One format on disk: "EDGSHED3", the full CSR
/// serialized with page-aligned sections and per-chunk CRCs
/// (graph/snapshot_format.h), so LoadSnapshot can mmap the file and adopt
/// the arrays zero-copy. It optionally embeds the original-id table so
/// text-format provenance survives conversion. Text edge lists
/// (graph/edge_list_io.h) are the interchange format.
///
/// DESIGN.md §14 has the format table and lifetime rules.

/// How SaveBinaryGraph lays out a snapshot.
struct SnapshotOptions {
  /// Snapshot format version. 3 is the only one written; anything else is
  /// InvalidArgument.
  uint32_t version = 3;
  /// Section alignment: power of two in [8, 1 GiB]. 4096 matches the
  /// common page size; mapped spans are aligned for their element types at
  /// any legal value.
  uint64_t page_align = 4096;
  /// Integrity granularity: data-region bytes per CRC chunk, in
  /// [4 KiB, 1 GiB]. Smaller chunks localize corruption reports and
  /// parallelize verification; 1 MiB is a good default.
  uint64_t chunk_bytes = uint64_t{1} << 20;
  /// Optional original-id table (size NumNodes()) embedded in the snapshot
  /// so the loader can return LoadedGraph::original_ids. An identity table
  /// is dropped (identity is the documented meaning of "absent"), which
  /// also keeps SaveBinaryGraph byte-identical to the out-of-core
  /// converter's output.
  std::span<const uint64_t> original_ids{};
};

/// Writes `graph` at `path` as a v3 snapshot laid out as `options` selects.
/// The sections stream chunk by chunk on the worker pool, each chunk
/// checksummed from memory, and the header is written last.
Status SaveBinaryGraph(const Graph& graph, const std::string& path,
                       const SnapshotOptions& options = {});

/// Writes G' = (V, kept) over `num_nodes` vertices at `path` as a v3
/// snapshot, byte-identical to SaveBinaryGraph(Graph::FromEdges(num_nodes,
/// kept), path, options) without building that Graph (DESIGN.md §14, "Kept
/// snapshots"). `kept` must be canonical (u < v < num_nodes) and strictly
/// ascending, as kept edges of a parent's canonical edge list in id order
/// are; anything else is InvalidArgument. Each `chunk_bytes` chunk of the
/// data region is filled in a small buffer on the worker pool, checksummed
/// from memory and written at its offset; the header goes last. IOError
/// naming `path` when the file cannot be opened or written.
Status WriteKeptSnapshot(uint64_t num_nodes, std::span<const Edge> kept,
                         const std::string& path,
                         const SnapshotOptions& options = {});

/// The same snapshot for the edges `kept_ids` (indices into
/// parent.edges(), in any order; a copy is sorted when they are not
/// ascending): byte-identical to SaveBinaryGraph(SubgraphFromEdgeIds(parent,
/// kept_ids), path, options). An id out of range is InvalidArgument.
Status WriteKeptSnapshot(const Graph& parent,
                         std::span<const EdgeId> kept_ids,
                         const std::string& path,
                         const SnapshotOptions& options = {});

/// Loads a v3 snapshot, memory-mapped and adopted zero-copy when
/// `options.mmap` is set (the returned Graph keeps the mapping alive; see
/// Graph::IsMapped), copied onto the heap otherwise. Corruption taxonomy:
/// wrong magic, truncation, or structurally nonsense fields are
/// InvalidArgument; header or chunk CRC mismatches are DataLoss. A retired
/// pre-v3 file is InvalidArgument naming its magic (RejectRetiredFormat).
StatusOr<LoadedGraph> LoadSnapshot(const std::string& path,
                                   const IngestOptions& options = {});

}  // namespace edgeshed::graph

#endif  // EDGESHED_GRAPH_BINARY_IO_H_
