#ifndef EDGESHED_GRAPH_SOURCE_H_
#define EDGESHED_GRAPH_SOURCE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/cancellation.h"
#include "common/statusor.h"
#include "graph/graph.h"

namespace edgeshed::graph {

/// Result of loading a graph from any on-disk representation.
struct LoadedGraph {
  Graph graph;
  /// original_ids[i] is the id the input used for dense node i; node ids in
  /// SNAP files are arbitrary and sparse, so loaders remap them. Formats
  /// that don't record a remap (snapshots written without an id table)
  /// leave this empty, meaning identity.
  std::vector<uint64_t> original_ids;
};

/// On-disk graph representations the unified loader understands.
/// DESIGN.md §14 has the format reference table.
enum class GraphFormat {
  kAuto,      // sniff from the leading bytes of the file
  kText,      // SNAP-style whitespace edge list ("u v" lines, # comments)
  kSnapshot,  // "EDGSHED3" CSR snapshot (graph/binary_io.h)
};

/// Where to load a graph from. `format = kAuto` sniffs the file's magic:
/// an edgeshed binary magic selects kSnapshot, anything else is treated as
/// text. Explicit formats skip sniffing and fail with
/// InvalidArgument when the bytes disagree (a v3 snapshot handed to the
/// text parser reports the detected magic, not a line-1 parse error).
struct GraphSource {
  std::string path;
  GraphFormat format = GraphFormat::kAuto;

  GraphSource() = default;
  /// Implicit from a path: LoadGraph("graph.txt") auto-detects.
  GraphSource(std::string p) : path(std::move(p)) {}          // NOLINT
  GraphSource(const char* p) : path(p) {}                     // NOLINT
  GraphSource(std::string p, GraphFormat f)
      : path(std::move(p)), format(f) {}
};

/// Knobs shared by every loader behind LoadGraph.
struct IngestOptions {
  /// Worker threads for parsing / checksum verification / validation
  /// (0 = DefaultThreadCount()).
  int threads = 0;
  /// Serve v3 snapshots zero-copy from a shared file mapping instead of
  /// copying the CSR onto the heap. Ignored (copy load) for every other
  /// format — only v3 lays its sections out for in-place adoption.
  bool mmap = true;
  /// Verify snapshot checksums and run deep O(n+m) structural validation.
  /// Turning this off keeps the O(n) shape checks but trusts file content —
  /// for repeated loads of snapshots this process just wrote.
  bool verify_checksums = true;
  /// Optional cooperative cancel; loaders poll at coarse grain and return
  /// Cancelled/DeadlineExceeded mid-ingest.
  const CancellationToken* cancel = nullptr;
};

/// Classifies leading file bytes (8+ for a definite answer): the snapshot
/// magic and the retired binary magics ("EDGSHED1", "EDGSHED2",
/// "EDGSHEDL") map to kSnapshot, so a retired file is refused by the
/// snapshot loader instead of parsed as text. Everything else is text.
GraphFormat SniffGraphFormat(std::string_view leading_bytes);

/// InvalidArgument naming the magic when `leading_bytes` begin with a
/// retired edgeshed binary format (v1/v2 snapshots, the binary edge list);
/// OK otherwise. Every loader refuses such files with this one message.
Status RejectRetiredFormat(std::string_view leading_bytes,
                           const std::string& path);

/// Sniffs the on-disk format from the file's leading bytes (see
/// SniffGraphFormat); an empty file is text. IOError when the file cannot
/// be opened.
StatusOr<GraphFormat> DetectGraphFormat(const std::string& path);

/// Unified entry point for every on-disk graph representation: text edge
/// lists and CSR snapshots (copy or mmap). This is the
/// API the CLI and GraphStore load through.
StatusOr<LoadedGraph> LoadGraph(const GraphSource& source,
                                const IngestOptions& options = {});

/// Canonical lowercase name ("auto", "text", "snapshot").
const char* GraphFormatName(GraphFormat format);

/// Parses a format name as accepted by the CLI --format flag; the inverse
/// of GraphFormatName. InvalidArgument on anything else.
StatusOr<GraphFormat> ParseGraphFormat(std::string_view name);

}  // namespace edgeshed::graph

#endif  // EDGESHED_GRAPH_SOURCE_H_
