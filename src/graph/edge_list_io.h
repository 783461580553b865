#ifndef EDGESHED_GRAPH_EDGE_LIST_IO_H_
#define EDGESHED_GRAPH_EDGE_LIST_IO_H_

#include <string>

#include "common/statusor.h"
#include "graph/graph.h"
#include "graph/source.h"

namespace edgeshed::graph {

/// Loads a whitespace-separated edge list in the SNAP download format:
/// lines starting with '#' or '%' are comments, each remaining line holds
/// "src dst" (extra columns ignored). Directed duplicates (a b / b a),
/// parallel edges and self-loops are collapsed/dropped, matching how the
/// paper's snap.py pipeline materializes undirected simple graphs.
///
/// The file is read once and parsed in parallel chunks split at newline
/// boundaries; results are merged in file order, so the loaded graph (node
/// remap included) is bit-identical for every thread count. Malformed lines
/// fail with InvalidArgument reporting "path:line" and a truncated copy of
/// the offending line. A file that is actually a binary edgeshed format
/// (a snapshot, or a retired binary format) is rejected up front with
/// InvalidArgument naming the detected magic — not a line-1 parse error.
StatusOr<LoadedGraph> LoadEdgeList(const std::string& path,
                                   const IngestOptions& options);

/// Writes `graph` as "u v" lines (dense ids), with a small header comment.
Status SaveEdgeList(const Graph& graph, const std::string& path);

}  // namespace edgeshed::graph

#endif  // EDGESHED_GRAPH_EDGE_LIST_IO_H_
