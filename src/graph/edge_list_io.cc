#include "graph/edge_list_io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "common/strings.h"
#include "graph/edge_list_parse.h"
#include "graph/graph_builder.h"

namespace edgeshed::graph {

namespace {

using internal::ChunkParse;
using internal::ParseChunk;

/// Stat-then-read of a whole file into a string (binary mode).
StatusOr<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open edge list file: " + path);
  }
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::string data(size > 0 ? static_cast<size_t>(size) : 0, '\0');
  if (!data.empty() && !in.read(data.data(), size)) {
    return Status::IOError("read failed: " + path);
  }
  return data;
}

}  // namespace

StatusOr<LoadedGraph> LoadEdgeList(const std::string& path,
                                   const IngestOptions& options) {
  EDGESHED_ASSIGN_OR_RETURN(std::string data, ReadWholeFile(path));

  // A binary edgeshed file handed to the text parser would die on a
  // confusing "line 1" parse error; catch the magic up front and say what
  // the file actually is.
  if (data.size() >= 8) {
    EDGESHED_RETURN_IF_ERROR(RejectRetiredFormat(data, path));
    const GraphFormat sniffed = SniffGraphFormat(data);
    if (sniffed != GraphFormat::kText) {
      return Status::InvalidArgument(StrFormat(
          "%s: not a text edge list — detected %s magic '%.8s'; load with "
          "format %s (or auto)",
          path.c_str(), GraphFormatName(sniffed), data.data(),
          GraphFormatName(sniffed)));
    }
  }
  if (CancellationRequested(options.cancel)) {
    return options.cancel->ToStatus();
  }

  // Split the buffer at newline boundaries, one chunk per worker; each chunk
  // parses independently and the results are merged in chunk order, so the
  // edge sequence (and therefore the first-seen id remap below) is identical
  // to a serial line-by-line read for every thread count.
  const int threads =
      options.threads > 0 ? options.threads : DefaultThreadCount();
  constexpr size_t kMinChunkBytes = size_t{1} << 16;
  const size_t chunk_target = std::clamp<size_t>(
      data.size() / kMinChunkBytes, 1, static_cast<size_t>(threads));
  std::vector<size_t> bounds;
  bounds.push_back(0);
  for (size_t c = 1; c < chunk_target; ++c) {
    size_t pos = data.find('\n', data.size() * c / chunk_target);
    pos = pos == std::string::npos ? data.size() : pos + 1;
    if (pos > bounds.back() && pos < data.size()) bounds.push_back(pos);
  }
  bounds.push_back(data.size());
  const size_t num_chunks = bounds.size() - 1;

  std::vector<ChunkParse> chunks(num_chunks);
  ParallelForEach(
      0, num_chunks,
      [&](uint64_t c) { ParseChunk(data, bounds[c], bounds[c + 1], &chunks[c]); },
      threads, /*grain=*/1);
  if (CancellationRequested(options.cancel)) {
    return options.cancel->ToStatus();
  }

  size_t total_edges = 0;
  for (const ChunkParse& chunk : chunks) total_edges += chunk.edges.size();

  GraphBuilder builder;
  builder.ReserveEdges(total_edges);
  std::unordered_map<uint64_t, NodeId> dense_id;
  dense_id.reserve(total_edges);
  std::vector<uint64_t> original_ids;
  auto intern = [&](uint64_t raw) -> NodeId {
    auto [it, inserted] =
        dense_id.emplace(raw, static_cast<NodeId>(original_ids.size()));
    if (inserted) original_ids.push_back(raw);
    return it->second;
  };

  uint64_t line_base = 0;
  for (const ChunkParse& chunk : chunks) {
    if (chunk.has_error) {
      return Status::InvalidArgument(StrFormat(
          "%s:%llu: expected 'src dst', got '%s'", path.c_str(),
          static_cast<unsigned long long>(line_base + chunk.error_line),
          chunk.error_snippet.c_str()));
    }
    if (CancellationRequested(options.cancel)) {
      return options.cancel->ToStatus();
    }
    // Intern in file order (first-seen-first id assignment, exactly as a
    // serial reader would).
    for (const auto& [raw_u, raw_v] : chunk.edges) {
      NodeId u = intern(raw_u);
      NodeId v = intern(raw_v);
      builder.AddEdge(u, v);
    }
    line_base += chunk.lines;
  }
  return LoadedGraph{builder.Build(), std::move(original_ids)};
}

Status SaveEdgeList(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open file for writing: " + path);
  }
  out << "# Undirected simple graph: " << graph.NumNodes() << " nodes, "
      << graph.NumEdges() << " edges\n";
  for (const Edge& e : graph.edges()) {
    out << e.u << '\t' << e.v << '\n';
  }
  if (!out) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

}  // namespace edgeshed::graph
