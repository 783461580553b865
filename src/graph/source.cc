#include "graph/source.h"

#include <fstream>

#include "common/strings.h"
#include "graph/binary_io.h"
#include "graph/edge_list_io.h"
#include "graph/snapshot_format.h"

namespace edgeshed::graph {

namespace {

/// What a retired edgeshed binary magic held, or null for any other bytes.
const char* RetiredFormatName(std::string_view leading_bytes) {
  if (leading_bytes.size() < 8 || leading_bytes.substr(0, 7) != "EDGSHED") {
    return nullptr;
  }
  switch (leading_bytes[7]) {
    case '1':
      return "v1 snapshot";
    case '2':
      return "v2 snapshot";
    case 'L':
      return "binary edge list";
    default:
      return nullptr;
  }
}

}  // namespace

GraphFormat SniffGraphFormat(std::string_view leading_bytes) {
  if (RetiredFormatName(leading_bytes) != nullptr ||
      leading_bytes.substr(0, 8) == std::string_view(kSnapshotMagicV3, 8)) {
    return GraphFormat::kSnapshot;
  }
  // Anything else, an unknown future version included, is left to the text
  // parser to complain about.
  return GraphFormat::kText;
}

Status RejectRetiredFormat(std::string_view leading_bytes,
                           const std::string& path) {
  const char* name = RetiredFormatName(leading_bytes);
  if (name == nullptr) return Status::OK();
  return Status::InvalidArgument(StrFormat(
      "%s: retired edgeshed %s format (magic '%.8s') is no longer read; "
      "re-convert it from the text edge list with `edgeshed convert`",
      path.c_str(), name, leading_bytes.data()));
}

StatusOr<GraphFormat> DetectGraphFormat(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open graph file: " + path);
  }
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  const size_t got = static_cast<size_t>(in.gcount());
  return SniffGraphFormat(std::string_view(magic, got));
}

StatusOr<LoadedGraph> LoadGraph(const GraphSource& source,
                                const IngestOptions& options) {
  GraphFormat format = source.format;
  if (format == GraphFormat::kAuto) {
    EDGESHED_ASSIGN_OR_RETURN(format, DetectGraphFormat(source.path));
  }
  switch (format) {
    case GraphFormat::kText:
      return LoadEdgeList(source.path, options);
    case GraphFormat::kSnapshot:
      return LoadSnapshot(source.path, options);
    case GraphFormat::kAuto:
      break;
  }
  return Status::Internal("unreachable graph format");
}

const char* GraphFormatName(GraphFormat format) {
  switch (format) {
    case GraphFormat::kAuto:
      return "auto";
    case GraphFormat::kText:
      return "text";
    case GraphFormat::kSnapshot:
      return "snapshot";
  }
  return "unknown";
}

StatusOr<GraphFormat> ParseGraphFormat(std::string_view name) {
  if (name == "auto") return GraphFormat::kAuto;
  if (name == "text") return GraphFormat::kText;
  if (name == "snapshot") return GraphFormat::kSnapshot;
  return Status::InvalidArgument("unknown graph format '" +
                                 std::string(name) +
                                 "' (auto|text|snapshot)");
}

}  // namespace edgeshed::graph
