#include "graph/mutation_io.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "graph/edge_list_parse.h"

namespace edgeshed::graph {
namespace {

std::string PairName(NodeId u, NodeId v) {
  return "{" + std::to_string(u) + ", " + std::to_string(v) + "}";
}

}  // namespace

Status ValidateAndCanonicalizeBatch(MutationBatch* batch) {
  // Scan order is inserts, then deletes. Canonicalize up to the first
  // self-loop, then sort (key, scan index) pairs: within one key the lowest
  // index is the first occurrence and the next one its first repeat, so the
  // first error in scan order is the smallest such repeat or the self-loop.
  const size_t num_inserts = batch->inserts.size();
  const auto entry = [&](size_t i) -> Edge& {
    return i < num_inserts ? batch->inserts[i]
                           : batch->deletes[i - num_inserts];
  };
  size_t first_error = batch->size();
  std::vector<std::pair<uint64_t, size_t>> keyed;
  keyed.reserve(batch->size());
  for (size_t i = 0; i < batch->size(); ++i) {
    Edge& e = entry(i);
    if (e.u == e.v) {
      first_error = i;
      break;
    }
    if (e.u > e.v) std::swap(e.u, e.v);
    keyed.emplace_back(EdgeKey(e), i);
  }
  std::sort(keyed.begin(), keyed.end());
  size_t first_seen = 0;
  for (size_t k = 1; k < keyed.size(); ++k) {
    // A third occurrence never wins: the second one precedes it.
    if (keyed[k].first == keyed[k - 1].first &&
        keyed[k].second < first_error) {
      first_error = keyed[k].second;
      first_seen = keyed[k - 1].second;
    }
  }
  if (first_error == batch->size()) return Status::OK();
  const Edge& e = entry(first_error);
  if (e.u == e.v) {
    return Status::InvalidArgument("mutation batch contains self-loop " +
                                   PairName(e.u, e.v));
  }
  const bool is_insert = first_error < num_inserts;
  const char* how =
      (first_seen < num_inserts) == is_insert
          ? (is_insert ? "twice among inserts" : "twice among deletes")
          : "as both insert and delete";
  return Status::InvalidArgument("mutation batch lists edge " +
                                 PairName(e.u, e.v) + " " + how);
}

StatusOr<std::vector<MutationBatch>> ParseMutationText(
    std::string_view text) {
  std::vector<MutationBatch> batches;
  MutationBatch current;
  uint64_t line_no = 0;
  // First line of the current batch, for validation error context.
  uint64_t batch_first_line = 1;

  auto flush = [&]() -> Status {
    if (current.empty()) return Status::OK();
    Status status = ValidateAndCanonicalizeBatch(&current);
    if (!status.ok()) {
      return Status(status.code(),
                    status.message() + " (batch starting at line " +
                        std::to_string(batch_first_line) + ")");
    }
    batches.push_back(std::move(current));
    current = MutationBatch();
    return Status::OK();
  };

  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) {
      if (pos >= text.size()) break;
      eol = text.size();
    }
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    const std::string_view trimmed = StripWhitespace(line);
    if (trimmed.empty() || trimmed[0] == '#' || trimmed[0] == '%') continue;
    if (trimmed == "---") {
      EDGESHED_RETURN_IF_ERROR(flush());
      batch_first_line = line_no + 1;
      continue;
    }
    const char op = trimmed[0];
    if (op != '+' && op != '-') {
      return Status::InvalidArgument(
          "mutation line " + std::to_string(line_no) +
          ": expected '+', '-', or '---', got \"" +
          internal::TruncatedLine(trimmed) + "\"");
    }
    size_t cursor = 1;
    uint64_t raw_u = 0;
    uint64_t raw_v = 0;
    if (!internal::ParseUintField(trimmed, &cursor, &raw_u) ||
        !internal::ParseUintField(trimmed, &cursor, &raw_v)) {
      return Status::InvalidArgument(
          "mutation line " + std::to_string(line_no) +
          ": expected two node ids after '" + std::string(1, op) +
          "', got \"" + internal::TruncatedLine(trimmed) + "\"");
    }
    constexpr uint64_t kMaxNode = 0xFFFFFFFFull;
    if (raw_u > kMaxNode || raw_v > kMaxNode) {
      return Status::InvalidArgument(
          "mutation line " + std::to_string(line_no) + ": node id " +
          std::to_string(raw_u > kMaxNode ? raw_u : raw_v) +
          " exceeds the 32-bit NodeId range");
    }
    const Edge edge{static_cast<NodeId>(raw_u), static_cast<NodeId>(raw_v)};
    if (op == '+') {
      current.inserts.push_back(edge);
    } else {
      current.deletes.push_back(edge);
    }
  }
  EDGESHED_RETURN_IF_ERROR(flush());
  return batches;
}

StatusOr<std::vector<MutationBatch>> ParseMutationFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open mutation file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("read failed for mutation file: " + path);
  }
  return ParseMutationText(buffer.str());
}

}  // namespace edgeshed::graph
