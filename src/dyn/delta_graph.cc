#include "dyn/delta_graph.h"

namespace edgeshed::dyn {

std::vector<graph::Edge> DeltaGraph::LiveEdges() const {
  std::vector<graph::Edge> live;
  live.reserve(NumEdges());
  ForEachLiveEdge([&](const graph::Edge& e) { live.push_back(e); });
  return live;
}

std::vector<size_t> DeltaGraph::SourceIndex(
    const std::vector<graph::Edge>& adj, uint64_t num_nodes) {
  if (adj.empty()) return {};
  std::vector<size_t> index((num_nodes >> kIndexShift) + 2);
  size_t i = 0;
  for (size_t b = 0; b < index.size(); ++b) {
    const uint64_t first = static_cast<uint64_t>(b) << kIndexShift;
    while (i < adj.size() && adj[i].u < first) ++i;
    index[b] = i;
  }
  return index;
}

StatusOr<graph::Graph> DeltaGraph::Materialize() const {
  return graph::Graph::FromEdges(static_cast<graph::NodeId>(NumNodes()),
                                 LiveEdges());
}

}  // namespace edgeshed::dyn
