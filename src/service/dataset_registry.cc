#include "service/dataset_registry.h"

#include <utility>

#include "graph/source.h"

namespace edgeshed::service {

Status RegisterSurrogateDatasets(GraphStore& store,
                                 const graph::DatasetOptions& options) {
  const std::pair<const char*, graph::DatasetId> catalog[] = {
      {"grqc", graph::DatasetId::kCaGrQc},
      {"hepph", graph::DatasetId::kCaHepPh},
      {"enron", graph::DatasetId::kEmailEnron},
      {"livejournal", graph::DatasetId::kComLiveJournal},
  };
  for (const auto& [name, id] : catalog) {
    EDGESHED_RETURN_IF_ERROR(store.Register(
        name, [id = id, options]() -> StatusOr<graph::Graph> {
          return graph::MakeDataset(id, options);
        }));
  }
  return Status::OK();
}

Status RegisterEdgeListDataset(GraphStore& store, const std::string& name,
                               const std::string& path) {
  return store.Register(name, [path]() -> StatusOr<graph::Graph> {
    // Format auto-detected, so --edge_list entries can point at text edge
    // lists or snapshots (served zero-copy).
    auto loaded = graph::LoadGraph(path);
    if (!loaded.ok()) return loaded.status();
    return std::move(loaded)->graph;
  });
}

bool IsSafeDatasetName(const std::string& name) {
  if (name.empty() || name.size() > 255 || name.front() == '.') return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace edgeshed::service
