#ifndef EDGESHED_SERVICE_DATASET_REGISTRY_H_
#define EDGESHED_SERVICE_DATASET_REGISTRY_H_

#include <string>

#include "graph/datasets.h"
#include "service/graph_store.h"

namespace edgeshed::service {

/// Registers the four paper surrogates in `store` under the CLI's dataset
/// names ("grqc", "hepph", "enron", "livejournal"). Each loader calls
/// graph::MakeDataset with `options` on first use; nothing is generated up
/// front. Callers serving livejournal should pick `options.scale` with care
/// — the full-size surrogate is ~35M edges.
Status RegisterSurrogateDatasets(GraphStore& store,
                                 const graph::DatasetOptions& options = {});

/// Registers `name` as a lazily-loaded graph file of any supported format
/// (text edge list or snapshot — auto-detected; snapshots are served
/// zero-copy from a file mapping). The file is read
/// (and validated) on first Get; a missing file surfaces as that Get's
/// error, not here.
Status RegisterEdgeListDataset(GraphStore& store, const std::string& name,
                               const std::string& path);

/// True iff `name` is safe to splice into a filesystem path as a single
/// component: non-empty, only [A-Za-z0-9._-], no leading '.', at most 255
/// bytes. The RPC server checks wire-supplied Shed output names with it
/// before splicing them under RpcServerOptions::output_dir, so a remote
/// caller can never traverse outside that directory.
bool IsSafeDatasetName(const std::string& name);

}  // namespace edgeshed::service

#endif  // EDGESHED_SERVICE_DATASET_REGISTRY_H_
