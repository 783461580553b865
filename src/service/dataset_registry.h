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
/// bytes. Shared by every layer that maps wire-supplied dataset/output names
/// to files (shard-dir fallback loading, Shed output snapshots), so a remote
/// caller can never traverse outside the configured directory.
bool IsSafeDatasetName(const std::string& name);

/// Installs a GraphStore fallback (SetFallbackLoaderFactory) that resolves
/// any safe, not-yet-registered dataset name to the binary snapshot
/// `<dir>/<name>.esg` (any snapshot version; v3 is memory-mapped and
/// served zero-copy when `mmap` is set), loaded lazily on first Get. Files
/// may appear after the worker starts — the shed-fleet coordinator writes
/// shard snapshots into `dir` and then submits jobs naming them (DESIGN.md
/// §11). Unsafe names are declined (the Get reports NotFound); a safe name
/// whose file is missing or corrupt fails that Get with the loader's
/// IOError/DataLoss.
void InstallShardDirFallback(GraphStore& store, const std::string& dir,
                             bool mmap = true);

}  // namespace edgeshed::service

#endif  // EDGESHED_SERVICE_DATASET_REGISTRY_H_
