#include "service/graph_store.h"

#include <utility>

#include "common/stopwatch.h"
#include "common/strings.h"

namespace edgeshed::service {

GraphStore::GraphStore(GraphStoreOptions options, obs::MetricsRegistry* metrics,
                       obs::Tracer* tracer)
    : options_(options), tracer_(tracer) {
  if (metrics != nullptr) {
    instruments_.hit = metrics->GetCounter("store.hit");
    instruments_.miss = metrics->GetCounter("store.miss");
    instruments_.wait_hit = metrics->GetCounter("store.wait_hit");
    instruments_.load_failure = metrics->GetCounter("store.load_failure");
    instruments_.wait_failure = metrics->GetCounter("store.wait_failure");
    instruments_.eviction = metrics->GetCounter("store.eviction");
    instruments_.bytes_resident = metrics->GetGauge("store.bytes_resident");
    instruments_.graphs_resident = metrics->GetGauge("store.graphs_resident");
    instruments_.load_seconds = metrics->GetLatency("store.load_seconds");
  }
}

Status GraphStore::Register(const std::string& name, Loader loader) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  if (loader == nullptr) {
    return Status::InvalidArgument(
        StrFormat("null loader for dataset '%s'", name.c_str()));
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(name);
  if (!inserted) {
    return Status::FailedPrecondition(
        StrFormat("dataset '%s' is already registered", name.c_str()));
  }
  it->second.loader = std::move(loader);
  return Status::OK();
}

Status GraphStore::Replace(const std::string& name, Loader loader) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  if (loader == nullptr) {
    return Status::InvalidArgument(
        StrFormat("null loader for dataset '%s'", name.c_str()));
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(name);
  Entry& entry = it->second;
  entry.loader = std::move(loader);
  if (inserted) return Status::OK();
  ++entry.generation;
  entry.dyn.reset();  // a replaced dataset starts a fresh dynamic history
  if (entry.graph != nullptr) {
    bytes_resident_ -= entry.bytes;
    entry.bytes = 0;
    entry.graph.reset();  // leases held by running jobs stay valid
    lru_.erase(entry.lru_pos);
    PublishGaugesLocked();
  }
  return Status::OK();
}

uint64_t GraphStore::Generation(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.generation;
}

StatusOr<std::shared_ptr<const graph::Graph>> GraphStore::Get(
    const std::string& name, uint64_t* generation) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound(
        StrFormat("dataset '%s' is not registered", name.c_str()));
  }
  // `entries_` never erases nodes, so this reference stays valid across the
  // unlocked load below.
  Entry& entry = it->second;
  bool waited = false;
  while (entry.graph == nullptr && entry.loading) {
    waited = true;
    // Remember which load wave we are blocked on: if exactly that wave
    // fails, its Status is shared with us below instead of each waiter
    // serially re-running a loader that just failed (a retry stampede).
    const uint64_t wave = entry.load_epoch;
    load_done_.wait(lock);
    if (entry.graph == nullptr && !entry.loading &&
        entry.failed_epoch == wave) {
      if (instruments_.wait_failure != nullptr) {
        instruments_.wait_failure->Increment();
      }
      return entry.last_failure;
    }
  }
  if (entry.graph != nullptr) {
    lru_.splice(lru_.begin(), lru_, entry.lru_pos);
    obs::Counter* counter = waited ? instruments_.wait_hit : instruments_.hit;
    if (counter != nullptr) counter->Increment();
    if (generation != nullptr) *generation = entry.generation;
    return entry.graph;
  }

  // Miss: this thread loads, outside the lock. The loader is copied under
  // the lock because Replace may swap it concurrently.
  entry.loading = true;
  const uint64_t epoch = ++entry.load_epoch;
  const uint64_t loading_generation = entry.generation;
  Loader loader = entry.loader;
  lock.unlock();
  obs::Span load_span = obs::Tracer::StartSpan(tracer_, "store.load");
  load_span.Annotate("dataset", name);
  Stopwatch watch;
  StatusOr<graph::Graph> loaded = loader();
  const double load_seconds = watch.ElapsedSeconds();
  load_span.Annotate("ok", loaded.ok() ? "true" : "false");
  load_span.End();
  lock.lock();
  entry.loading = false;
  if (!loaded.ok()) {
    entry.failed_epoch = epoch;
    entry.last_failure = loaded.status();
    load_done_.notify_all();
    if (instruments_.load_failure != nullptr) {
      instruments_.load_failure->Increment();
    }
    return loaded.status();
  }
  load_done_.notify_all();
  if (entry.generation != loading_generation) {
    // Replace landed mid-load: the graph we built belongs to the old
    // generation. Hand it to this caller (labelled with the generation it
    // came from) without installing it, so the next Get loads fresh data.
    if (generation != nullptr) *generation = loading_generation;
    if (instruments_.miss != nullptr) instruments_.miss->Increment();
    return std::make_shared<const graph::Graph>(std::move(loaded).value());
  }
  entry.graph =
      std::make_shared<const graph::Graph>(std::move(loaded).value());
  entry.bytes = ApproxBytes(*entry.graph);
  bytes_resident_ += entry.bytes;
  lru_.push_front(name);
  entry.lru_pos = lru_.begin();
  if (instruments_.miss != nullptr) instruments_.miss->Increment();
  if (instruments_.load_seconds != nullptr) {
    instruments_.load_seconds->Record(load_seconds);
  }
  EvictLocked(name);
  PublishGaugesLocked();
  if (generation != nullptr) *generation = entry.generation;
  return entry.graph;
}

StatusOr<std::shared_ptr<dyn::VersionedGraph>> GraphStore::DynGraph(
    const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end() && it->second.dyn != nullptr) {
      return it->second.dyn;
    }
  }
  // First use: load (or reuse) the base graph through the ordinary Get
  // path, then install the handle. Get also gives fallback-minted datasets
  // a chance to register themselves.
  auto graph = Get(name);
  if (!graph.ok()) return graph.status();
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_.at(name);
  if (entry.dyn == nullptr) {
    entry.dyn = std::make_shared<dyn::VersionedGraph>(*std::move(graph));
  }
  return entry.dyn;
}

StatusOr<uint64_t> GraphStore::ApplyMutations(const std::string& name,
                                              graph::MutationBatch batch) {
  auto dyn = DynGraph(name);
  if (!dyn.ok()) return dyn.status();
  auto version = (*dyn)->ApplyBatch(std::move(batch));
  if (!version.ok()) return version.status();
  // Publish the new head through the Replace contract: generation bump +
  // loader swap + resident drop, so readers and generation-keyed caches
  // converge on the mutated graph. The loader captures a pinned snapshot —
  // materializing it later yields exactly this version even if more
  // batches land in between (each of those swaps the loader again).
  std::shared_ptr<const dyn::DeltaGraph> snap = (*dyn)->Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_.at(name);
  if (entry.dyn == *dyn) {  // skip if Replace raced us: its state won
    ++entry.generation;
    entry.loader = [snap] { return snap->Materialize(); };
    if (entry.graph != nullptr) {
      bytes_resident_ -= entry.bytes;
      entry.bytes = 0;
      entry.graph.reset();  // leases held by running jobs stay valid
      lru_.erase(entry.lru_pos);
      PublishGaugesLocked();
    }
  }
  return *version;
}

bool GraphStore::IsResident(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.graph != nullptr;
}

std::vector<std::string> GraphStore::RegisteredNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

void GraphStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    entry.graph.reset();
    entry.bytes = 0;
  }
  lru_.clear();
  bytes_resident_ = 0;
  PublishGaugesLocked();
}

uint64_t GraphStore::bytes_resident() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_resident_;
}

uint64_t GraphStore::ApproxBytes(const graph::Graph& g) {
  // Mapped graphs count only their heap footprint: the CSR lives in the
  // page cache, reclaimable under memory pressure, so charging it against
  // the resident-byte budget would evict datasets that cost near nothing.
  return g.HeapBytes();
}

void GraphStore::EvictLocked(const std::string& keep) {
  while (bytes_resident_ > options_.byte_budget && !lru_.empty()) {
    const std::string& victim = lru_.back();
    if (victim == keep) break;  // `keep` is at the front unless it is alone
    Entry& entry = entries_.at(victim);
    bytes_resident_ -= entry.bytes;
    entry.bytes = 0;
    entry.graph.reset();  // leases held by running jobs keep the data alive
    lru_.pop_back();
    if (instruments_.eviction != nullptr) instruments_.eviction->Increment();
  }
}

void GraphStore::PublishGaugesLocked() {
  if (instruments_.bytes_resident != nullptr) {
    instruments_.bytes_resident->Set(static_cast<int64_t>(bytes_resident_));
  }
  if (instruments_.graphs_resident != nullptr) {
    instruments_.graphs_resident->Set(static_cast<int64_t>(lru_.size()));
  }
}

}  // namespace edgeshed::service
