#ifndef EDGESHED_SERVICE_GRAPH_STORE_H_
#define EDGESHED_SERVICE_GRAPH_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "dyn/versioned_graph.h"
#include "graph/graph.h"
#include "graph/mutation_io.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace edgeshed::service {

/// Configuration for GraphStore.
struct GraphStoreOptions {
  /// Approximate cap on summed GraphStore::ApproxBytes() of resident graphs.
  uint64_t byte_budget = 256ull << 20;
};

/// Thread-safe LRU cache of loaded/generated graphs, keyed by dataset name.
///
/// Every entry point of the library used to reload (or regenerate) its input
/// graph per run; a long-lived service cannot afford that. GraphStore owns
/// one lazily-loaded `Graph` per registered name and hands out
/// `shared_ptr<const Graph>` leases, so a graph can be evicted while jobs
/// still hold it — the lease keeps the storage alive, the store merely
/// forgets it and reloads on the next request.
///
/// Concurrency contract:
///  * `Get` for a resident name is a cheap map lookup under the store mutex.
///  * A miss runs the registered loader *outside* the mutex, so distinct
///    datasets load in parallel. Concurrent misses on the same name are
///    coalesced: one thread loads, the rest block on a condition variable
///    and share the result (counted as `store.wait_hit`). A *failed* load is
///    shared the same way — every Get already blocked on that load wave gets
///    the loader's failure Status (`store.wait_failure`) instead of serially
///    re-running a loader that just failed. Gets arriving after the failure
///    start a fresh wave, so transient failures still recover.
///  * Eviction is LRU by last `Get`, triggered after each insert while
///    resident bytes exceed `Options::byte_budget`. The entry just inserted
///    is never evicted by its own insert, so a single over-budget graph
///    still gets served (and is dropped by the *next* insert).
///
/// Metrics (when a registry is supplied): `store.hit`, `store.miss`,
/// `store.wait_hit`, `store.load_failure`, `store.wait_failure`,
/// `store.eviction` counters;
/// `store.bytes_resident` and `store.graphs_resident` gauges;
/// `store.load_seconds` latency. Instrument handles are resolved once at
/// construction; per-event updates are lock-free.
///
/// When a tracer is supplied, each load wave records a `store.load` span
/// (annotated with the dataset name) parented onto the loading thread's
/// ambient span — inside a scheduler worker that is the job's `run` span, so
/// graph loads show up inside job traces.
class GraphStore {
 public:
  /// Produces the graph for a registered name; called outside the store
  /// lock. Must be safe to invoke concurrently with loaders of other names.
  using Loader = std::function<StatusOr<graph::Graph>()>;
  using Options = GraphStoreOptions;

  explicit GraphStore(GraphStoreOptions options = {},
                      obs::MetricsRegistry* metrics = nullptr,
                      obs::Tracer* tracer = nullptr);

  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  /// Registers `loader` under `name`. InvalidArgument on empty name,
  /// FailedPrecondition if the name is already registered.
  Status Register(const std::string& name, Loader loader);

  /// Replaces the loader under `name` (registering it when new), drops any
  /// resident graph and the store's dynamic-graph handle (handles already
  /// held by callers keep working against the old history), and bumps the
  /// dataset's generation — the signal
  /// downstream caches key on to invalidate derived data (rank cache,
  /// DESIGN.md §12). A load in flight when Replace lands still completes
  /// for its own waiters with the *old* loader's graph and generation; it is
  /// not installed, so the next Get reloads fresh. InvalidArgument on empty
  /// name or null loader.
  Status Replace(const std::string& name, Loader loader);

  /// Monotonic per-dataset version, starting at 1 on registration and
  /// bumped by every Replace. 0 for unregistered names.
  uint64_t Generation(const std::string& name) const;

  /// Returns the graph for `name`, loading it on a miss. NotFound for
  /// unregistered names; loader failures are returned verbatim to the
  /// loading Get *and* to every Get blocked on the same load wave (and not
  /// cached — a fresh Get retries). When `generation` is non-null it
  /// receives the dataset generation the returned graph belongs to,
  /// observed atomically with the graph itself.
  StatusOr<std::shared_ptr<const graph::Graph>> Get(
      const std::string& name, uint64_t* generation = nullptr);

  /// Returns the dataset's dynamic (mutable, versioned) handle, creating it
  /// from the currently loaded graph on first use — the base CSR is shared
  /// with the store's resident lease, not copied. The handle stays valid
  /// for the caller's lifetime even if the dataset is later evicted or
  /// Replace()d (a Replace discards the *store's* reference and starts a
  /// fresh dynamic history on next use; see Replace). NotFound for
  /// unregistered names; loader failures propagate.
  StatusOr<std::shared_ptr<dyn::VersionedGraph>> DynGraph(
      const std::string& name);

  /// Applies one mutation batch to `name`'s dynamic graph (created on
  /// first use) and returns the new version. On success the dataset's
  /// generation is bumped and its loader is swapped for one that
  /// materializes the new head snapshot — exactly the Replace contract, so
  /// the next Get serves the mutated graph and every generation-keyed
  /// downstream cache (rank cache, scheduler result cache) invalidates.
  /// Validation failures (self-loop / duplicate / non-live delete /
  /// already-live insert, each naming the offending pair) reject the whole
  /// batch and leave the dataset untouched.
  StatusOr<uint64_t> ApplyMutations(const std::string& name,
                                    graph::MutationBatch batch);

  /// True iff `name` is currently resident (testing / introspection).
  bool IsResident(const std::string& name) const;

  /// Registered dataset names, sorted.
  std::vector<std::string> RegisteredNames() const;

  /// Drops every resident graph (registrations survive).
  void Clear();

  uint64_t bytes_resident() const;
  uint64_t byte_budget() const { return options_.byte_budget; }

  /// Heap footprint charged against the budget: the owned CSR arrays, or a
  /// near-zero constant for mmap-backed graphs (their pages live in the
  /// page cache and are reclaimable, so they shouldn't force evictions).
  static uint64_t ApproxBytes(const graph::Graph& g);

 private:
  struct Entry {
    Loader loader;
    std::shared_ptr<const graph::Graph> graph;  // null when not resident
    /// Dynamic handle, created lazily by DynGraph/ApplyMutations and
    /// dropped by Replace (a replaced dataset starts a fresh history).
    std::shared_ptr<dyn::VersionedGraph> dyn;
    /// Dataset version; bumped by Replace so generation-keyed caches of
    /// derived data invalidate without coordination.
    uint64_t generation = 1;
    uint64_t bytes = 0;
    bool loading = false;  // a thread is running `loader` right now
    /// Load-wave bookkeeping: `load_epoch` is bumped when a load starts;
    /// `failed_epoch`/`last_failure` record the most recent failed wave so
    /// waiters of exactly that wave share the failure instead of retrying.
    uint64_t load_epoch = 0;
    uint64_t failed_epoch = 0;
    Status last_failure;
    // Position in lru_ when resident; valid iff graph != nullptr.
    std::list<std::string>::iterator lru_pos;
  };

  /// Evicts LRU entries (never `keep`) until within budget. Caller holds mu_.
  void EvictLocked(const std::string& keep);
  void PublishGaugesLocked();

  /// Typed instrument handles, resolved once at construction. All null when
  /// no registry is attached.
  struct Instruments {
    obs::Counter* hit = nullptr;
    obs::Counter* miss = nullptr;
    obs::Counter* wait_hit = nullptr;
    obs::Counter* load_failure = nullptr;
    obs::Counter* wait_failure = nullptr;
    obs::Counter* eviction = nullptr;
    obs::Gauge* bytes_resident = nullptr;
    obs::Gauge* graphs_resident = nullptr;
    obs::LatencySeries* load_seconds = nullptr;
  };

  const GraphStoreOptions options_;
  obs::Tracer* const tracer_;  // may be null
  Instruments instruments_;

  mutable std::mutex mu_;
  std::condition_variable load_done_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recent
  uint64_t bytes_resident_ = 0;
};

}  // namespace edgeshed::service

#endif  // EDGESHED_SERVICE_GRAPH_STORE_H_
