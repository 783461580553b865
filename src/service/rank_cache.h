#ifndef EDGESHED_SERVICE_RANK_CACHE_H_
#define EDGESHED_SERVICE_RANK_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "analytics/betweenness.h"
#include "common/statusor.h"
#include "core/shedding.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace edgeshed::service {

/// Configuration for RankCache.
struct RankCacheOptions {
  /// Approximate cap on summed ranking bytes (|E| ids per entry).
  uint64_t byte_budget = 128ull << 20;
};

/// Thread-safe LRU cache of Phase-1 edge rankings, shared across shedding
/// jobs (DESIGN.md §12).
///
/// BENCH_hotpath.json shows the betweenness ranking dominating every CRR
/// job; yet the ranking depends only on the graph and the estimator options
/// — not on the preservation ratio `p` or the swap seed — so N jobs against
/// one dataset at different `p` were paying for N identical rankings. This
/// cache keys rankings by (dataset, dataset generation, estimator-options
/// fingerprint) and hands the scheduler a `core::RankProvider` view, so
/// those N jobs share exactly one betweenness pass.
///
/// Concurrency contract, modeled on GraphStore's load waves with one
/// deliberate difference: concurrent misses on a key coalesce (one thread
/// computes, the rest block and share the result, `rank_cache_wait_hit`),
/// but a *failed* compute — in practice a cancelled or deadline-expired job
/// — is never shared. The failing job takes its own status, the entry is
/// erased, and the next waiter computes afresh: one cancelled job must not
/// poison independent jobs that merely wanted the same ranking.
///
/// Invalidation: the dataset generation (GraphStore::Generation, bumped by
/// GraphStore::Replace) is part of the key, so replacing a dataset makes
/// every cached ranking for it unreachable immediately; InvalidateDataset
/// additionally reclaims those bytes eagerly.
///
/// Provenance: a fresh compute returns `computed = true` with the measured
/// wall-clock; a hit (waited or not) returns `computed = false` and
/// `seconds = 0.0` exactly, so per-job `betweenness_seconds` stats stay
/// honest — exactly one job reports ranking time for a shared ranking.
///
/// Metrics (when a registry is supplied): `scheduler.rank_cache_hit`,
/// `scheduler.rank_cache_wait_hit`, `scheduler.rank_cache_miss`,
/// `scheduler.rank_cache_compute_failed`, `scheduler.rank_cache_evicted`,
/// `scheduler.rank_cache_invalidated` counters;
/// `scheduler.rank_cache_bytes` / `scheduler.rank_cache_entries` gauges;
/// `scheduler.rank_cache_compute_seconds` latency. When a tracer is
/// supplied each fresh compute records a `rank_cache.compute` span under
/// the calling thread's ambient span (a job's `run` span in the scheduler).
class RankCache {
 public:
  using Options = RankCacheOptions;

  explicit RankCache(RankCacheOptions options = {},
                     obs::MetricsRegistry* metrics = nullptr,
                     obs::Tracer* tracer = nullptr);

  RankCache(const RankCache&) = delete;
  RankCache& operator=(const RankCache&) = delete;

  /// Returns the ranking for (`dataset`, `generation`, `options`), running
  /// analytics::EdgesByBetweennessDescending(g, options) on a miss.
  /// `options.cancel` governs only this caller's compute; a tripped token
  /// surfaces as its ToStatus() and the result is discarded, never cached.
  StatusOr<core::EdgeRanking> GetOrCompute(
      const std::string& dataset, uint64_t generation, const graph::Graph& g,
      const analytics::BetweennessOptions& options);

  /// Eagerly drops every cached ranking of `dataset` (any generation).
  /// In-flight computes are unaffected — their entries complete under keys
  /// nothing references anymore and age out via LRU.
  void InvalidateDataset(const std::string& dataset);

  /// Drops every cached ranking (in-flight computes unaffected).
  void Clear();

  size_t entries() const;
  uint64_t bytes() const;
  uint64_t byte_budget() const { return options_.byte_budget; }

  /// Cache key for a (dataset, generation, estimator options) triple.
  /// Covers every option that can change scores or the early-stop point;
  /// `threads` and `cancel` are deliberately excluded — results are
  /// bit-identical across thread counts, and the token is per-caller.
  static std::string Key(const std::string& dataset, uint64_t generation,
                         const analytics::BetweennessOptions& options);

 private:
  using Ranking = std::shared_ptr<const std::vector<graph::EdgeId>>;

  struct Entry {
    Ranking ranking;        // null while the initial compute is in flight
    bool computing = false;
    uint64_t bytes = 0;
    // Position in lru_; valid iff ranking != nullptr.
    std::list<std::string>::iterator lru_pos;
  };

  /// Evicts LRU entries (never `keep`) until within budget. Caller holds
  /// mu_. Entries still computing are not in lru_ and cannot be evicted.
  void EvictLocked(const std::string& keep);
  void PublishGaugesLocked();

  struct Instruments {
    obs::Counter* hit = nullptr;
    obs::Counter* wait_hit = nullptr;
    obs::Counter* miss = nullptr;
    obs::Counter* compute_failed = nullptr;
    obs::Counter* evicted = nullptr;
    obs::Counter* invalidated = nullptr;
    obs::Gauge* bytes = nullptr;
    obs::Gauge* entries = nullptr;
    obs::LatencySeries* compute_seconds = nullptr;
  };

  const RankCacheOptions options_;
  obs::Tracer* const tracer_;  // may be null
  Instruments instruments_;

  mutable std::mutex mu_;
  std::condition_variable compute_done_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recent; installed entries only
  uint64_t bytes_ = 0;
};

}  // namespace edgeshed::service

#endif  // EDGESHED_SERVICE_RANK_CACHE_H_
