#include "service/rank_cache.h"

#include <utility>

#include "common/stopwatch.h"
#include "common/strings.h"

namespace edgeshed::service {

RankCache::RankCache(RankCacheOptions options, obs::MetricsRegistry* metrics,
                     obs::Tracer* tracer)
    : options_(options), tracer_(tracer) {
  if (metrics != nullptr) {
    instruments_.hit = metrics->GetCounter("scheduler.rank_cache_hit");
    instruments_.wait_hit =
        metrics->GetCounter("scheduler.rank_cache_wait_hit");
    instruments_.miss = metrics->GetCounter("scheduler.rank_cache_miss");
    instruments_.compute_failed =
        metrics->GetCounter("scheduler.rank_cache_compute_failed");
    instruments_.evicted =
        metrics->GetCounter("scheduler.rank_cache_evicted");
    instruments_.invalidated =
        metrics->GetCounter("scheduler.rank_cache_invalidated");
    instruments_.bytes = metrics->GetGauge("scheduler.rank_cache_bytes");
    instruments_.entries = metrics->GetGauge("scheduler.rank_cache_entries");
    instruments_.compute_seconds =
        metrics->GetLatency("scheduler.rank_cache_compute_seconds");
  }
}

std::string RankCache::Key(const std::string& dataset, uint64_t generation,
                           const analytics::BetweennessOptions& options) {
  // %a renders exact double bits, so near-equal thresholds never collide.
  return StrFormat(
      "%s|g%llu|x%llu|s%llu|seed%llu|k%d|a%a|w%llu|st%a|tk%llu",
      dataset.c_str(), static_cast<unsigned long long>(generation),
      static_cast<unsigned long long>(options.exact_node_threshold),
      static_cast<unsigned long long>(options.sample_sources),
      static_cast<unsigned long long>(options.seed),
      static_cast<int>(options.kernel), options.hybrid_alpha,
      static_cast<unsigned long long>(options.wave_size),
      options.wave_stability,
      static_cast<unsigned long long>(options.wave_top_k));
}

StatusOr<core::EdgeRanking> RankCache::GetOrCompute(
    const std::string& dataset, uint64_t generation, const graph::Graph& g,
    const analytics::BetweennessOptions& options) {
  const std::string key = Key(dataset, generation, options);
  std::unique_lock<std::mutex> lock(mu_);
  bool waited = false;
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) break;  // miss: this thread computes
    Entry& entry = it->second;
    if (entry.ranking != nullptr) {
      lru_.splice(lru_.begin(), lru_, entry.lru_pos);
      obs::Counter* counter =
          waited ? instruments_.wait_hit : instruments_.hit;
      if (counter != nullptr) counter->Increment();
      core::EdgeRanking ranking;
      ranking.ids = *entry.ranking;  // computed=false, seconds=0.0 exactly
      return ranking;
    }
    // A compute is in flight: wait, then re-check from scratch. A failed
    // compute erases its entry, so we fall out of the loop and rank it
    // ourselves instead of inheriting another job's cancellation.
    waited = true;
    compute_done_.wait(lock);
  }
  entries_[key].computing = true;
  if (instruments_.miss != nullptr) instruments_.miss->Increment();
  lock.unlock();

  obs::Span span = obs::Tracer::StartSpan(tracer_, "rank_cache.compute");
  span.Annotate("dataset", dataset);
  Stopwatch watch;
  std::vector<graph::EdgeId> ids =
      analytics::EdgesByBetweennessDescending(g, options);
  const double seconds = watch.ElapsedSeconds();
  const bool cancelled = CancellationRequested(options.cancel);
  span.Annotate("ok", cancelled ? "false" : "true");
  span.End();

  lock.lock();
  if (cancelled) {
    entries_.erase(key);
    if (instruments_.compute_failed != nullptr) {
      instruments_.compute_failed->Increment();
    }
    compute_done_.notify_all();
    return options.cancel->ToStatus();
  }
  Entry& entry = entries_.at(key);
  entry.computing = false;
  entry.ranking =
      std::make_shared<const std::vector<graph::EdgeId>>(std::move(ids));
  entry.bytes = key.size() + entry.ranking->size() * sizeof(graph::EdgeId);
  bytes_ += entry.bytes;
  lru_.push_front(key);
  entry.lru_pos = lru_.begin();
  if (instruments_.compute_seconds != nullptr) {
    instruments_.compute_seconds->Record(seconds);
  }
  EvictLocked(key);
  PublishGaugesLocked();
  compute_done_.notify_all();
  core::EdgeRanking ranking;
  ranking.ids = *entry.ranking;
  ranking.computed = true;
  ranking.seconds = seconds;
  return ranking;
}

void RankCache::InvalidateDataset(const std::string& dataset) {
  const std::string prefix = dataset + "|";
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.ranking == nullptr ||
        it->first.compare(0, prefix.size(), prefix) != 0) {
      ++it;
      continue;
    }
    bytes_ -= it->second.bytes;
    lru_.erase(it->second.lru_pos);
    it = entries_.erase(it);
    if (instruments_.invalidated != nullptr) {
      instruments_.invalidated->Increment();
    }
  }
  PublishGaugesLocked();
}

void RankCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.ranking == nullptr) {
      ++it;  // in-flight compute; its installer still expects the entry
      continue;
    }
    bytes_ -= it->second.bytes;
    lru_.erase(it->second.lru_pos);
    it = entries_.erase(it);
  }
  PublishGaugesLocked();
}

size_t RankCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t RankCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

void RankCache::EvictLocked(const std::string& keep) {
  // Never evict the just-installed `keep`, so one oversized ranking is
  // still served (and dropped by the next insert).
  while (bytes_ > options_.byte_budget && !lru_.empty()) {
    const std::string& victim = lru_.back();
    if (victim == keep) break;
    auto it = entries_.find(victim);
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    if (instruments_.evicted != nullptr) instruments_.evicted->Increment();
  }
  PublishGaugesLocked();
}

void RankCache::PublishGaugesLocked() {
  if (instruments_.bytes != nullptr) {
    instruments_.bytes->Set(static_cast<int64_t>(bytes_));
  }
  if (instruments_.entries != nullptr) {
    instruments_.entries->Set(static_cast<int64_t>(lru_.size()));
  }
}

}  // namespace edgeshed::service
