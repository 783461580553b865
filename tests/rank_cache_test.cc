#include "service/rank_cache.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/betweenness.h"
#include "common/random.h"
#include "core/crr.h"
#include "graph/generators/generators.h"
#include "obs/metrics.h"
#include "service/graph_store.h"
#include "service/job_scheduler.h"
#include "testing/test_graphs.h"

namespace edgeshed::service {
namespace {

using ::edgeshed::testing::Clique;

graph::Graph SmallScaleFree(uint64_t seed = 7) {
  Rng rng(seed);
  return graph::BarabasiAlbert(400, 3, rng);
}

double StatValue(const core::SheddingResult& result, const std::string& key) {
  for (const auto& [k, v] : result.stats) {
    if (k == key) return v;
  }
  return -1.0;
}

// ---- RankCache unit tests ----

TEST(RankCacheTest, MissComputesThenHitsShareWithoutRecompute) {
  obs::MetricsRegistry metrics;
  RankCache cache({}, &metrics);
  graph::Graph g = SmallScaleFree();
  analytics::BetweennessOptions options;

  auto first = cache.GetOrCompute("ds", 1, g, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->computed);
  EXPECT_GT(first->seconds, 0.0);
  EXPECT_EQ(first->ids, analytics::EdgesByBetweennessDescending(g, options));

  auto second = cache.GetOrCompute("ds", 1, g, options);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->computed);
  EXPECT_EQ(second->seconds, 0.0);  // exactly: hits report zero ranking time
  EXPECT_EQ(second->ids, first->ids);

  EXPECT_EQ(metrics.CounterValue("scheduler.rank_cache_miss"), 1u);
  EXPECT_EQ(metrics.CounterValue("scheduler.rank_cache_hit"), 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.bytes(), g.NumEdges() * sizeof(graph::EdgeId) - 1);
}

TEST(RankCacheTest, KeySeparatesDatasetGenerationAndOptions) {
  analytics::BetweennessOptions a;
  analytics::BetweennessOptions b = a;
  EXPECT_EQ(RankCache::Key("ds", 1, a), RankCache::Key("ds", 1, b));
  EXPECT_NE(RankCache::Key("ds", 1, a), RankCache::Key("ds", 2, a));
  EXPECT_NE(RankCache::Key("ds", 1, a), RankCache::Key("other", 1, a));
  b.sample_sources = a.sample_sources + 1;
  EXPECT_NE(RankCache::Key("ds", 1, a), RankCache::Key("ds", 1, b));
  b = a;
  b.kernel = analytics::BetweennessOptions::Kernel::kClassic;
  EXPECT_NE(RankCache::Key("ds", 1, a), RankCache::Key("ds", 1, b));
  b = a;
  b.wave_size = 16;
  EXPECT_NE(RankCache::Key("ds", 1, a), RankCache::Key("ds", 1, b));
  // Threads and the cancellation token never change scores, so they must
  // not fragment the cache.
  b = a;
  b.threads = 8;
  CancellationToken token;
  b.cancel = &token;
  EXPECT_EQ(RankCache::Key("ds", 1, a), RankCache::Key("ds", 1, b));
}

TEST(RankCacheTest, GenerationBumpForcesRecompute) {
  RankCache cache;
  graph::Graph g = SmallScaleFree();
  analytics::BetweennessOptions options;
  ASSERT_TRUE(cache.GetOrCompute("ds", 1, g, options).ok());
  auto after_replace = cache.GetOrCompute("ds", 2, g, options);
  ASSERT_TRUE(after_replace.ok());
  EXPECT_TRUE(after_replace->computed);
}

TEST(RankCacheTest, EvictsLeastRecentlyUsedPastByteBudget) {
  obs::MetricsRegistry metrics;
  graph::Graph g = SmallScaleFree();
  RankCacheOptions options;
  // Room for one ranking (|E| ids) but not two.
  options.byte_budget = g.NumEdges() * sizeof(graph::EdgeId) * 3 / 2;
  RankCache cache(options, &metrics);
  analytics::BetweennessOptions betweenness;

  ASSERT_TRUE(cache.GetOrCompute("a", 1, g, betweenness).ok());
  ASSERT_TRUE(cache.GetOrCompute("b", 1, g, betweenness).ok());
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(metrics.CounterValue("scheduler.rank_cache_evicted"), 1u);
  EXPECT_LE(cache.bytes(), options.byte_budget);

  // "a" was evicted to make room for "b": a hit on "b", a recompute on "a".
  auto b_again = cache.GetOrCompute("b", 1, g, betweenness);
  ASSERT_TRUE(b_again.ok());
  EXPECT_FALSE(b_again->computed);
  auto a_again = cache.GetOrCompute("a", 1, g, betweenness);
  ASSERT_TRUE(a_again.ok());
  EXPECT_TRUE(a_again->computed);
}

TEST(RankCacheTest, OversizedSingleRankingIsStillServed) {
  RankCacheOptions options;
  options.byte_budget = 1;  // nothing fits
  RankCache cache(options);
  graph::Graph g = Clique(12);
  auto ranking = cache.GetOrCompute("ds", 1, g, {});
  ASSERT_TRUE(ranking.ok());
  EXPECT_EQ(ranking->ids.size(), g.NumEdges());
  EXPECT_EQ(cache.entries(), 1u);  // never evicts the just-inserted entry
}

TEST(RankCacheTest, InvalidateDatasetDropsAllItsGenerations) {
  obs::MetricsRegistry metrics;
  RankCache cache({}, &metrics);
  graph::Graph g = SmallScaleFree();
  analytics::BetweennessOptions options;
  ASSERT_TRUE(cache.GetOrCompute("a", 1, g, options).ok());
  ASSERT_TRUE(cache.GetOrCompute("a", 2, g, options).ok());
  ASSERT_TRUE(cache.GetOrCompute("b", 1, g, options).ok());
  cache.InvalidateDataset("a");
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(metrics.CounterValue("scheduler.rank_cache_invalidated"), 2u);
  auto b_hit = cache.GetOrCompute("b", 1, g, options);
  ASSERT_TRUE(b_hit.ok());
  EXPECT_FALSE(b_hit->computed);
}

TEST(RankCacheTest, CancelledComputeIsNeitherCachedNorShared) {
  obs::MetricsRegistry metrics;
  RankCache cache({}, &metrics);
  graph::Graph g = SmallScaleFree();
  CancellationToken token;
  token.Cancel();
  analytics::BetweennessOptions cancelled;
  cancelled.cancel = &token;
  auto failed = cache.GetOrCompute("ds", 1, g, cancelled);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(metrics.CounterValue("scheduler.rank_cache_compute_failed"), 1u);

  // An independent caller is unaffected and computes fresh.
  auto ok = cache.GetOrCompute("ds", 1, g, {});
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->computed);
}

// ---- GraphStore generation / Replace ----

TEST(GraphStoreReplaceTest, ReplaceBumpsGenerationAndDropsResident) {
  GraphStore store;
  ASSERT_TRUE(
      store.Register("ds", []() -> StatusOr<graph::Graph> { return Clique(5); })
          .ok());
  EXPECT_EQ(store.Generation("ds"), 1u);
  uint64_t generation = 0;
  auto first = store.Get("ds", &generation);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(generation, 1u);
  EXPECT_EQ((*first)->NumNodes(), 5u);

  ASSERT_TRUE(
      store
          .Replace("ds", []() -> StatusOr<graph::Graph> { return Clique(7); })
          .ok());
  EXPECT_EQ(store.Generation("ds"), 2u);
  EXPECT_FALSE(store.IsResident("ds"));
  auto second = store.Get("ds", &generation);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(generation, 2u);
  EXPECT_EQ((*second)->NumNodes(), 7u);
  // The old lease stays valid after replacement.
  EXPECT_EQ((*first)->NumNodes(), 5u);
}

TEST(GraphStoreReplaceTest, ReplaceRegistersUnknownNames) {
  GraphStore store;
  ASSERT_TRUE(
      store
          .Replace("fresh", []() -> StatusOr<graph::Graph> { return Clique(4); })
          .ok());
  EXPECT_EQ(store.Generation("fresh"), 1u);
  auto got = store.Get("fresh");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->NumNodes(), 4u);
}

TEST(GraphStoreReplaceTest, GenerationIsZeroForUnknownNames) {
  GraphStore store;
  EXPECT_EQ(store.Generation("nope"), 0u);
}

// ---- Scheduler integration: jobs share one ranking phase ----

TEST(RankCacheSchedulerTest, CrrJobsAtDifferentPShareOneRanking) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  ASSERT_TRUE(store
                  .Register("ds",
                            []() -> StatusOr<graph::Graph> {
                              return SmallScaleFree();
                            })
                  .ok());
  JobSchedulerOptions options;
  options.workers = 2;
  JobScheduler scheduler(&store, &metrics, options);

  JobSpec spec;
  spec.dataset = "ds";
  spec.method = "crr";
  spec.p = 0.3;
  auto first = scheduler.Submit(spec);
  ASSERT_TRUE(first.ok());
  spec.p = 0.6;  // different p: distinct job, identical ranking inputs
  auto second = scheduler.Submit(spec);
  ASSERT_TRUE(second.ok());

  auto first_result = scheduler.Wait(*first);
  auto second_result = scheduler.Wait(*second);
  ASSERT_TRUE(first_result.ok()) << first_result.status().ToString();
  ASSERT_TRUE(second_result.ok()) << second_result.status().ToString();

  // Exactly one job paid for the betweenness pass; the other reused it
  // (and reports exactly zero ranking seconds).
  const double first_seconds =
      StatValue(**first_result, "betweenness_seconds");
  const double second_seconds =
      StatValue(**second_result, "betweenness_seconds");
  EXPECT_GT(std::max(first_seconds, second_seconds), 0.0);
  EXPECT_EQ(std::min(first_seconds, second_seconds), 0.0);
  EXPECT_EQ(metrics.CounterValue("scheduler.rank_cache_miss"), 1u);
  EXPECT_EQ(metrics.CounterValue("scheduler.rank_cache_hit") +
                metrics.CounterValue("scheduler.rank_cache_wait_hit"),
            1u);

  // Sharing the ranking must not change results: each job matches a direct
  // in-process reduction.
  for (auto [id, p] : {std::pair{*first, 0.3}, std::pair{*second, 0.6}}) {
    auto expected = core::Crr(core::CrrOptions{.seed = spec.seed})
                        .Shed(SmallScaleFree(), {.p = p});
    ASSERT_TRUE(expected.ok());
    auto got = scheduler.Wait(id);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ((*got)->kept_edges, expected->kept_edges) << "p=" << p;
  }
}

TEST(RankCacheSchedulerTest, DatasetReplaceInvalidatesRankingAndResults) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  ASSERT_TRUE(store
                  .Register("ds",
                            []() -> StatusOr<graph::Graph> {
                              return SmallScaleFree(7);
                            })
                  .ok());
  JobSchedulerOptions options;
  options.workers = 1;
  JobScheduler scheduler(&store, &metrics, options);

  JobSpec spec;
  spec.dataset = "ds";
  spec.method = "crr";
  spec.p = 0.5;
  auto before = scheduler.Submit(spec);
  ASSERT_TRUE(before.ok());
  auto before_result = scheduler.Wait(*before);
  ASSERT_TRUE(before_result.ok());
  EXPECT_GT(StatValue(**before_result, "betweenness_seconds"), 0.0);

  // Replace the dataset: an identical spec must neither hit the result
  // cache nor reuse the old ranking — it recomputes against the new graph.
  ASSERT_TRUE(store
                  .Replace("ds",
                           []() -> StatusOr<graph::Graph> {
                             return SmallScaleFree(8);
                           })
                  .ok());
  auto after = scheduler.Submit(spec);
  ASSERT_TRUE(after.ok());
  auto after_result = scheduler.Wait(*after);
  ASSERT_TRUE(after_result.ok()) << after_result.status().ToString();
  auto after_status = scheduler.GetStatus(*after);
  ASSERT_TRUE(after_status.ok());
  EXPECT_FALSE(after_status->deduplicated);
  EXPECT_GT(StatValue(**after_result, "betweenness_seconds"), 0.0);
  EXPECT_EQ(metrics.CounterValue("scheduler.rank_cache_miss"), 2u);
  EXPECT_NE((*before_result)->kept_edges, (*after_result)->kept_edges);
}

TEST(RankCacheSchedulerTest, DisabledRankCacheStillRanksInline) {
  GraphStore store;
  ASSERT_TRUE(store
                  .Register("ds",
                            []() -> StatusOr<graph::Graph> {
                              return SmallScaleFree();
                            })
                  .ok());
  JobSchedulerOptions options;
  options.workers = 1;
  options.enable_rank_cache = false;
  JobScheduler scheduler(&store, nullptr, options);
  EXPECT_EQ(scheduler.rank_cache(), nullptr);

  JobSpec spec;
  spec.dataset = "ds";
  spec.method = "crr";
  auto id = scheduler.Submit(spec);
  ASSERT_TRUE(id.ok());
  auto result = scheduler.Wait(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(StatValue(**result, "betweenness_seconds"), 0.0);
}

}  // namespace
}  // namespace edgeshed::service
