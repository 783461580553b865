#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/strings.h"
#include "core/shedder_factory.h"
#include "graph/binary_io.h"
#include "graph/generators/generators.h"
#include "graph/source.h"
#include "obs/metrics.h"
#include "service/dataset_registry.h"
#include "service/graph_store.h"
#include "service/job_scheduler.h"
#include "testing/test_graphs.h"

namespace edgeshed::service {
namespace {

using testing::Clique;
using testing::MustBuild;
using testing::Path;

/// Registers a deterministic in-memory graph under `name`.
void RegisterGraph(GraphStore& store, const std::string& name,
                   graph::Graph g) {
  ASSERT_TRUE(store
                  .Register(name,
                            [g = std::move(g)]() -> StatusOr<graph::Graph> {
                              return g;
                            })
                  .ok());
}

/// Loader that sleeps, to keep a worker busy for scheduling tests.
void RegisterSlowGraph(GraphStore& store, const std::string& name,
                       std::chrono::milliseconds delay) {
  ASSERT_TRUE(store
                  .Register(name,
                            [delay]() -> StatusOr<graph::Graph> {
                              std::this_thread::sleep_for(delay);
                              return Clique(8);
                            })
                  .ok());
}

/// Polls until the job leaves the queue (a worker picked it up), so tests
/// that depend on "this job occupies a worker" are deterministic even on
/// single-core machines where the pool may lag behind Submit.
void WaitUntilDispatched(JobScheduler& scheduler, JobId id) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    auto status = scheduler.GetStatus(id);
    ASSERT_TRUE(status.ok());
    if (status->state != JobState::kQueued) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "job " << id << " was never dispatched";
}

/// Polls until the job is observed kRunning (fails if it goes terminal
/// first), for tests that cancel work mid-kernel.
void WaitUntilRunning(JobScheduler& scheduler, JobId id) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    auto status = scheduler.GetStatus(id);
    ASSERT_TRUE(status.ok());
    if (status->state == JobState::kRunning) return;
    ASSERT_EQ(status->state, JobState::kQueued)
        << "job went terminal before it could be observed running";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "job " << id << " was never observed running";
}

/// A graph big enough that CRR (exact betweenness + swap phase) runs for
/// hundreds of milliseconds — room to cancel it mid-kernel.
graph::Graph BigCrrGraph(graph::NodeId nodes = 3000) {
  Rng rng(5);
  return graph::BarabasiAlbert(nodes, 6, rng);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, CountersGaugesLatencies) {
  obs::MetricsRegistry metrics;
  EXPECT_EQ(metrics.CounterValue("absent"), 0u);
  metrics.IncrementCounter("hits");
  metrics.IncrementCounter("hits", 4);
  EXPECT_EQ(metrics.CounterValue("hits"), 5u);

  EXPECT_EQ(metrics.GaugeValue("depth"), 0);
  metrics.SetGauge("depth", 7);
  metrics.AddToGauge("depth", -3);
  EXPECT_EQ(metrics.GaugeValue("depth"), 4);

  metrics.RecordLatency("lat", 0.002);
  metrics.RecordLatency("lat", 0.004);
  auto lat = metrics.LatencyValue("lat");
  EXPECT_EQ(lat.count, 2u);
  EXPECT_DOUBLE_EQ(lat.sum_seconds, 0.006);
  EXPECT_DOUBLE_EQ(lat.min_seconds, 0.002);
  EXPECT_DOUBLE_EQ(lat.max_seconds, 0.004);
  EXPECT_DOUBLE_EQ(lat.MeanSeconds(), 0.003);
}

TEST(MetricsRegistryTest, LatencyBuckets) {
  // 1024 us = 2^10 us -> bucket 10; sub-microsecond collapses to 0.
  EXPECT_EQ(obs::MetricsRegistry::LatencyBucket(1024e-6), 10);
  EXPECT_EQ(obs::MetricsRegistry::LatencyBucket(1e-9), 0);
}

TEST(MetricsRegistryTest, TextSnapshotListsEveryInstrument) {
  obs::MetricsRegistry metrics;
  metrics.IncrementCounter("a.count", 2);
  metrics.SetGauge("b.depth", -1);
  metrics.RecordLatency("c.lat", 0.5);
  const std::string snapshot = metrics.TextSnapshot();
  EXPECT_NE(snapshot.find("counter a.count 2"), std::string::npos);
  EXPECT_NE(snapshot.find("gauge   b.depth -1"), std::string::npos);
  EXPECT_NE(snapshot.find("latency c.lat count=1"), std::string::npos);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsDoNotLoseUpdates) {
  obs::MetricsRegistry metrics;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&metrics] {
      for (int i = 0; i < 1000; ++i) metrics.IncrementCounter("n");
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(metrics.CounterValue("n"), 8000u);
}

// ---------------------------------------------------------------------------
// GraphStore

TEST(GraphStoreTest, RegisterRejectsBadArgsAndDuplicates) {
  GraphStore store;
  EXPECT_EQ(store.Register("", [] { return Clique(3); }).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Register("g", nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(store.Register("g", [] { return Clique(3); }).ok());
  EXPECT_EQ(store.Register("g", [] { return Clique(4); }).code(),
            StatusCode::kFailedPrecondition);
}

TEST(GraphStoreTest, GetLoadsOnceThenHits) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "clique", Clique(10));
  EXPECT_FALSE(store.IsResident("clique"));

  auto first = store.Get("clique");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->NumEdges(), 45u);
  auto second = store.Get("clique");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // same resident instance
  EXPECT_EQ(metrics.CounterValue("store.miss"), 1u);
  EXPECT_EQ(metrics.CounterValue("store.hit"), 1u);
  EXPECT_TRUE(store.IsResident("clique"));
}

TEST(GraphStoreTest, UnknownNameIsNotFound) {
  GraphStore store;
  EXPECT_EQ(store.Get("nope").status().code(), StatusCode::kNotFound);
}

TEST(GraphStoreTest, LoaderFailureIsReturnedAndRetried) {
  GraphStore store;
  int calls = 0;
  ASSERT_TRUE(store
                  .Register("flaky",
                            [&calls]() -> StatusOr<graph::Graph> {
                              if (++calls == 1) {
                                return Status::IOError("disk on fire");
                              }
                              return Clique(4);
                            })
                  .ok());
  EXPECT_EQ(store.Get("flaky").status().code(), StatusCode::kIOError);
  EXPECT_TRUE(store.Get("flaky").ok());  // not cached as failed
  EXPECT_EQ(calls, 2);
}

TEST(GraphStoreTest, EvictsLruUnderByteBudgetAndReloadsTransparently) {
  obs::MetricsRegistry metrics;
  GraphStoreOptions options;
  // Fits one Clique(30) (435 edges) but not two.
  options.byte_budget = GraphStore::ApproxBytes(Clique(30)) + 100;
  GraphStore store(options, &metrics);
  RegisterGraph(store, "a", Clique(30));
  RegisterGraph(store, "b", Clique(30));

  ASSERT_TRUE(store.Get("a").ok());
  EXPECT_TRUE(store.IsResident("a"));
  ASSERT_TRUE(store.Get("b").ok());  // loading b evicts a (LRU)
  EXPECT_FALSE(store.IsResident("a"));
  EXPECT_TRUE(store.IsResident("b"));
  EXPECT_EQ(metrics.CounterValue("store.eviction"), 1u);
  EXPECT_LE(store.bytes_resident(), options.byte_budget);
  EXPECT_EQ(metrics.GaugeValue("store.graphs_resident"), 1);

  // The evicted graph reloads transparently on the next request.
  auto again = store.Get("a");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->NumEdges(), 435u);
  EXPECT_EQ(metrics.CounterValue("store.miss"), 3u);
  EXPECT_FALSE(store.IsResident("b"));
}

TEST(GraphStoreTest, EvictionKeepsLeasesAlive) {
  GraphStoreOptions options;
  options.byte_budget = 1;  // evict on every insert
  GraphStore store(options);
  RegisterGraph(store, "a", Path(50));
  RegisterGraph(store, "b", Path(60));
  auto a = store.Get("a");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(store.Get("b").ok());  // evicts a from the store
  EXPECT_FALSE(store.IsResident("a"));
  EXPECT_EQ((*a)->NumEdges(), 49u);  // the lease still works
}

TEST(GraphStoreTest, ConcurrentMissesLoadOnce) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  std::atomic<int> loads{0};
  ASSERT_TRUE(store
                  .Register("g",
                            [&loads]() -> StatusOr<graph::Graph> {
                              ++loads;
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(20));
                              return Clique(12);
                            })
                  .ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&store] {
      auto g = store.Get("g");
      ASSERT_TRUE(g.ok());
      EXPECT_EQ((*g)->NumEdges(), 66u);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(loads.load(), 1);
  EXPECT_EQ(metrics.CounterValue("store.miss"), 1u);
}

// Regression: a failed load used to leave blocked waiters to serially
// re-run the failing loader (a retry stampede). Now every Get blocked on
// the failing wave shares the loader's Status; only *fresh* Gets retry.
TEST(GraphStoreTest, LoadFailurePropagatesToBlockedWaiters) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  std::atomic<int> calls{0};
  std::atomic<int> arrivals{0};
  std::atomic<bool> allow_success{false};
  constexpr int kThreads = 6;
  ASSERT_TRUE(
      store
          .Register("flaky",
                    [&]() -> StatusOr<graph::Graph> {
                      ++calls;
                      if (!allow_success.load()) {
                        // Hold the wave open until every thread has arrived
                        // (plus a beat for the last ones to reach the
                        // condvar), so all six are blocked on this load.
                        while (arrivals.load() < kThreads) {
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(1));
                        }
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(50));
                        return Status::IOError("disk on fire");
                      }
                      return Clique(4);
                    })
          .ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ++arrivals;
      auto g = store.Get("flaky");
      EXPECT_FALSE(g.ok());
      EXPECT_EQ(g.status().code(), StatusCode::kIOError);
      ++failures;
    });
  }
  for (auto& t : threads) t.join();

  // One loader invocation served the whole failing wave; the five blocked
  // waiters shared its failure instead of retrying.
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(failures.load(), kThreads);
  EXPECT_EQ(metrics.CounterValue("store.load_failure"), 1u);
  EXPECT_EQ(metrics.CounterValue("store.wait_failure"),
            static_cast<uint64_t>(kThreads - 1));

  // Failures are not cached: a fresh Get starts a new wave and succeeds.
  allow_success = true;
  EXPECT_TRUE(store.Get("flaky").ok());
  EXPECT_EQ(calls.load(), 2);
}

TEST(GraphStoreTest, ClearDropsResidency) {
  GraphStore store;
  RegisterGraph(store, "g", Clique(5));
  ASSERT_TRUE(store.Get("g").ok());
  store.Clear();
  EXPECT_FALSE(store.IsResident("g"));
  EXPECT_EQ(store.bytes_resident(), 0u);
  EXPECT_TRUE(store.Get("g").ok());  // registration survives
}

TEST(GraphStoreTest, SurrogateRegistryNamesMatchCli) {
  GraphStore store;
  ASSERT_TRUE(RegisterSurrogateDatasets(store).ok());
  EXPECT_EQ(store.RegisteredNames(),
            (std::vector<std::string>{"enron", "grqc", "hepph",
                                      "livejournal"}));
}

TEST(GraphStoreTest, ReplaceKeepsMmapBackingAliveForPinnedReaders) {
  // Regression: Replace on an mmap-backed (v3 zero-copy) dataset must keep
  // the old mapping alive until the last pinned reader drops it. The reader
  // holds FromCsrView spans (through the mapped Graph) across the Replace,
  // a store-wide residency drop, and deletion of the snapshot file; the
  // refcounted backing handle is then the mapping's only owner.
  const std::string path = ::testing::TempDir() + "/replace_keepalive.esg";
  const graph::Graph original = Clique(12);
  ASSERT_TRUE(
      graph::SaveBinaryGraph(original, path, graph::SnapshotOptions{}).ok());

  GraphStore store;
  ASSERT_TRUE(store
                  .Register("g",
                            [path]() -> StatusOr<graph::Graph> {
                              graph::GraphSource source;
                              source.path = path;
                              source.format = graph::GraphFormat::kSnapshot;
                              EDGESHED_ASSIGN_OR_RETURN(
                                  graph::LoadedGraph loaded,
                                  graph::LoadGraph(source, {}));
                              return std::move(loaded.graph);
                            })
                  .ok());

  auto pinned = store.Get("g");
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  ASSERT_TRUE((*pinned)->IsMapped());  // really zero-copy, not a heap load
  const auto adjacency = (*pinned)->RawAdjacency();
  const std::vector<graph::NodeId> expected(adjacency.begin(),
                                            adjacency.end());

  ASSERT_TRUE(store
                  .Replace("g",
                           []() -> StatusOr<graph::Graph> { return Path(4); })
                  .ok());
  store.Clear();
  std::filesystem::remove(path);
  auto replaced = store.Get("g");
  ASSERT_TRUE(replaced.ok()) << replaced.status();
  EXPECT_EQ((*replaced)->NumNodes(), 4u);

  // Every page of the pinned spans must still be mapped and unchanged.
  ASSERT_EQ(adjacency.size(), expected.size());
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         adjacency.begin()));
  uint64_t degree_sum = 0;
  for (graph::NodeId u = 0; u < (*pinned)->NumNodes(); ++u) {
    degree_sum += (*pinned)->Degree(u);
  }
  EXPECT_EQ(degree_sum, 2 * original.NumEdges());
}

// ---------------------------------------------------------------------------
// JobScheduler

TEST(JobSchedulerTest, SubmitValidatesSpecs) {
  GraphStore store;
  RegisterGraph(store, "g", Clique(10));
  JobScheduler scheduler(&store, nullptr, {.workers = 1});
  EXPECT_EQ(scheduler.Submit({"g", "crr", 1.5}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(scheduler.Submit({"g", "crr", std::nan("")}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(scheduler.Submit({"g", "definitely-not-a-method", 0.5})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(scheduler.Submit({"g", "crr-rank", 0.5}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(scheduler.Submit({"", "crr", 0.5}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(JobSchedulerTest, UnknownDatasetFailsTheJobNotTheSubmit) {
  GraphStore store;
  JobScheduler scheduler(&store, nullptr, {.workers = 1});
  auto id = scheduler.Submit({"missing", "random", 0.5});
  ASSERT_TRUE(id.ok());
  auto result = scheduler.Wait(*id);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  auto status = scheduler.GetStatus(*id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kFailed);
}

TEST(JobSchedulerTest, UnknownIdsAreNotFound) {
  GraphStore store;
  JobScheduler scheduler(&store, nullptr, {.workers = 1});
  EXPECT_EQ(scheduler.Wait(999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.Cancel(999).code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.GetStatus(999).status().code(), StatusCode::kNotFound);
}

// Acceptance: >= 32 jobs submitted from >= 4 threads all complete, with
// results identical to direct EdgeShedder::Reduce calls.
TEST(JobSchedulerTest, ConcurrentSubmissionsMatchDirectReduce) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  const graph::Graph clique = Clique(24);
  const graph::Graph paper = testing::PaperExampleGraph();
  RegisterGraph(store, "clique", clique);
  RegisterGraph(store, "paper", paper);
  JobScheduler scheduler(&store, &metrics, {.workers = 4});

  struct Case {
    JobSpec spec;
    JobId id = 0;
  };
  // 2 datasets x 2 methods x 3 p x 2 seeds = 24 distinct specs; thread t of
  // 4 submits a rotated copy of all of them (96 submissions, 32+ unique-ish
  // ids per run).
  std::vector<JobSpec> specs;
  for (const char* dataset : {"clique", "paper"}) {
    for (const char* method : {"random", "bm2", "crr"}) {
      for (double p : {0.25, 0.5, 0.75}) {
        for (uint64_t seed : {1u, 2u}) {
          specs.push_back({dataset, method, p, seed});
        }
      }
    }
  }
  ASSERT_GE(specs.size() * 4, 32u);

  std::vector<std::vector<Case>> per_thread(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&specs, &scheduler, &per_thread, t] {
      auto& mine = per_thread[t];
      for (size_t i = 0; i < specs.size(); ++i) {
        Case c;
        c.spec = specs[(i + static_cast<size_t>(t) * 7) % specs.size()];
        auto id = scheduler.Submit(c.spec);
        ASSERT_TRUE(id.ok()) << id.status();
        c.id = *id;
        mine.push_back(c);
      }
      for (const Case& c : mine) {
        ASSERT_TRUE(scheduler.Wait(c.id).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  for (const auto& thread_cases : per_thread) {
    for (const Case& c : thread_cases) {
      auto result = scheduler.Wait(c.id);
      ASSERT_TRUE(result.ok()) << result.status();
      auto shedder = core::MakeShedderByName(c.spec.method, c.spec.seed);
      ASSERT_TRUE(shedder.ok());
      const graph::Graph& g = c.spec.dataset == "clique" ? clique : paper;
      auto direct = (*shedder)->Shed(g, {.p = c.spec.p});
      ASSERT_TRUE(direct.ok()) << direct.status();
      EXPECT_EQ((*result)->kept_edges, direct->kept_edges)
          << c.spec.dataset << " " << c.spec.method << " p=" << c.spec.p
          << " seed=" << c.spec.seed;
      EXPECT_DOUBLE_EQ((*result)->total_delta, direct->total_delta);
    }
  }
  // Every submission terminated, and all of them succeeded.
  EXPECT_EQ(metrics.CounterValue("scheduler.jobs_done"), specs.size() * 4);
  EXPECT_EQ(metrics.CounterValue("scheduler.jobs_failed"), 0u);
  // 4x duplication means at least 3/4 of submissions were deduplicated.
  EXPECT_GE(metrics.CounterValue("scheduler.result_cache_hit") +
                metrics.CounterValue("scheduler.coalesced"),
            specs.size() * 3);
}

// Acceptance: duplicate submissions hit the result cache, observed through
// MetricsRegistry counters.
TEST(JobSchedulerTest, DuplicateSubmissionHitsResultCache) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", Clique(16));
  JobScheduler scheduler(&store, &metrics, {.workers = 2});

  JobSpec spec{"g", "random", 0.5, 77};
  auto first = scheduler.Submit(spec);
  ASSERT_TRUE(first.ok());
  auto first_result = scheduler.Wait(*first);
  ASSERT_TRUE(first_result.ok());
  EXPECT_EQ(metrics.CounterValue("scheduler.result_cache_hit"), 0u);

  auto second = scheduler.Submit(spec);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(*second, *first);  // a new job id...
  auto second_result = scheduler.Wait(*second);
  ASSERT_TRUE(second_result.ok());
  // ...but the same cached result object, no second execution.
  EXPECT_EQ(first_result->get(), second_result->get());
  EXPECT_EQ(metrics.CounterValue("scheduler.result_cache_hit"), 1u);
  auto status = scheduler.GetStatus(*second);
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->deduplicated);
  EXPECT_EQ(status->state, JobState::kDone);

  // A different seed is a different key: it must run, not hit the cache.
  JobSpec other = spec;
  other.seed = 78;
  auto third = scheduler.Submit(other);
  ASSERT_TRUE(third.ok());
  ASSERT_TRUE(scheduler.Wait(*third).ok());
  EXPECT_EQ(metrics.CounterValue("scheduler.result_cache_hit"), 1u);
}

TEST(JobSchedulerTest, InFlightDuplicatesCoalesce) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterSlowGraph(store, "sleepy", std::chrono::milliseconds(100));
  JobScheduler scheduler(&store, &metrics, {.workers = 1});

  JobSpec spec{"sleepy", "random", 0.5, 1};
  auto first = scheduler.Submit(spec);
  auto second = scheduler.Submit(spec);  // first is still loading the graph
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  auto r1 = scheduler.Wait(*first);
  auto r2 = scheduler.Wait(*second);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->get(), r2->get());
  EXPECT_EQ(metrics.CounterValue("scheduler.coalesced"), 1u);
}

// Acceptance: a job whose deadline expired while queued reports kCancelled
// without blocking the pool.
TEST(JobSchedulerTest, ExpiredDeadlineCancelsWithoutBlockingPool) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterSlowGraph(store, "sleepy", std::chrono::milliseconds(150));
  RegisterGraph(store, "fast", Clique(10));
  JobScheduler scheduler(&store, &metrics, {.workers = 1});

  // Occupy the only worker, then queue a job that can only start after its
  // 1 ms deadline has long passed.
  auto blocker = scheduler.Submit({"sleepy", "random", 0.5, 1});
  ASSERT_TRUE(blocker.ok());
  JobSpec doomed{"fast", "random", 0.5, 2, std::chrono::milliseconds(1)};
  auto doomed_id = scheduler.Submit(doomed);
  ASSERT_TRUE(doomed_id.ok());
  auto follow_up = scheduler.Submit({"fast", "random", 0.5, 3});
  ASSERT_TRUE(follow_up.ok());

  auto doomed_result = scheduler.Wait(*doomed_id);
  EXPECT_FALSE(doomed_result.ok());
  EXPECT_EQ(doomed_result.status().code(), StatusCode::kDeadlineExceeded);
  auto doomed_status = scheduler.GetStatus(*doomed_id);
  ASSERT_TRUE(doomed_status.ok());
  EXPECT_EQ(doomed_status->state, JobState::kCancelled);
  EXPECT_EQ(metrics.CounterValue("scheduler.deadline_expired"), 1u);

  // The pool kept going: the jobs around the doomed one both completed.
  EXPECT_TRUE(scheduler.Wait(*blocker).ok());
  EXPECT_TRUE(scheduler.Wait(*follow_up).ok());
}

TEST(JobSchedulerTest, CancelQueuedJobIsImmediate) {
  GraphStore store;
  RegisterSlowGraph(store, "sleepy", std::chrono::milliseconds(100));
  RegisterGraph(store, "fast", Clique(10));
  JobScheduler scheduler(&store, nullptr, {.workers = 1});

  auto blocker = scheduler.Submit({"sleepy", "random", 0.5, 1});
  ASSERT_TRUE(blocker.ok());
  auto queued = scheduler.Submit({"fast", "random", 0.5, 2});
  ASSERT_TRUE(queued.ok());
  EXPECT_TRUE(scheduler.Cancel(*queued).ok());
  auto result = scheduler.Wait(*queued);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // Cancelling a terminal job is a FailedPrecondition.
  EXPECT_EQ(scheduler.Cancel(*queued).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(scheduler.Wait(*blocker).ok());
}

// Acceptance: Cancel on a running job trips its token and the kernel
// actually stops — observed through scheduler.cancelled_while_running.
TEST(JobSchedulerTest, CancelStopsRunningKernel) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "big", BigCrrGraph());
  JobScheduler scheduler(&store, &metrics, {.workers = 1});

  auto id = scheduler.Submit({"big", "crr", 0.5, 1});
  ASSERT_TRUE(id.ok());
  WaitUntilRunning(scheduler, *id);
  ASSERT_TRUE(scheduler.Cancel(*id).ok());

  auto result = scheduler.Wait(*id);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  auto status = scheduler.GetStatus(*id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kCancelled);
  EXPECT_GE(metrics.CounterValue("scheduler.cancelled_while_running"), 1u);
}

// Acceptance: a deadline that expires mid-kernel terminates the running job
// (not just queued ones) with kDeadlineExceeded.
TEST(JobSchedulerTest, DeadlineInterruptsRunningJob) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  // The slow loader guarantees the job is dispatched (passes the queue-side
  // deadline check) before the deadline fires inside the kernel.
  graph::Graph big = BigCrrGraph();
  ASSERT_TRUE(store
                  .Register("big",
                            [big = std::move(big)]() -> StatusOr<graph::Graph> {
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(50));
                              return big;
                            })
                  .ok());
  JobScheduler scheduler(&store, &metrics, {.workers = 1});

  JobSpec spec{"big", "crr", 0.5, 1, std::chrono::milliseconds(100)};
  auto id = scheduler.Submit(spec);
  ASSERT_TRUE(id.ok());
  auto result = scheduler.Wait(*id);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  auto status = scheduler.GetStatus(*id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kCancelled);
  // run_seconds > 0 proves the job was dispatched and the deadline fired
  // inside Execute, not at the queue-side check.
  EXPECT_GT(status->run_seconds, 0.0);
  // ...and far below what an untimed CRR run on this graph would take.
  EXPECT_LT(status->run_seconds, 5.0);
  EXPECT_GE(metrics.CounterValue("scheduler.deadline_expired"), 1u);
}

// Acceptance: terminal job records are garbage collected once the retained
// count exceeds max_retained_jobs — scheduler memory stays bounded.
TEST(JobSchedulerTest, TerminalJobsAreGarbageCollectedByCount) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", Clique(12));
  JobSchedulerOptions options;
  options.workers = 1;
  options.max_retained_jobs = 4;
  options.job_retention = std::chrono::milliseconds(0);  // count limit only
  JobScheduler scheduler(&store, &metrics, options);

  std::vector<JobId> ids;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    auto id = scheduler.Submit({"g", "random", 0.5, 100 + seed});
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(scheduler.Wait(*id).ok());
    ids.push_back(*id);
  }

  EXPECT_LE(scheduler.TrackedJobs(), 4u);
  EXPECT_GE(metrics.CounterValue("scheduler.jobs_gc"), 8u);
  EXPECT_LE(metrics.GaugeValue("scheduler.jobs_tracked"), 4);
  // The oldest job is gone entirely; the newest is still queryable.
  EXPECT_EQ(scheduler.GetStatus(ids.front()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(scheduler.Wait(ids.front()).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(scheduler.GetStatus(ids.back()).ok());
}

// Acceptance: terminal records also age out after job_retention, even when
// the count limit is far away.
TEST(JobSchedulerTest, TerminalJobsExpireAfterRetentionWindow) {
  GraphStore store;
  RegisterGraph(store, "g", Clique(10));
  JobSchedulerOptions options;
  options.workers = 1;
  options.job_retention = std::chrono::milliseconds(50);
  JobScheduler scheduler(&store, nullptr, options);

  auto first = scheduler.Submit({"g", "random", 0.5, 1});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(scheduler.Wait(*first).ok());
  EXPECT_TRUE(scheduler.GetStatus(*first).ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // GC is piggybacked on scheduler activity; the next submit sweeps.
  auto second = scheduler.Submit({"g", "random", 0.5, 2});
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(scheduler.Wait(*second).ok());
  EXPECT_EQ(scheduler.GetStatus(*first).status().code(),
            StatusCode::kNotFound);
}

// Acceptance: the result cache is a byte-budgeted LRU — it evicts under
// pressure, stays under budget, and evicted entries simply re-execute
// (deterministically) instead of failing.
TEST(JobSchedulerTest, ResultCacheIsByteBoundedLru) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  const graph::Graph g = Clique(16);
  RegisterGraph(store, "g", g);
  JobSchedulerOptions options;
  options.workers = 1;
  // Roughly two Clique(16) random-shed results' worth of bytes: four
  // distinct jobs must force at least one eviction.
  options.result_cache_byte_budget = 2048;
  JobScheduler scheduler(&store, &metrics, options);

  for (uint64_t seed = 1; seed <= 4; ++seed) {
    auto id = scheduler.Submit({"g", "random", 0.5, seed});
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(scheduler.Wait(*id).ok());
  }
  EXPECT_GE(metrics.CounterValue("scheduler.result_cache_evicted"), 1u);
  EXPECT_LE(metrics.GaugeValue("scheduler.result_cache_bytes"), 2048);

  // Seed 1 was the least recently used and is gone: resubmitting re-runs
  // the job (no cache hit) and reproduces the exact result.
  auto again = scheduler.Submit({"g", "random", 0.5, 1});
  ASSERT_TRUE(again.ok());
  auto result = scheduler.Wait(*again);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(metrics.CounterValue("scheduler.result_cache_hit"), 0u);

  auto shedder = core::MakeShedderByName("random", 1);
  ASSERT_TRUE(shedder.ok());
  auto direct = (*shedder)->Shed(g, {.p = 0.5});
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ((*result)->kept_edges, direct->kept_edges);
}

// Acceptance: cancelling a coalesced primary must not take its followers
// down with it — the first live follower is promoted and re-queued.
TEST(JobSchedulerTest, CancelOfQueuedPrimaryPromotesFollower) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterSlowGraph(store, "sleepy", std::chrono::milliseconds(150));
  const graph::Graph g = Clique(14);
  RegisterGraph(store, "fast", g);
  JobScheduler scheduler(&store, &metrics, {.workers = 1});

  auto blocker = scheduler.Submit({"sleepy", "random", 0.5, 1});
  ASSERT_TRUE(blocker.ok());
  WaitUntilDispatched(scheduler, *blocker);

  JobSpec spec{"fast", "random", 0.5, 2};
  auto primary = scheduler.Submit(spec);
  ASSERT_TRUE(primary.ok());
  auto follower = scheduler.Submit(spec);  // coalesces onto primary
  ASSERT_TRUE(follower.ok());
  EXPECT_EQ(metrics.CounterValue("scheduler.coalesced"), 1u);

  ASSERT_TRUE(scheduler.Cancel(*primary).ok());
  EXPECT_EQ(scheduler.Wait(*primary).status().code(), StatusCode::kCancelled);

  auto result = scheduler.Wait(*follower);
  ASSERT_TRUE(result.ok()) << result.status();
  auto status = scheduler.GetStatus(*follower);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kDone);
  // The promoted follower ran on its own, it did not piggyback.
  EXPECT_FALSE(status->deduplicated);
  EXPECT_GE(metrics.CounterValue("scheduler.follower_promoted"), 1u);

  auto shedder = core::MakeShedderByName(spec.method, spec.seed);
  ASSERT_TRUE(shedder.ok());
  auto direct = (*shedder)->Shed(g, {.p = spec.p});
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ((*result)->kept_edges, direct->kept_edges);
  EXPECT_TRUE(scheduler.Wait(*blocker).ok());
}

// Same guarantee when the primary is already running: the token trips, the
// kernel aborts, and the follower re-runs the spec to completion.
TEST(JobSchedulerTest, CancelOfRunningPrimaryPromotesFollower) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  const graph::Graph big = BigCrrGraph(1500);
  RegisterGraph(store, "big", big);
  JobScheduler scheduler(&store, &metrics, {.workers = 1});

  JobSpec spec{"big", "crr", 0.5, 1};
  auto primary = scheduler.Submit(spec);
  ASSERT_TRUE(primary.ok());
  WaitUntilRunning(scheduler, *primary);
  auto follower = scheduler.Submit(spec);  // coalesces onto the running job
  ASSERT_TRUE(follower.ok());

  ASSERT_TRUE(scheduler.Cancel(*primary).ok());
  EXPECT_EQ(scheduler.Wait(*primary).status().code(), StatusCode::kCancelled);
  EXPECT_GE(metrics.CounterValue("scheduler.cancelled_while_running"), 1u);

  auto result = scheduler.Wait(*follower);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(metrics.CounterValue("scheduler.follower_promoted"), 1u);

  auto shedder = core::MakeShedderByName(spec.method, spec.seed);
  ASSERT_TRUE(shedder.ok());
  auto direct = (*shedder)->Shed(big, {.p = spec.p});
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ((*result)->kept_edges, direct->kept_edges);
}

TEST(JobSchedulerTest, BoundedQueueRejectsWhenFull) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterSlowGraph(store, "sleepy", std::chrono::milliseconds(150));
  RegisterGraph(store, "fast", Clique(10));
  JobScheduler scheduler(&store, &metrics,
                         {.workers = 1, .queue_capacity = 1});

  auto blocker = scheduler.Submit({"sleepy", "random", 0.5, 1});
  ASSERT_TRUE(blocker.ok());
  // Make sure the blocker occupies the single worker rather than the queue;
  // after that at most one extra distinct job fits, and the one after that
  // must be rejected.
  WaitUntilDispatched(scheduler, *blocker);
  auto q1 = scheduler.Submit({"fast", "random", 0.3, 2});
  auto q2 = scheduler.Submit({"fast", "random", 0.4, 3});
  EXPECT_TRUE(q1.ok() || q2.ok());
  StatusOr<JobId>* rejected = q1.ok() ? &q2 : &q1;
  if (q1.ok() && q2.ok()) {
    // Worker drained fast enough to accept both; force a full queue.
    auto q3 = scheduler.Submit({"fast", "random", 0.6, 4});
    auto q4 = scheduler.Submit({"fast", "random", 0.7, 5});
    rejected = !q3.ok() ? &q3 : &q4;
  }
  EXPECT_FALSE(rejected->ok());
  EXPECT_EQ(rejected->status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(metrics.CounterValue("scheduler.rejected_queue_full"), 1u);
  EXPECT_TRUE(scheduler.Wait(*blocker).ok());
}

TEST(JobSchedulerTest, ShutdownCancelsQueuedJobsAndStopsIntake) {
  GraphStore store;
  RegisterSlowGraph(store, "sleepy", std::chrono::milliseconds(100));
  RegisterGraph(store, "fast", Clique(10));
  JobScheduler scheduler(&store, nullptr, {.workers = 1});

  auto running = scheduler.Submit({"sleepy", "random", 0.5, 1});
  ASSERT_TRUE(running.ok());
  WaitUntilDispatched(scheduler, *running);
  auto queued = scheduler.Submit({"fast", "random", 0.5, 2});
  ASSERT_TRUE(queued.ok());
  scheduler.Shutdown();

  // The running job finished; the queued one was cancelled.
  EXPECT_TRUE(scheduler.Wait(*running).ok());
  EXPECT_EQ(scheduler.Wait(*queued).status().code(), StatusCode::kCancelled);
  EXPECT_EQ(scheduler.Submit({"fast", "random", 0.5, 3}).status().code(),
            StatusCode::kFailedPrecondition);
}

// End-to-end: scheduler + store under a tiny budget — evictions and reloads
// happen mid-stream and every job still returns the right answer.
TEST(JobSchedulerTest, JobsSurviveStoreEvictionsMidStream) {
  obs::MetricsRegistry metrics;
  GraphStoreOptions store_options;
  store_options.byte_budget = GraphStore::ApproxBytes(Clique(20)) + 100;
  GraphStore store(store_options, &metrics);
  const graph::Graph a = Clique(20);
  const graph::Graph b = Clique(18);
  RegisterGraph(store, "a", a);
  RegisterGraph(store, "b", b);
  JobScheduler scheduler(&store, &metrics, {.workers = 2});

  std::vector<std::pair<JobId, const graph::Graph*>> jobs;
  for (int round = 0; round < 4; ++round) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      auto ia = scheduler.Submit(
          {"a", "random", 0.5, 1000 + round * 10 + seed});
      auto ib = scheduler.Submit(
          {"b", "random", 0.5, 2000 + round * 10 + seed});
      ASSERT_TRUE(ia.ok());
      ASSERT_TRUE(ib.ok());
      jobs.emplace_back(*ia, &a);
      jobs.emplace_back(*ib, &b);
    }
  }
  for (const auto& [id, g] : jobs) {
    auto result = scheduler.Wait(id);
    ASSERT_TRUE(result.ok()) << result.status();
    // Every kept edge must be a valid id of the right parent graph.
    for (graph::EdgeId e : (*result)->kept_edges) {
      ASSERT_LT(e, g->NumEdges());
    }
  }
  EXPECT_GE(metrics.CounterValue("store.eviction"), 1u);
  EXPECT_GE(metrics.CounterValue("store.miss"), 2u);
}

TEST(JobSchedulerTest, QueueSecondsAndRunSecondsArePopulated) {
  GraphStore store;
  RegisterGraph(store, "g", Clique(12));
  JobScheduler scheduler(&store, nullptr, {.workers = 1});
  auto id = scheduler.Submit({"g", "crr", 0.5, 5});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(scheduler.Wait(*id).ok());
  auto status = scheduler.GetStatus(*id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_GT(status->run_seconds, 0.0);
  EXPECT_GE(status->queue_seconds, 0.0);
}

TEST(JobSchedulerTest, PublishesPerPhaseSheddingTimings) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", Clique(24));
  JobScheduler scheduler(&store, &metrics, {.workers = 1});

  auto id = scheduler.Submit({"g", "crr", 0.5});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(scheduler.Wait(*id).ok());

  // CRR reports phase1_seconds/phase2_seconds in SheddingResult::stats; the
  // scheduler republishes them as latency series.
  const obs::LatencySnapshot phase1 =
      metrics.LatencyValue("scheduler.phase1_seconds");
  const obs::LatencySnapshot phase2 =
      metrics.LatencyValue("scheduler.phase2_seconds");
  EXPECT_EQ(phase1.count, 1u);
  EXPECT_EQ(phase2.count, 1u);
  EXPECT_GE(phase1.sum_seconds, 0.0);
  EXPECT_GE(phase2.sum_seconds, 0.0);

  // A result-cache hit reuses the stored result without re-executing, so the
  // phase series must not double-count.
  auto cached = scheduler.Submit({"g", "crr", 0.5});
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(scheduler.Wait(*cached).ok());
  EXPECT_EQ(metrics.CounterValue("scheduler.result_cache_hit"), 1u);
  EXPECT_EQ(metrics.LatencyValue("scheduler.phase1_seconds").count, 1u);
}

TEST(JobSchedulerTest, OutputPathWritesTheKeptSnapshot) {
  const std::string path = ::testing::TempDir() + "/job_out.esg";
  std::filesystem::remove(path);
  GraphStore store;
  RegisterGraph(store, "g", Clique(12));
  JobScheduler scheduler(&store, nullptr, {.workers = 1});

  JobSpec spec;
  spec.dataset = "g";
  spec.method = "crr";
  spec.p = 0.5;
  spec.output_path = path;
  auto id = scheduler.Submit(spec);
  ASSERT_TRUE(id.ok()) << id.status();
  auto result = scheduler.Wait(*id);
  ASSERT_TRUE(result.ok()) << result.status();

  auto snapshot = graph::LoadSnapshot(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot->graph.NumNodes(), 12u);
  EXPECT_EQ(snapshot->graph.NumEdges(), (*result)->kept_edges.size());

  // output_path is part of the dedup key: the same shed without an output
  // is a distinct job, not a cache hit that would skip the write.
  JobSpec no_output = spec;
  no_output.output_path.clear();
  auto id2 = scheduler.Submit(no_output);
  ASSERT_TRUE(id2.ok());
  ASSERT_TRUE(scheduler.Wait(*id2).ok());
  EXPECT_NE(*id2, *id);
}

TEST(JobSchedulerTest, UnwritableOutputPathFailsTheJob) {
  GraphStore store;
  RegisterGraph(store, "g", Clique(6));
  JobScheduler scheduler(&store, nullptr, {.workers = 1});
  JobSpec spec;
  spec.dataset = "g";
  spec.output_path = ::testing::TempDir() + "/no_such_dir/out.esg";
  auto id = scheduler.Submit(spec);
  ASSERT_TRUE(id.ok());
  auto result = scheduler.Wait(*id);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  auto status = scheduler.GetStatus(*id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, JobState::kFailed);
}

TEST(JobSchedulerTest, JobStateNames) {
  EXPECT_EQ(JobStateToString(JobState::kQueued), "queued");
  EXPECT_EQ(JobStateToString(JobState::kRunning), "running");
  EXPECT_EQ(JobStateToString(JobState::kDone), "done");
  EXPECT_EQ(JobStateToString(JobState::kFailed), "failed");
  EXPECT_EQ(JobStateToString(JobState::kCancelled), "cancelled");
}

// ---------------------------------------------------------------------------
// JobScheduler QoS: fair-share tenants, priority lane, quotas, degradation

/// Blocks every load of its dataset until Release(), freezing the worker
/// that picked it up so a test can build up a queue deterministically.
struct Plug {
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }
};

void RegisterPluggedGraph(GraphStore& store, const std::string& name,
                          std::shared_ptr<Plug> plug) {
  ASSERT_TRUE(store
                  .Register(name,
                            [plug]() -> StatusOr<graph::Graph> {
                              std::unique_lock<std::mutex> lock(plug->mu);
                              plug->cv.wait(lock,
                                            [&] { return plug->released; });
                              return Clique(8);
                            })
                  .ok());
}

/// Records dispatch order: each dataset's loader appends its name to a
/// shared log when the (single) worker starts executing the job. Distinct
/// datasets per job keep the store's load cache out of the picture.
struct DispatchLog {
  std::mutex mu;
  std::vector<std::string> order;
  std::vector<std::string> Snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return order;
  }
};

void RegisterLoggedGraph(GraphStore& store, const std::string& name,
                         std::shared_ptr<DispatchLog> log,
                         std::chrono::milliseconds delay = {}) {
  ASSERT_TRUE(store
                  .Register(name,
                            [name, log, delay]() -> StatusOr<graph::Graph> {
                              {
                                std::lock_guard<std::mutex> lock(log->mu);
                                log->order.push_back(name);
                              }
                              if (delay.count() > 0) {
                                std::this_thread::sleep_for(delay);
                              }
                              return Clique(8);
                            })
                  .ok());
}

size_t CountPrefix(const std::vector<std::string>& order, size_t n,
                   char tenant_tag) {
  size_t hits = 0;
  for (size_t i = 0; i < std::min(n, order.size()); ++i) {
    if (!order[i].empty() && order[i][0] == tenant_tag) ++hits;
  }
  return hits;
}

// Acceptance (ISSUE 8): two tenants with 1:4 weights under saturation see
// dispatch slots split ~4:1. One worker + a plugged job make the deficit-
// round-robin order fully deterministic.
TEST(JobSchedulerQosTest, FairShareDispatchFollowsWeights) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  auto plug = std::make_shared<Plug>();
  auto log = std::make_shared<DispatchLog>();
  RegisterPluggedGraph(store, "plug", plug);

  JobSchedulerOptions options;
  options.workers = 1;
  options.tenants["gold"] = TenantConfig{4, 0};
  options.tenants["bronze"] = TenantConfig{1, 0};
  JobScheduler scheduler(&store, &metrics, options);

  auto blocker = scheduler.Submit({"plug", "random", 0.5, 1});
  ASSERT_TRUE(blocker.ok());
  WaitUntilDispatched(scheduler, *blocker);

  std::vector<JobId> ids;
  for (int i = 0; i < 8; ++i) {
    for (const char* tenant : {"gold", "bronze"}) {
      const std::string dataset =
          StrFormat("%c%d", tenant[0], i);  // g0/b0, g1/b1, ...
      RegisterLoggedGraph(store, dataset, log);
      JobSpec spec;
      spec.dataset = dataset;
      spec.method = "random";
      spec.p = 0.5;
      spec.seed = 1;
      spec.tenant = tenant;
      auto id = scheduler.Submit(spec);
      ASSERT_TRUE(id.ok()) << id.status();
      ids.push_back(*id);
    }
  }
  plug->Release();
  ASSERT_TRUE(scheduler.Wait(*blocker).ok());
  for (JobId id : ids) ASSERT_TRUE(scheduler.Wait(id).ok());

  const auto order = log->Snapshot();
  ASSERT_EQ(order.size(), 16u);
  // Weight 4 vs 1: gold owns ~4/5 of early dispatch slots. Exact DRR order
  // depends on ring phase, so assert the share with +-1 slack.
  EXPECT_GE(CountPrefix(order, 5, 'g'), 3u) << "first 5: gold under-served";
  EXPECT_GE(CountPrefix(order, 10, 'g'), 7u)
      << "first 10: gold under-served";
  EXPECT_GE(CountPrefix(order, 5, 'b'), 1u)
      << "first 5: bronze starved outright";
  EXPECT_EQ(metrics.CounterValue("scheduler.tenant_submitted.gold"), 8u);
  EXPECT_EQ(metrics.CounterValue("scheduler.tenant_done.gold"), 8u);
  EXPECT_EQ(metrics.CounterValue("scheduler.tenant_done.bronze"), 8u);
  EXPECT_EQ(metrics.CounterValue("scheduler.tenant_rejected.gold"), 0u);
}

// Acceptance (ISSUE 8): a priority-lane job dispatches ahead of
// earlier-queued normal-lane work from any tenant.
TEST(JobSchedulerQosTest, PriorityLanePreemptsQueueOrder) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  auto plug = std::make_shared<Plug>();
  auto log = std::make_shared<DispatchLog>();
  RegisterPluggedGraph(store, "plug", plug);
  RegisterLoggedGraph(store, "n0", log);
  RegisterLoggedGraph(store, "n1", log);
  RegisterLoggedGraph(store, "prio", log);
  JobScheduler scheduler(&store, &metrics, {.workers = 1});

  auto blocker = scheduler.Submit({"plug", "random", 0.5, 1});
  ASSERT_TRUE(blocker.ok());
  WaitUntilDispatched(scheduler, *blocker);

  std::vector<JobId> ids;
  for (const char* dataset : {"n0", "n1"}) {
    JobSpec spec;
    spec.dataset = dataset;
    spec.method = "random";
    auto id = scheduler.Submit(spec);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  JobSpec urgent;
  urgent.dataset = "prio";
  urgent.method = "random";
  urgent.priority = true;
  auto prio = scheduler.Submit(urgent);
  ASSERT_TRUE(prio.ok());
  ids.push_back(*prio);

  plug->Release();
  for (JobId id : ids) ASSERT_TRUE(scheduler.Wait(id).ok());

  const auto order = log->Snapshot();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "prio") << "priority lane did not preempt";
}

// A priority duplicate of a queued normal-lane job boosts the primary into
// the priority lane instead of forking a second execution.
TEST(JobSchedulerQosTest, PriorityDuplicateBoostsQueuedPrimary) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  auto plug = std::make_shared<Plug>();
  auto log = std::make_shared<DispatchLog>();
  RegisterPluggedGraph(store, "plug", plug);
  RegisterLoggedGraph(store, "x", log);
  RegisterLoggedGraph(store, "y", log);
  JobScheduler scheduler(&store, &metrics, {.workers = 1});

  auto blocker = scheduler.Submit({"plug", "random", 0.5, 1});
  ASSERT_TRUE(blocker.ok());
  WaitUntilDispatched(scheduler, *blocker);

  JobSpec x{"x", "random", 0.5, 1};
  auto first = scheduler.Submit(x);
  ASSERT_TRUE(first.ok());
  auto other = scheduler.Submit({"y", "random", 0.5, 1});
  ASSERT_TRUE(other.ok());
  JobSpec boosted = x;
  boosted.priority = true;
  auto dup = scheduler.Submit(boosted);
  ASSERT_TRUE(dup.ok());

  plug->Release();
  ASSERT_TRUE(scheduler.Wait(*first).ok());
  ASSERT_TRUE(scheduler.Wait(*other).ok());
  auto dup_result = scheduler.Wait(*dup);
  ASSERT_TRUE(dup_result.ok());

  const auto order = log->Snapshot();
  ASSERT_EQ(order.size(), 2u);  // the duplicate never executed separately
  EXPECT_EQ(order[0], "x") << "boosted primary did not jump the queue";
  EXPECT_EQ(metrics.CounterValue("scheduler.coalesced"), 1u);
  EXPECT_EQ(metrics.CounterValue("scheduler.priority_boosted"), 1u);
}

// A tenant at its max_running quota is skipped — other tenants keep the
// spare worker — and resumes once one of its jobs finishes.
TEST(JobSchedulerQosTest, TenantQuotaCapsConcurrency) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  auto log = std::make_shared<DispatchLog>();
  RegisterLoggedGraph(store, "c0", log, std::chrono::milliseconds(150));
  RegisterLoggedGraph(store, "c1", log);
  RegisterLoggedGraph(store, "f0", log);

  JobSchedulerOptions options;
  options.workers = 2;
  options.tenants["capped"] = TenantConfig{1, 1};
  JobScheduler scheduler(&store, &metrics, options);

  JobSpec slow;
  slow.dataset = "c0";
  slow.method = "random";
  slow.tenant = "capped";
  auto c0 = scheduler.Submit(slow);
  ASSERT_TRUE(c0.ok());
  WaitUntilDispatched(scheduler, *c0);

  JobSpec second = slow;
  second.dataset = "c1";
  auto c1 = scheduler.Submit(second);
  ASSERT_TRUE(c1.ok());
  JobSpec free_spec;
  free_spec.dataset = "f0";
  free_spec.method = "random";
  free_spec.tenant = "other";
  auto f0 = scheduler.Submit(free_spec);
  ASSERT_TRUE(f0.ok());

  ASSERT_TRUE(scheduler.Wait(*c0).ok());
  ASSERT_TRUE(scheduler.Wait(*c1).ok());
  ASSERT_TRUE(scheduler.Wait(*f0).ok());

  const auto order = log->Snapshot();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "c0");
  // c1 was quota-blocked behind c0, so the other tenant's job took the
  // second worker despite arriving later.
  EXPECT_EQ(order[1], "f0");
  EXPECT_EQ(order[2], "c1");
}

// Acceptance (ISSUE 8): under pressure an opted-in CRR request is served by
// a cheaper ladder tier, and the applied tier is recorded — never silent.
TEST(JobSchedulerQosTest, DegradationTierIsRecordedNeverSilent) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  const graph::Graph g = Clique(16);
  RegisterGraph(store, "g", g);

  JobSchedulerOptions options;
  options.workers = 1;
  options.degrade.enabled = true;
  JobScheduler scheduler(&store, &metrics, options);

  JobSpec spec;
  spec.dataset = "g";
  spec.method = "crr";
  spec.p = 0.5;
  spec.seed = 7;
  spec.allow_degrade = true;
  spec.pressure = 0.8;  // tier1 band: one step down the ladder
  auto id = scheduler.Submit(spec);
  ASSERT_TRUE(id.ok());
  auto result = scheduler.Wait(*id);
  ASSERT_TRUE(result.ok());

  auto status = scheduler.GetStatus(*id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->requested_method, "crr");
  EXPECT_EQ(status->applied_method, "bm2");
  EXPECT_EQ(status->degrade_kind,
            static_cast<uint8_t>(DegradeKind::kCheaperTier));
  // p is never silently changed by tier degradation.
  EXPECT_DOUBLE_EQ(status->requested_p, 0.5);
  EXPECT_DOUBLE_EQ(status->applied_p, 0.5);
  EXPECT_EQ(metrics.CounterValue("scheduler.degraded_tier"), 1u);

  // The answer really is the cheaper tier's answer.
  auto shedder = core::MakeShedderByName("bm2", spec.seed);
  ASSERT_TRUE(shedder.ok());
  auto direct = (*shedder)->Shed(g, {.p = spec.p});
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ((*result)->kept_edges, direct->kept_edges);

  // Deeper pressure bands step further down the ladder.
  JobSpec drowning = spec;
  drowning.seed = 8;
  drowning.pressure = 1.6;  // tier3 band: crr -> random
  auto deep = scheduler.Submit(drowning);
  ASSERT_TRUE(deep.ok());
  ASSERT_TRUE(scheduler.Wait(*deep).ok());
  auto deep_status = scheduler.GetStatus(*deep);
  ASSERT_TRUE(deep_status.ok());
  EXPECT_EQ(deep_status->applied_method, "random");
}

// Acceptance (ISSUE 8): past the pressure threshold a cached coarser-p
// result for the requested method is served instead of computing anything,
// with the applied p recorded (requested p untouched).
TEST(JobSchedulerQosTest, DegradationServesCachedCoarserP) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", Clique(16));

  JobSchedulerOptions options;
  options.workers = 1;
  options.degrade.enabled = true;
  JobScheduler scheduler(&store, &metrics, options);

  // Prime the cache with the coarser run (no pressure, no degradation).
  JobSpec coarse;
  coarse.dataset = "g";
  coarse.method = "bm2";
  coarse.p = 0.4;
  coarse.seed = 9;
  auto primed = scheduler.Submit(coarse);
  ASSERT_TRUE(primed.ok());
  auto primed_result = scheduler.Wait(*primed);
  ASSERT_TRUE(primed_result.ok());

  JobSpec wanted = coarse;
  wanted.p = 0.5;
  wanted.allow_degrade = true;
  wanted.pressure = 0.8;
  auto id = scheduler.Submit(wanted);
  ASSERT_TRUE(id.ok());
  auto result = scheduler.Wait(*id);
  ASSERT_TRUE(result.ok());
  // Same shared result object: nothing was computed.
  EXPECT_EQ(result->get(), primed_result->get());

  auto status = scheduler.GetStatus(*id);
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status->deduplicated);
  EXPECT_EQ(status->applied_method, "bm2");  // requested method kept
  EXPECT_EQ(status->degrade_kind,
            static_cast<uint8_t>(DegradeKind::kCachedCoarserP));
  EXPECT_DOUBLE_EQ(status->requested_p, 0.5);
  EXPECT_DOUBLE_EQ(status->applied_p, 0.4);
  EXPECT_EQ(metrics.CounterValue("scheduler.degraded_cached_p"), 1u);

  // A gap beyond max_p_gap disqualifies the cached result: the request is
  // tier-degraded instead of answered with a wildly coarser p.
  JobSpec far = coarse;
  far.p = 0.8;
  far.allow_degrade = true;
  far.pressure = 0.8;
  auto far_id = scheduler.Submit(far);
  ASSERT_TRUE(far_id.ok());
  ASSERT_TRUE(scheduler.Wait(*far_id).ok());
  auto far_status = scheduler.GetStatus(*far_id);
  ASSERT_TRUE(far_status.ok());
  EXPECT_NE(far_status->degrade_kind,
            static_cast<uint8_t>(DegradeKind::kCachedCoarserP));
  EXPECT_DOUBLE_EQ(far_status->applied_p, 0.8);
}

// No pressure, no opt-in, or a disabled policy: requests run exactly as
// submitted.
TEST(JobSchedulerQosTest, NoDegradationWithoutPressureOrOptIn) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", Clique(12));

  JobSchedulerOptions options;
  options.workers = 1;
  options.degrade.enabled = true;
  JobScheduler scheduler(&store, &metrics, options);

  // Opted in but unpressured.
  JobSpec calm;
  calm.dataset = "g";
  calm.method = "crr";
  calm.p = 0.5;
  calm.seed = 3;
  calm.allow_degrade = true;
  auto calm_id = scheduler.Submit(calm);
  ASSERT_TRUE(calm_id.ok());
  ASSERT_TRUE(scheduler.Wait(*calm_id).ok());
  auto calm_status = scheduler.GetStatus(*calm_id);
  ASSERT_TRUE(calm_status.ok());
  EXPECT_EQ(calm_status->applied_method, "crr");
  EXPECT_EQ(calm_status->degrade_kind, 0u);

  // Pressured but not opted in.
  JobSpec opted_out = calm;
  opted_out.seed = 4;
  opted_out.allow_degrade = false;
  opted_out.pressure = 2.0;
  auto out_id = scheduler.Submit(opted_out);
  ASSERT_TRUE(out_id.ok());
  ASSERT_TRUE(scheduler.Wait(*out_id).ok());
  auto out_status = scheduler.GetStatus(*out_id);
  ASSERT_TRUE(out_status.ok());
  EXPECT_EQ(out_status->applied_method, "crr");
  EXPECT_EQ(out_status->degrade_kind, 0u);
  EXPECT_EQ(metrics.CounterValue("scheduler.degraded_tier"), 0u);
}

// Tenants never share dedup: identical specs under different tenants are
// separate executions (QoS isolation beats cross-tenant caching).
TEST(JobSchedulerQosTest, TenantIsPartOfTheDedupKey) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", Clique(12));
  JobScheduler scheduler(&store, &metrics, {.workers = 1});

  JobSpec spec;
  spec.dataset = "g";
  spec.method = "random";
  spec.p = 0.5;
  spec.seed = 5;
  spec.tenant = "a";
  auto first = scheduler.Submit(spec);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(scheduler.Wait(*first).ok());

  JobSpec other_tenant = spec;
  other_tenant.tenant = "b";
  auto second = scheduler.Submit(other_tenant);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(scheduler.Wait(*second).ok());
  EXPECT_EQ(metrics.CounterValue("scheduler.result_cache_hit"), 0u);
  EXPECT_EQ(metrics.CounterValue("scheduler.coalesced"), 0u);

  // Same tenant does hit the cache.
  auto third = scheduler.Submit(spec);
  ASSERT_TRUE(third.ok());
  ASSERT_TRUE(scheduler.Wait(*third).ok());
  EXPECT_EQ(metrics.CounterValue("scheduler.result_cache_hit"), 1u);
}

}  // namespace
}  // namespace edgeshed::service
