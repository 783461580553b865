// Service-layer integration of the dynamic-graph subsystem: GraphStore's
// versioned datasets (DynGraph/ApplyMutations) and the scheduler's
// "crr-inc" incremental re-shedding sessions (DESIGN.md §15).

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dyn/versioned_graph.h"
#include "graph/binary_io.h"
#include "graph/mutation_io.h"
#include "obs/metrics.h"
#include "service/graph_store.h"
#include "service/job_scheduler.h"
#include "testing/test_graphs.h"

namespace edgeshed::service {
namespace {

using testing::Clique;
using testing::MustBuild;
using testing::Path;

void RegisterGraph(GraphStore& store, const std::string& name,
                   graph::Graph g) {
  ASSERT_TRUE(store
                  .Register(name,
                            [g = std::move(g)]() -> StatusOr<graph::Graph> {
                              return g;
                            })
                  .ok());
}

graph::MutationBatch Batch(std::vector<graph::Edge> inserts,
                           std::vector<graph::Edge> deletes) {
  graph::MutationBatch batch;
  batch.inserts = std::move(inserts);
  batch.deletes = std::move(deletes);
  return batch;
}

/// Cycle spine + deterministic random chords, same shape the dyn unit tests
/// shed: connected, non-trivial betweenness structure.
graph::Graph RandomGraph(graph::NodeId n, int extra_edges, uint64_t seed) {
  std::set<std::pair<graph::NodeId, graph::NodeId>> edges;
  for (graph::NodeId u = 0; u < n; ++u) {
    edges.emplace(std::min(u, static_cast<graph::NodeId>((u + 1) % n)),
                  std::max(u, static_cast<graph::NodeId>((u + 1) % n)));
  }
  Rng rng(seed);
  while (static_cast<int>(edges.size()) < static_cast<int>(n) + extra_edges) {
    const auto u = static_cast<graph::NodeId>(rng.UniformIndex(n));
    const auto v = static_cast<graph::NodeId>(rng.UniformIndex(n));
    if (u == v) continue;
    edges.emplace(std::min(u, v), std::max(u, v));
  }
  std::vector<graph::Edge> list;
  list.reserve(edges.size());
  for (const auto& [u, v] : edges) list.push_back({u, v});
  return MustBuild(n, std::move(list));
}

// ---------------------------------------------------------------------------
// GraphStore: versioned datasets

TEST(GraphStoreDynTest, DynGraphIsSharedAndUnknownNameIsNotFound) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", Path(6));

  auto first = store.DynGraph("g");
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = store.DynGraph("g");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // one history per dataset
  EXPECT_EQ((*first)->CurrentVersion(), 0u);

  EXPECT_EQ(store.DynGraph("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.ApplyMutations("nope", Batch({{0, 1}}, {})).status().code(),
            StatusCode::kNotFound);
}

TEST(GraphStoreDynTest, ApplyMutationsBumpsGenerationAndServesMutatedGraph) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", Path(6));  // edges {0,1}..{4,5}

  uint64_t generation_before = 0;
  ASSERT_TRUE(store.Get("g", &generation_before).ok());

  auto version = store.ApplyMutations("g", Batch({{0, 5}}, {{1, 2}}));
  ASSERT_TRUE(version.ok()) << version.status();
  EXPECT_EQ(*version, 1u);

  uint64_t generation_after = 0;
  auto mutated = store.Get("g", &generation_after);
  ASSERT_TRUE(mutated.ok());
  EXPECT_GT(generation_after, generation_before);
  EXPECT_EQ((*mutated)->NumEdges(), 5u);
  EXPECT_TRUE((*mutated)->HasEdge(0, 5));
  EXPECT_FALSE((*mutated)->HasEdge(1, 2));

  // Versions accumulate on the same history.
  auto next = store.ApplyMutations("g", Batch({{1, 2}}, {}));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 2u);
}

TEST(GraphStoreDynTest, InvalidBatchLeavesStoreUntouched) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", Path(6));

  uint64_t generation_before = 0;
  ASSERT_TRUE(store.Get("g", &generation_before).ok());

  // Delete of a non-live edge rejects the whole batch...
  auto bad = store.ApplyMutations("g", Batch({{0, 5}}, {{0, 3}}));
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("{0, 3}"), std::string::npos)
      << bad.status();

  // ...so the graph, the version, and the generation are all unchanged.
  auto dyn = store.DynGraph("g");
  ASSERT_TRUE(dyn.ok());
  EXPECT_EQ((*dyn)->CurrentVersion(), 0u);
  uint64_t generation_after = 0;
  auto graph = store.Get("g", &generation_after);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(generation_after, generation_before);
  EXPECT_FALSE((*graph)->HasEdge(0, 5));
}

TEST(GraphStoreDynTest, ReplaceStartsFreshDynamicHistory) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", Path(6));

  auto old_dyn = store.DynGraph("g");
  ASSERT_TRUE(old_dyn.ok());
  ASSERT_TRUE(store.ApplyMutations("g", Batch({{0, 5}}, {})).ok());

  ASSERT_TRUE(store
                  .Replace("g",
                           []() -> StatusOr<graph::Graph> {
                             return Clique(4);
                           })
                  .ok());

  // The store's history handle is fresh: version 0 over the new base, the
  // old mutations gone. The old handle stays valid for readers pinned to it.
  auto new_dyn = store.DynGraph("g");
  ASSERT_TRUE(new_dyn.ok());
  EXPECT_NE(old_dyn->get(), new_dyn->get());
  EXPECT_EQ((*new_dyn)->CurrentVersion(), 0u);
  EXPECT_EQ((*new_dyn)->Snapshot()->NumEdges(), 6u);  // Clique(4)
  EXPECT_EQ((*old_dyn)->CurrentVersion(), 1u);
}

// ---------------------------------------------------------------------------
// JobScheduler: "crr-inc" sessions

TEST(JobSchedulerDynTest, CrrIncColdMatchesCrrBitIdentically) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", RandomGraph(80, 160, 9));
  JobScheduler scheduler(&store, &metrics, {.workers = 2});

  auto inc = scheduler.Submit({"g", "crr-inc", 0.5, 42});
  ASSERT_TRUE(inc.ok()) << inc.status();
  auto inc_result = scheduler.Wait(*inc);
  ASSERT_TRUE(inc_result.ok()) << inc_result.status();

  auto full = scheduler.Submit({"g", "crr", 0.5, 42});
  ASSERT_TRUE(full.ok());
  auto full_result = scheduler.Wait(*full);
  ASSERT_TRUE(full_result.ok());

  // A cold session is engineered to answer exactly what a from-scratch CRR
  // job would: same kept EdgeIds, same delta.
  EXPECT_EQ((*inc_result)->kept_edges, (*full_result)->kept_edges);
  EXPECT_DOUBLE_EQ((*inc_result)->total_delta, (*full_result)->total_delta);
}

TEST(JobSchedulerDynTest, CrrIncReshedsIncrementallyAfterMutations) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  const graph::Graph base = RandomGraph(80, 160, 9);
  RegisterGraph(store, "g", base);
  JobScheduler scheduler(&store, &metrics, {.workers = 2});

  auto cold = scheduler.Submit({"g", "crr-inc", 0.5, 42});
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(scheduler.Wait(*cold).ok());

  ASSERT_TRUE(store.ApplyMutations("g", Batch({{0, 40}}, {{0, 1}})).ok());

  auto warm = scheduler.Submit({"g", "crr-inc", 0.5, 42});
  ASSERT_TRUE(warm.ok());
  auto warm_result = scheduler.Wait(*warm);
  ASSERT_TRUE(warm_result.ok()) << warm_result.status();

  // The session survived the mutation: this run was incremental, against
  // the new version, with the exact round(p·E) budget, and its EdgeIds are
  // valid on the mutated graph the store now serves.
  const auto& stats = (*warm_result)->stats;
  auto stat = [&stats](const std::string& name) -> double {
    for (const auto& [key, value] : stats) {
      if (key == name) return value;
    }
    return -1.0;
  };
  EXPECT_EQ(stat("version"), 1.0);
  EXPECT_EQ(stat("full_rank"), 0.0);

  auto mutated = store.Get("g");
  ASSERT_TRUE(mutated.ok());
  const uint64_t live = (*mutated)->NumEdges();
  EXPECT_EQ((*warm_result)->kept_edges.size(),
            static_cast<size_t>(std::llround(0.5 * live)));
  for (const graph::EdgeId id : (*warm_result)->kept_edges) {
    ASSERT_LT(id, live);
  }
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(JobSchedulerDynTest, CrrIncOutputMatchesMaterializedSubgraphByteForByte) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  const graph::Graph base = RandomGraph(80, 160, 9);
  RegisterGraph(store, "g", base);
  JobScheduler scheduler(&store, &metrics, {.workers = 2});
  auto dyn = store.DynGraph("g");
  ASSERT_TRUE(dyn.ok()) << dyn.status();

  // Two pairs absent from the base, to insert through the overlay.
  std::vector<graph::Edge> absent;
  for (graph::NodeId v = 2; absent.size() < 2; ++v) {
    if (!base.HasEdge(0, v)) absent.push_back({0, v});
  }
  const graph::Edge first = base.edge(0);
  const graph::Edge last = base.edge(base.NumEdges() - 1);
  const graph::Edge middle = base.edge(base.NumEdges() / 2);

  // Runs a crr-inc job with an output path and checks the written file is
  // byte-identical to the kept subgraph cut out of the materialized
  // snapshot, and that the job kept round(p·live) edges.
  int jobs = 0;
  const auto expect_identical_output = [&](const std::string& label) {
    SCOPED_TRACE(label);
    const std::string stem =
        ::testing::TempDir() + "/crr_inc_" + std::to_string(jobs++);
    JobSpec spec{"g", "crr-inc", 0.5, 42};
    spec.output_path = stem + ".esg";
    auto id = scheduler.Submit(spec);
    ASSERT_TRUE(id.ok()) << id.status();
    auto result = scheduler.Wait(*id);
    ASSERT_TRUE(result.ok()) << result.status();

    const auto snapshot = (*dyn)->Snapshot();
    double version = -1.0;
    for (const auto& [key, value] : (*result)->stats) {
      if (key == "version") version = value;
    }
    ASSERT_EQ(version, static_cast<double>(snapshot->version()));
    EXPECT_EQ((*result)->kept_edges.size(),
              static_cast<size_t>(std::llround(0.5 * snapshot->NumEdges())));
    auto parent = snapshot->Materialize();
    ASSERT_TRUE(parent.ok()) << parent.status();
    const std::string reference = stem + "_reference.esg";
    ASSERT_TRUE(graph::SaveBinaryGraph(
                    graph::SubgraphFromEdgeIds(*parent,
                                               (*result)->kept_edges),
                    reference, graph::SnapshotOptions{})
                    .ok());
    const std::string written = ReadBytes(spec.output_path);
    ASSERT_FALSE(written.empty());
    EXPECT_TRUE(written == ReadBytes(reference));
  };

  expect_identical_output("cold");
  // Overlay inserts; deletes of base edge 0, the last base edge and one
  // in between.
  ASSERT_TRUE(
      store.ApplyMutations("g", Batch(absent, {first, last, middle})).ok());
  expect_identical_output("base edge 0 and the last base edge deleted");
  // Re-insert a deleted base edge and delete an overlay insert.
  ASSERT_TRUE(store.ApplyMutations("g", Batch({middle}, {absent[0]})).ok());
  expect_identical_output("base edge re-inserted, overlay insert deleted");
  ASSERT_TRUE((*dyn)->Compact().ok());
  EXPECT_EQ((*dyn)->Snapshot()->OverlaySize(), 0u);
  expect_identical_output("after compaction");
}

TEST(JobSchedulerDynTest, MutationInvalidatesResultCache) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", RandomGraph(60, 120, 3));
  JobScheduler scheduler(&store, &metrics, {.workers = 2});

  const JobSpec spec{"g", "crr", 0.5, 42};
  auto first = scheduler.Submit(spec);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(scheduler.Wait(*first).ok());

  // The mutation bumps the dataset generation, so the identical spec is a
  // different cache key: it must run against the mutated graph, not be
  // served the stale kept set.
  ASSERT_TRUE(store.ApplyMutations("g", Batch({}, {{0, 1}})).ok());
  auto second = scheduler.Submit(spec);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(scheduler.Wait(*second).ok());
  EXPECT_EQ(metrics.CounterValue("scheduler.result_cache_hit"), 0u);
  auto status = scheduler.GetStatus(*second);
  ASSERT_TRUE(status.ok());
  EXPECT_FALSE(status->deduplicated);
}

TEST(JobSchedulerDynTest, ReplaceDropsEverySessionOfTheDataset) {
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", RandomGraph(60, 100, 4));
  JobScheduler scheduler(&store, &metrics, {.workers = 1});
  for (const uint64_t seed : {1, 2}) {
    auto id = scheduler.Submit({"g", "crr-inc", 0.5, seed});
    ASSERT_TRUE(id.ok()) << id.status();
    ASSERT_TRUE(scheduler.Wait(*id).ok());
  }
  std::weak_ptr<dyn::VersionedGraph> old_graph;
  {
    auto dyn = store.DynGraph("g");
    ASSERT_TRUE(dyn.ok());
    old_graph = *dyn;
  }
  ASSERT_TRUE(store
                  .Replace("g",
                           []() -> StatusOr<graph::Graph> {
                             return RandomGraph(60, 100, 5);
                           })
                  .ok());

  // Only seed 1 runs again, yet the seed-2 session must not keep the
  // replaced graph (its base CSR, history and rank state) alive.
  auto id = scheduler.Submit({"g", "crr-inc", 0.5, 1});
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE(scheduler.Wait(*id).ok());
  EXPECT_TRUE(old_graph.expired()) << "use_count=" << old_graph.use_count();
}

TEST(JobSchedulerDynTest, CrrIncIsNotAKnownStaticShedder) {
  // crr-inc dispatches through the scheduler's session path; it must be
  // accepted by Submit but stay off the static-shedder degradation ladder.
  obs::MetricsRegistry metrics;
  GraphStore store({}, &metrics);
  RegisterGraph(store, "g", Path(6));
  JobScheduler scheduler(&store, &metrics, {.workers = 1});
  auto id = scheduler.Submit({"g", "crr-inc", 0.5, 42});
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_TRUE(scheduler.Wait(*id).ok());
  auto bad = scheduler.Submit({"g", "crr-inc-nope", 0.5, 42});
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace edgeshed::service
