// Component microbenchmarks (google-benchmark): the building blocks every
// experiment above is assembled from. Not a paper table — used to track
// regressions in the substrate.

#include <benchmark/benchmark.h>

#include "analytics/betweenness.h"
#include "analytics/bfs.h"
#include "analytics/clustering.h"
#include "analytics/pagerank.h"
#include "analytics/shortest_paths.h"
#include "core/b_matching.h"
#include "core/bm2.h"
#include "core/crr.h"
#include "core/discrepancy.h"
#include "embedding/kmeans.h"
#include "embedding/random_walks.h"
#include "graph/generators/generators.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace {

using namespace edgeshed;

graph::Graph MakeBaGraph(int64_t nodes) {
  Rng rng(7);
  return graph::BarabasiAlbert(static_cast<graph::NodeId>(nodes), 4, rng);
}

void BM_GraphConstruction(benchmark::State& state) {
  Rng rng(7);
  graph::Graph source = MakeBaGraph(state.range(0));
  std::vector<graph::Edge> edges(source.edges().begin(),
                                 source.edges().end());
  for (auto _ : state) {
    auto g = graph::Graph::FromEdges(
        static_cast<graph::NodeId>(source.NumNodes()), edges);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(edges.size()));
}
BENCHMARK(BM_GraphConstruction)->Arg(1 << 10)->Arg(1 << 13);

void BM_Bfs(benchmark::State& state) {
  graph::Graph g = MakeBaGraph(state.range(0));
  std::vector<int32_t> distances;
  std::vector<graph::NodeId> queue;
  for (auto _ : state) {
    analytics::BfsDistancesInto(g, 0, &distances, &queue);
    benchmark::DoNotOptimize(distances);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_Bfs)->Arg(1 << 12)->Arg(1 << 15);

void BM_BetweennessExact(benchmark::State& state) {
  graph::Graph g = MakeBaGraph(state.range(0));
  auto options = analytics::BetweennessOptions::Exact();
  options.threads = 1;
  for (auto _ : state) {
    auto scores = analytics::Betweenness(g, options);
    benchmark::DoNotOptimize(scores);
  }
}
BENCHMARK(BM_BetweennessExact)->Arg(1 << 9)->Arg(1 << 11)
    ->Unit(benchmark::kMillisecond);

void BM_BetweennessSampled(benchmark::State& state) {
  graph::Graph g = MakeBaGraph(state.range(0));
  analytics::BetweennessOptions options;
  options.exact_node_threshold = 1;
  options.sample_sources = 128;
  options.threads = 1;
  for (auto _ : state) {
    auto scores = analytics::Betweenness(g, options);
    benchmark::DoNotOptimize(scores);
  }
}
BENCHMARK(BM_BetweennessSampled)->Arg(1 << 13)->Arg(1 << 15)
    ->Unit(benchmark::kMillisecond);

void BM_PageRank(benchmark::State& state) {
  graph::Graph g = MakeBaGraph(state.range(0));
  analytics::PageRankOptions options;
  options.threads = 1;
  for (auto _ : state) {
    auto scores = analytics::PageRank(g, options);
    benchmark::DoNotOptimize(scores);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_PageRank)->Arg(1 << 12)->Arg(1 << 15)
    ->Unit(benchmark::kMillisecond);

void BM_ClusteringCoefficients(benchmark::State& state) {
  graph::Graph g = MakeBaGraph(state.range(0));
  for (auto _ : state) {
    auto coefficients = analytics::LocalClusteringCoefficients(g, 1);
    benchmark::DoNotOptimize(coefficients);
  }
}
BENCHMARK(BM_ClusteringCoefficients)->Arg(1 << 12)->Arg(1 << 14)
    ->Unit(benchmark::kMillisecond);

void BM_GreedyBMatching(benchmark::State& state) {
  graph::Graph g = MakeBaGraph(state.range(0));
  auto capacities = core::Bm2::Capacities(g, 0.5);
  for (auto _ : state) {
    auto matched = core::GreedyMaximalBMatching(g, capacities);
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_GreedyBMatching)->Arg(1 << 13)->Arg(1 << 16);

void BM_Bm2EndToEnd(benchmark::State& state) {
  graph::Graph g = MakeBaGraph(state.range(0));
  core::Bm2 bm2;
  for (auto _ : state) {
    auto result = bm2.Shed(g, {.p = 0.5});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.NumEdges()));
}
BENCHMARK(BM_Bm2EndToEnd)->Arg(1 << 13)->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);

void BM_CrrRewiringOnly(benchmark::State& state) {
  graph::Graph g = MakeBaGraph(state.range(0));
  core::CrrOptions options;
  options.init_mode = core::CrrOptions::InitMode::kRandom;  // skip Brandes
  core::Crr crr(options);
  for (auto _ : state) {
    auto result = crr.Shed(g, {.p = 0.5});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_CrrRewiringOnly)->Arg(1 << 12)->Arg(1 << 14)
    ->Unit(benchmark::kMillisecond);

void BM_DiscrepancySwaps(benchmark::State& state) {
  graph::Graph g = MakeBaGraph(1 << 12);
  core::DegreeDiscrepancy d(g, 0.5);
  const auto& edges = g.edges();
  size_t i = 0;
  for (auto _ : state) {
    const graph::Edge& e = edges[i++ % edges.size()];
    d.AddEdge(e.u, e.v);
    d.RemoveEdge(e.u, e.v);
    benchmark::DoNotOptimize(d.TotalDelta());
  }
}
BENCHMARK(BM_DiscrepancySwaps);

void BM_Node2VecWalks(benchmark::State& state) {
  graph::Graph g = MakeBaGraph(state.range(0));
  embedding::WalkOptions options;
  options.walks_per_node = 2;
  options.walk_length = 20;
  options.threads = 1;
  for (auto _ : state) {
    auto corpus = embedding::GenerateWalks(g, options);
    benchmark::DoNotOptimize(corpus);
  }
}
BENCHMARK(BM_Node2VecWalks)->Arg(1 << 12)->Unit(benchmark::kMillisecond);

void BM_KMeans(benchmark::State& state) {
  Rng rng(3);
  const uint64_t rows = 4096;
  const uint32_t dim = 32;
  std::vector<float> data(rows * dim);
  for (float& v : data) v = static_cast<float>(rng.UniformDouble());
  embedding::KMeansOptions options;
  options.clusters = 5;
  for (auto _ : state) {
    auto result = embedding::KMeans(data, rows, dim, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_KMeans)->Unit(benchmark::kMillisecond);

// Observability substrate: the typed-handle path (resolve once, bump an
// atomic) versus the string-keyed shim (map lookup under the registry mutex
// per event). The gap is the reason hot loops hold Counter*/LatencySeries*.
void BM_MetricsCounterHandle(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("bench.events");
  for (auto _ : state) {
    counter->Increment();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterHandle)->ThreadRange(1, 8);

void BM_MetricsCounterStringKey(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (auto _ : state) {
    registry.IncrementCounter("bench.events");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterStringKey)->ThreadRange(1, 8);

void BM_MetricsLatencyHandle(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::LatencySeries* series = registry.GetLatency("bench.seconds");
  double v = 1e-6;
  for (auto _ : state) {
    series->Record(v);
    v += 1e-9;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsLatencyHandle)->ThreadRange(1, 8);

void BM_TracerSpan(benchmark::State& state) {
  static obs::Tracer tracer;
  for (auto _ : state) {
    obs::Span span = obs::Tracer::StartSpan(&tracer, "bench");
    span.End();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerSpan)->ThreadRange(1, 8);

void BM_TracerSpanDetached(benchmark::State& state) {
  // Null tracer: the cost the service layer pays when no exporter is
  // attached — should be a handful of instructions.
  for (auto _ : state) {
    obs::Span span = obs::Tracer::StartSpan(nullptr, "bench");
    span.End();
    benchmark::DoNotOptimize(span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerSpanDetached)->ThreadRange(1, 8);

void BM_DistanceProfileSampled(benchmark::State& state) {
  graph::Graph g = MakeBaGraph(state.range(0));
  analytics::DistanceProfileOptions options;
  options.exact_node_threshold = 1;
  options.sample_sources = 64;
  options.threads = 1;
  for (auto _ : state) {
    auto profile = analytics::DistanceProfile(g, options);
    benchmark::DoNotOptimize(profile);
  }
}
BENCHMARK(BM_DistanceProfileSampled)->Arg(1 << 14)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
