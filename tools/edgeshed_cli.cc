// edgeshed — command-line front end for the library.
//
// Commands:
//   edgeshed reduce  --input=G.txt --method=crr|bm2|random|local-degree|
//                    spanning-forest --p=0.5 [--output=R.txt] [--seed=42]
//                    [--binary_output=R.esg]
//   edgeshed analyze --input=G.txt [--tasks=degree,components,clustering,
//                    pagerank,distance] [--top=10]
//   edgeshed stats   --input=G.txt
//   edgeshed convert --input=G.any --binary_output=G.esg [--output=G.txt]
//                    [--page_align=4096] [--chunk_kb=1024]
//                    [--external --budget_mb=256 [--temp_dir=DIR]]
//   edgeshed generate --dataset=grqc|hepph|enron|livejournal --scale=1.0
//                    --output=G.txt [--seed=...]
//   edgeshed service --jobs=jobs.txt [--workers=N] [--queue=K]
//                    [--store_budget_mb=M] [--scale=1.0] [--deadline_ms=D]
//                    [--retention_jobs=N] [--retention_ms=T]
//                    [--result_cache_mb=M] [--stats_port=P] [--linger_ms=T]
//                    [--trace_out=trace.json]
//   edgeshed serve   [--port=P] [--max_connections=N] [--max_inflight=N]
//                    [--dispatch_threads=N] [--workers=N] [--queue=K]
//                    [--scale=S] [--store_budget_mb=M]
//                    [--edge_list=name=path[,name=path...]]
//                    [--tenants=name:weight[:quota],...] [--degrade]
//                    [--max_pending=N]
//                    [--stats_port=P] [--serve_ms=T] [--public]
//   edgeshed client  --op=ping|shed|wait|status|cancel|list|apply
//                    [--host=H] [--port=P] [--dataset=D] [--method=M]
//                    [--p=0.5] [--seed=N] [--deadline_ms=T] [--job_id=N]
//                    [--tenant=NAME] [--priority]
//                    [--mutations=M.txt] [--insert=u:v,...] [--delete=u:v,...]
//                    [--no_wait] [--timeout_ms=T] [--retries=N]
//   edgeshed mutate  --input=G.any --mutations=M.txt [--reshed] [--p=0.5]
//                    [--seed=42] [--dirty_hops=0] [--decay_half_life=0]
//                    [--compact_ratio=0.1] [--output=K.txt]
//                    [--binary_output=G2.esg]
//
// Every command that takes --input sniffs the file format (SNAP text edge
// list or "EDGSHED3" snapshot); --format pins it and --mmap=false forces
// snapshots to be copied onto the heap instead of served zero-copy from a
// file mapping (graph/source.h, DESIGN.md §14). `convert` re-encodes
// between the two; with --external it streams a text edge list into a
// snapshot under a fixed memory budget (graph/external_build.h). `service`
// runs a batch of shedding jobs concurrently through src/service/
// (GraphStore + JobScheduler) and prints the metrics snapshot; each
// jobs-file line reads
//   dataset method p [seed] [deadline_ms]
// with '#' comments. Without --jobs a built-in demo batch is used.
//
// Observability (src/obs/): --stats_port=P serves GET /metrics (Prometheus
// text), /tracez (chrome://tracing JSON of recent job traces), /statusz (the
// text dump), and /healthz on 127.0.0.1:P (0 = ephemeral port, printed on
// startup; negative = off). --linger_ms keeps the process (and the stats
// server) alive that long after the batch finishes so an external scraper
// can read the final state. --trace_out writes the trace-event JSON to a
// file at exit; tracing is enabled whenever --stats_port >= 0 or
// --trace_out is set.
//
// Remote shedding (src/net/): `serve` runs the binary RPC server (loopback
// by default; --public binds 0.0.0.0) in front of the same GraphStore +
// JobScheduler until SIGINT/SIGTERM (or --serve_ms elapses); `client` issues
// one RPC against a running server. A Shed submitted via `client` returns a
// result identical to the same job run in-process, because the wire layer
// dispatches onto the identical deterministic scheduler.
//
// Dynamic graphs (src/dyn/, DESIGN.md §15): `mutate` replays a mutation
// file (`+ u v` / `- u v` lines, `---` batch separators) against the input
// through a VersionedGraph and, with --reshed, runs one incremental
// re-shedding session across the batch sequence, printing one parseable
// `batch=K version=V kept=N ...` line per batch. `client --op=apply` sends
// one ApplyMutations RPC per batch to a running server — the dataset's
// store generation bumps exactly as if the graph were replaced, so a
// subsequent remote shed sees the mutated graph.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analytics/clustering.h"
#include "analytics/components.h"
#include "analytics/degree.h"
#include "analytics/pagerank.h"
#include "analytics/shortest_paths.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/shedder_factory.h"
#include "dyn/incremental_shed.h"
#include "dyn/versioned_graph.h"
#include "eval/flags.h"
#include "graph/binary_io.h"
#include "graph/datasets.h"
#include "graph/edge_list_io.h"
#include "graph/external_build.h"
#include "graph/mutation_io.h"
#include "graph/source.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/stats_server.h"
#include "obs/tracer.h"
#include "service/dataset_registry.h"
#include "service/graph_store.h"
#include "service/job_scheduler.h"

using namespace edgeshed;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: edgeshed <reduce|analyze|stats|convert|generate|service|"
               "serve|client|mutate> [flags]\n"
               "  reduce   --input=G.txt --method=crr --p=0.5 "
               "[--output=R.txt] [--binary_output=R.esg] [--seed=42]\n"
               "  analyze  --input=G.txt [--tasks=degree,components,"
               "clustering,pagerank,distance] [--top=10]\n"
               "  stats    --input=G.txt\n"
               "  convert  --input=G.any [--binary_output=G.esg] "
               "[--output=G.txt] [--page_align=4096] [--chunk_kb=1024] "
               "[--external --budget_mb=256 [--temp_dir=DIR]]\n"
               "  generate --dataset=grqc|hepph|enron|livejournal "
               "--scale=1.0 --output=G.txt [--seed=N]\n"
               "  service  [--jobs=jobs.txt] [--workers=N] [--queue=K] "
               "[--store_budget_mb=M] [--scale=1.0] [--deadline_ms=D] "
               "[--retention_jobs=N] [--retention_ms=T] "
               "[--result_cache_mb=M] [--rank_cache_mb=M] [--stats_port=P] "
               "[--linger_ms=T] [--trace_out=trace.json]\n"
               "  serve    [--port=0] [--max_connections=64] "
               "[--max_inflight=8] [--dispatch_threads=4] [--workers=N] "
               "[--queue=K] [--scale=1.0] [--store_budget_mb=M] "
               "[--edge_list=name=path,...] "
               "[--tenants=name:weight[:quota],...] [--degrade] "
               "[--max_pending=N] "
               "[--stats_port=P] [--serve_ms=T] [--public]\n"
               "  client   --op=ping|shed|wait|status|cancel|list|apply "
               "[--host=127.0.0.1] [--port=P] [--dataset=D] [--method=crr] "
               "[--p=0.5] [--seed=42] [--deadline_ms=T] [--job_id=N] "
               "[--tenant=NAME] [--priority] [--mutations=M.txt] "
               "[--insert=u:v,...] [--delete=u:v,...] "
               "[--no_wait] [--timeout_ms=T] [--retries=N]\n"
               "  mutate   --input=G.any --mutations=M.txt [--reshed] "
               "[--p=0.5] [--seed=42] [--dirty_hops=0] "
               "[--decay_half_life=0] [--compact_ratio=0.1] "
               "[--output=K.txt] [--binary_output=G2.esg]\n");
  return 2;
}

/// Shared ingest flags: --input takes any format (sniffed by default,
/// pinned by --format), --mmap=false forces copy loads of snapshots.
StatusOr<graph::LoadedGraph> LoadInput(const eval::Flags& flags) {
  graph::GraphSource source;
  source.path = flags.GetString("input", "");
  if (source.path.empty()) {
    return Status::InvalidArgument("--input is required");
  }
  const std::string format = flags.GetString("format", "");
  if (!format.empty()) {
    EDGESHED_ASSIGN_OR_RETURN(source.format, graph::ParseGraphFormat(format));
  }
  graph::IngestOptions options;
  options.mmap = flags.GetBool("mmap", true);
  options.threads = static_cast<int>(flags.GetInt("threads", 0));
  return graph::LoadGraph(source, options);
}

/// The snapshot layout CLI output flags select (`--page_align`,
/// `--chunk_kb`).
graph::SnapshotOptions SnapshotOptionsFromFlags(const eval::Flags& flags) {
  graph::SnapshotOptions options;
  options.page_align =
      static_cast<uint64_t>(flags.GetInt("page_align", 4096));
  options.chunk_bytes =
      static_cast<uint64_t>(flags.GetInt("chunk_kb", 1024)) * 1024;
  return options;
}

int CmdReduce(const eval::Flags& flags) {
  auto input = LoadInput(flags);
  if (!input.ok()) {
    std::cerr << input.status() << "\n";
    return 1;
  }
  const std::string method = flags.GetString("method", "crr");
  const double p = flags.GetDouble("p", 0.5);
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  auto shedder_or = core::MakeShedderByName(method, seed);
  if (!shedder_or.ok()) {
    std::cerr << shedder_or.status() << "\n";
    return Usage();
  }
  std::unique_ptr<core::EdgeShedder> shedder = std::move(shedder_or).value();
  auto result = shedder->Shed(input->graph, {.p = p});
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  graph::Graph reduced = result->BuildReducedGraph(input->graph);
  std::printf("%s: kept %s / %s edges in %.3fs (avg delta %.4f)\n",
              shedder->name().c_str(),
              FormatWithCommas(reduced.NumEdges()).c_str(),
              FormatWithCommas(input->graph.NumEdges()).c_str(),
              result->reduction_seconds, result->average_delta);
  const std::string output = flags.GetString("output", "");
  if (!output.empty()) {
    Status status = graph::SaveEdgeList(reduced, output);
    if (!status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
    std::printf("wrote %s\n", output.c_str());
  }
  const std::string binary_output = flags.GetString("binary_output", "");
  if (!binary_output.empty()) {
    Status status = graph::SaveBinaryGraph(reduced, binary_output,
                                           SnapshotOptionsFromFlags(flags));
    if (!status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
    std::printf("wrote %s\n", binary_output.c_str());
  }
  return 0;
}

int CmdStats(const eval::Flags& flags) {
  auto input = LoadInput(flags);
  if (!input.ok()) {
    std::cerr << input.status() << "\n";
    return 1;
  }
  const graph::Graph& g = input->graph;
  auto components = analytics::ConnectedComponents(g);
  std::printf("nodes:       %s\n", FormatWithCommas(g.NumNodes()).c_str());
  std::printf("edges:       %s\n", FormatWithCommas(g.NumEdges()).c_str());
  std::printf("avg degree:  %.3f\n", g.AverageDegree());
  std::printf("max degree:  %s\n",
              FormatWithCommas(analytics::MaxDegree(g)).c_str());
  std::printf("components:  %u (largest %s)\n", components.NumComponents(),
              components.NumComponents() == 0
                  ? "0"
                  : FormatWithCommas(
                        components.sizes[components.LargestComponent()])
                        .c_str());
  return 0;
}

int CmdAnalyze(const eval::Flags& flags) {
  auto input = LoadInput(flags);
  if (!input.ok()) {
    std::cerr << input.status() << "\n";
    return 1;
  }
  const graph::Graph& g = input->graph;
  const std::string tasks =
      flags.GetString("tasks", "degree,components,clustering,pagerank");
  Stopwatch watch;
  for (std::string_view task : StrSplit(tasks, ',')) {
    Stopwatch task_watch;
    if (task == "degree") {
      auto histogram = analytics::DegreeDistribution(g);
      std::printf("[degree] distinct degrees: %zu (%.3fs)\n",
                  histogram.Keys().size(), task_watch.ElapsedSeconds());
    } else if (task == "components") {
      auto components = analytics::ConnectedComponents(g);
      std::printf("[components] %u components (%.3fs)\n",
                  components.NumComponents(), task_watch.ElapsedSeconds());
    } else if (task == "clustering") {
      double cc = analytics::AverageClusteringCoefficient(g);
      std::printf("[clustering] average coefficient %.4f (%.3fs)\n", cc,
                  task_watch.ElapsedSeconds());
    } else if (task == "pagerank") {
      auto scores = analytics::PageRank(g);
      const auto top = static_cast<uint64_t>(flags.GetInt("top", 10));
      auto indices = analytics::TopKIndices(scores, top);
      std::printf("[pagerank] top-%llu:",
                  static_cast<unsigned long long>(top));
      for (uint32_t u : indices) std::printf(" %u", u);
      std::printf(" (%.3fs)\n", task_watch.ElapsedSeconds());
    } else if (task == "distance") {
      auto profile = analytics::DistanceProfile(g);
      std::printf("[distance] median hop fraction at k=3: %.4f (%.3fs)\n",
                  analytics::HopPlotFraction(profile, 3),
                  task_watch.ElapsedSeconds());
    } else {
      std::fprintf(stderr, "unknown task: %.*s\n",
                   static_cast<int>(task.size()), task.data());
      return Usage();
    }
  }
  std::printf("total %.3fs\n", watch.ElapsedSeconds());
  return 0;
}

int CmdConvert(const eval::Flags& flags) {
  const std::string binary_output = flags.GetString("binary_output", "");
  const std::string output = flags.GetString("output", "");
  if (binary_output.empty() && output.empty()) {
    std::cerr << "convert needs --binary_output or --output\n";
    return Usage();
  }

  // --external streams a text edge list straight into a v3 snapshot with
  // bounded memory — the path for inputs too large to materialize.
  if (flags.GetBool("external", false)) {
    if (binary_output.empty() || !output.empty()) {
      std::cerr << "--external converts to --binary_output only\n";
      return Usage();
    }
    graph::ExternalBuildOptions options;
    options.memory_budget_bytes =
        static_cast<uint64_t>(flags.GetInt("budget_mb", 256)) << 20;
    options.temp_dir = flags.GetString("temp_dir", "");
    options.snapshot = SnapshotOptionsFromFlags(flags);
    options.threads = static_cast<int>(flags.GetInt("threads", 0));
    Stopwatch watch;
    auto stats = graph::BuildSnapshotExternal(
        flags.GetString("input", ""), binary_output, options);
    if (!stats.ok()) {
      std::cerr << stats.status() << "\n";
      return 1;
    }
    std::printf(
        "wrote %s in %.3fs: %s nodes, %s edges (%s input pairs), "
        "%llu+%llu spill runs, %.1f MiB spilled, %.1f MiB peak buffers\n",
        binary_output.c_str(), watch.ElapsedSeconds(),
        FormatWithCommas(stats->num_nodes).c_str(),
        FormatWithCommas(stats->num_edges).c_str(),
        FormatWithCommas(stats->input_edges).c_str(),
        static_cast<unsigned long long>(stats->edge_runs),
        static_cast<unsigned long long>(stats->reverse_runs),
        static_cast<double>(stats->spilled_bytes) / (1 << 20),
        static_cast<double>(stats->peak_buffer_bytes) / (1 << 20));
    return 0;
  }

  auto input = LoadInput(flags);
  if (!input.ok()) {
    std::cerr << input.status() << "\n";
    return 1;
  }
  if (!binary_output.empty()) {
    graph::SnapshotOptions options = SnapshotOptionsFromFlags(flags);
    options.original_ids = input->original_ids;
    Status status =
        graph::SaveBinaryGraph(input->graph, binary_output, options);
    if (!status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
    std::printf("wrote %s\n", binary_output.c_str());
  }
  if (!output.empty()) {
    Status status = graph::SaveEdgeList(input->graph, output);
    if (!status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
    std::printf("wrote %s\n", output.c_str());
  }
  return 0;
}

int CmdGenerate(const eval::Flags& flags) {
  const std::string name = flags.GetString("dataset", "grqc");
  graph::DatasetId id;
  if (name == "grqc") {
    id = graph::DatasetId::kCaGrQc;
  } else if (name == "hepph") {
    id = graph::DatasetId::kCaHepPh;
  } else if (name == "enron") {
    id = graph::DatasetId::kEmailEnron;
  } else if (name == "livejournal") {
    id = graph::DatasetId::kComLiveJournal;
  } else {
    std::cerr << "unknown dataset: " << name << "\n";
    return Usage();
  }
  graph::DatasetOptions options;
  options.scale = flags.GetDouble("scale", 1.0);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 20210419));
  graph::Graph g = graph::MakeDataset(id, options);
  std::printf("generated %s surrogate: %s nodes, %s edges\n",
              graph::GetDatasetSpec(id).name.c_str(),
              FormatWithCommas(g.NumNodes()).c_str(),
              FormatWithCommas(g.NumEdges()).c_str());
  const std::string output = flags.GetString("output", "");
  if (!output.empty()) {
    Status status = graph::SaveEdgeList(g, output);
    if (!status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
    std::printf("wrote %s\n", output.c_str());
  }
  return 0;
}

/// Parses one jobs-file line: "dataset method p [seed] [deadline_ms]".
/// Blank lines and '#' comments yield an empty dataset (caller skips them).
StatusOr<service::JobSpec> ParseJobLine(const std::string& line) {
  service::JobSpec spec;
  const std::string_view stripped = StripWhitespace(line);
  if (stripped.empty() || stripped.front() == '#') {
    spec.dataset.clear();
    return spec;
  }
  std::istringstream in{std::string(stripped)};
  double p = 0.0;
  if (!(in >> spec.dataset >> spec.method >> p)) {
    return Status::InvalidArgument(
        StrFormat("bad job line (want 'dataset method p [seed] "
                  "[deadline_ms]'): %s", line.c_str()));
  }
  spec.p = p;
  uint64_t seed = 42;
  if (in >> seed) spec.seed = seed;
  int64_t deadline_ms = 0;
  if (in >> deadline_ms) spec.deadline = std::chrono::milliseconds(deadline_ms);
  return spec;
}

int CmdService(const eval::Flags& flags) {
  obs::MetricsRegistry metrics;

  // Observability: tracing is on whenever anything can consume it (a stats
  // server to query /tracez, or a --trace_out dump); otherwise the tracer
  // stays null and every span hook in the service layer is a no-op.
  const int64_t stats_port = flags.GetInt("stats_port", -1);
  const std::string trace_out = flags.GetString("trace_out", "");
  std::unique_ptr<obs::Tracer> tracer;
  if (stats_port >= 0 || !trace_out.empty()) {
    tracer = std::make_unique<obs::Tracer>();
  }

  service::GraphStore::Options store_options;
  store_options.byte_budget =
      static_cast<uint64_t>(flags.GetInt("store_budget_mb", 256)) << 20;
  service::GraphStore store(store_options, &metrics, tracer.get());

  graph::DatasetOptions dataset_options;
  dataset_options.scale = flags.GetDouble("scale", 1.0);
  dataset_options.seed =
      static_cast<uint64_t>(flags.GetInt("dataset_seed", 20210419));
  Status registered = service::RegisterSurrogateDatasets(store,
                                                         dataset_options);
  if (!registered.ok()) {
    std::cerr << registered << "\n";
    return 1;
  }

  std::vector<service::JobSpec> specs;
  const std::string jobs_path = flags.GetString("jobs", "");
  if (!jobs_path.empty()) {
    std::ifstream in(jobs_path);
    if (!in) {
      std::cerr << "cannot open jobs file: " << jobs_path << "\n";
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      auto spec = ParseJobLine(line);
      if (!spec.ok()) {
        std::cerr << spec.status() << "\n";
        return 1;
      }
      if (!spec->dataset.empty()) specs.push_back(std::move(spec).value());
    }
  } else {
    // Demo batch: a method x p sweep on the smallest dataset, each spec
    // submitted twice to exercise the result cache.
    for (const char* method : {"crr", "bm2", "random"}) {
      for (double p : {0.3, 0.5, 0.7}) {
        service::JobSpec spec;
        spec.dataset = "grqc";
        spec.method = method;
        spec.p = p;
        specs.push_back(spec);
        specs.push_back(spec);
      }
    }
  }
  if (specs.empty()) {
    std::cerr << "no jobs to run\n";
    return 1;
  }

  // --deadline_ms applies to every spec that did not set its own deadline
  // in the jobs file; 0 leaves those specs deadline-free.
  const int64_t default_deadline_ms = flags.GetInt("deadline_ms", 0);
  if (default_deadline_ms > 0) {
    for (service::JobSpec& spec : specs) {
      if (spec.deadline.count() == 0) {
        spec.deadline = std::chrono::milliseconds(default_deadline_ms);
      }
    }
  }

  service::JobScheduler::Options scheduler_options;
  scheduler_options.workers = static_cast<int>(flags.GetInt("workers", 0));
  scheduler_options.queue_capacity =
      static_cast<size_t>(flags.GetInt("queue", 1024));
  // Never below the batch size: this driver submits everything up front and
  // collects results afterwards, so a smaller retention would GC records
  // before their Wait and report phantom failures.
  scheduler_options.max_retained_jobs = std::max(
      specs.size(), static_cast<size_t>(flags.GetInt("retention_jobs", 1024)));
  scheduler_options.job_retention =
      std::chrono::milliseconds(flags.GetInt("retention_ms", 600000));
  scheduler_options.result_cache_byte_budget =
      static_cast<uint64_t>(flags.GetInt("result_cache_mb", 64)) << 20;
  scheduler_options.rank_cache_byte_budget =
      static_cast<uint64_t>(flags.GetInt("rank_cache_mb", 128)) << 20;
  scheduler_options.enable_rank_cache =
      scheduler_options.rank_cache_byte_budget > 0;
  service::JobScheduler scheduler(&store, &metrics, scheduler_options,
                                  tracer.get());

  std::unique_ptr<obs::StatsServer> stats_server;
  if (stats_port >= 0) {
    obs::StatsServerOptions server_options;
    server_options.port = static_cast<int>(stats_port);
    stats_server = std::make_unique<obs::StatsServer>(server_options);
    stats_server->Handle("/metrics", [&metrics] {
      return obs::HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                               obs::PrometheusText(metrics)};
    });
    stats_server->Handle("/tracez", [&tracer] {
      return obs::HttpResponse{200, "application/json; charset=utf-8",
                               tracer->TraceEventJson()};
    });
    stats_server->Handle("/statusz", [&metrics] {
      return obs::HttpResponse{200, "text/plain; charset=utf-8",
                               metrics.TextSnapshot()};
    });
    Status started = stats_server->Start();
    if (!started.ok()) {
      std::cerr << started << "\n";
      return 1;
    }
    std::printf("stats server on http://127.0.0.1:%d "
                "(/metrics /tracez /statusz /healthz)\n",
                stats_server->port());
  }

  Stopwatch watch;
  std::vector<std::pair<service::JobId, const service::JobSpec*>> submitted;
  submitted.reserve(specs.size());
  int failures = 0;
  int rejected = 0;
  for (const service::JobSpec& spec : specs) {
    auto id = scheduler.Submit(spec);
    if (!id.ok()) {
      std::cerr << "submit failed (" << spec.dataset << " " << spec.method
                << " p=" << spec.p << "): " << id.status() << "\n";
      ++rejected;
      continue;
    }
    submitted.emplace_back(*id, &spec);
  }

  for (const auto& [id, spec] : submitted) {
    auto result = scheduler.Wait(id);
    auto status = scheduler.GetStatus(id);
    if (result.ok()) {
      std::printf("job %3llu %-12s %-15s p=%.2f kept=%8s%s\n",
                  static_cast<unsigned long long>(id),
                  spec->dataset.c_str(), spec->method.c_str(), spec->p,
                  FormatWithCommas((*result)->kept_edges.size()).c_str(),
                  status.ok() && status->deduplicated ? "  (cached)" : "");
    } else {
      ++failures;
      std::printf("job %3llu %-12s %-15s p=%.2f %s\n",
                  static_cast<unsigned long long>(id),
                  spec->dataset.c_str(), spec->method.c_str(), spec->p,
                  result.status().ToString().c_str());
    }
  }
  scheduler.Shutdown();
  std::printf("\n%zu jobs on %d workers in %.3fs (%d failed, %d rejected)\n\n",
              submitted.size(), scheduler.workers(), watch.ElapsedSeconds(),
              failures, rejected);
  std::fputs(metrics.TextSnapshot().c_str(), stdout);

  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::cerr << "cannot write trace file: " << trace_out << "\n";
      return 1;
    }
    out << tracer->TraceEventJson();
    std::printf("wrote %s (load at chrome://tracing)\n", trace_out.c_str());
  }

  // Keep the stats endpoints queryable after the batch so external scrapers
  // (CI smoke, a curl-ing operator) can read the final counters and traces.
  const int64_t linger_ms = flags.GetInt("linger_ms", 0);
  if (linger_ms > 0 && stats_server != nullptr) {
    std::printf("lingering %lld ms for stats scrapes...\n",
                static_cast<long long>(linger_ms));
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }
  if (stats_server != nullptr) stats_server->Stop();
  return failures == 0 && rejected == 0 ? 0 : 1;
}

std::atomic<bool> g_signal_stop{false};

void HandleStopSignal(int) { g_signal_stop.store(true); }

/// Registers --edge_list=name=path[,name=path...] entries in `store`.
Status RegisterEdgeListFlag(service::GraphStore& store,
                            const std::string& edge_lists) {
  for (std::string_view entry : StrSplit(edge_lists, ',')) {
    entry = StripWhitespace(entry);
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == entry.size()) {
      return Status::InvalidArgument(
          StrFormat("bad --edge_list entry (want name=path): %.*s",
                    static_cast<int>(entry.size()), entry.data()));
    }
    EDGESHED_RETURN_IF_ERROR(service::RegisterEdgeListDataset(
        store, std::string(entry.substr(0, eq)),
        std::string(entry.substr(eq + 1))));
  }
  return Status::OK();
}

/// Parses --tenants=name:weight[:quota],... into scheduler tenant configs.
Status ParseTenantsFlag(const std::string& tenants,
                        std::map<std::string, service::TenantConfig>* out) {
  for (std::string_view entry : StrSplit(tenants, ',')) {
    entry = StripWhitespace(entry);
    if (entry.empty()) continue;
    std::vector<std::string_view> parts;
    for (std::string_view part : StrSplit(entry, ':')) parts.push_back(part);
    if (parts.size() < 2 || parts.size() > 3 || parts[0].empty()) {
      return Status::InvalidArgument(
          StrFormat("bad --tenants entry (want name:weight[:quota]): %.*s",
                    static_cast<int>(entry.size()), entry.data()));
    }
    service::TenantConfig config;
    const long weight = std::atol(std::string(parts[1]).c_str());
    if (weight < 1) {
      return Status::InvalidArgument(
          StrFormat("--tenants weight for '%.*s' must be >= 1",
                    static_cast<int>(parts[0].size()), parts[0].data()));
    }
    config.weight = static_cast<uint32_t>(weight);
    if (parts.size() == 3) {
      const long quota = std::atol(std::string(parts[2]).c_str());
      if (quota < 0) {
        return Status::InvalidArgument(
            StrFormat("--tenants quota for '%.*s' must be >= 0",
                      static_cast<int>(parts[0].size()), parts[0].data()));
      }
      config.max_running = static_cast<size_t>(quota);
    }
    (*out)[std::string(parts[0])] = config;
  }
  return Status::OK();
}

int CmdServe(const eval::Flags& flags) {
  obs::MetricsRegistry metrics;
  const int64_t stats_port = flags.GetInt("stats_port", -1);
  std::unique_ptr<obs::Tracer> tracer;
  if (stats_port >= 0) tracer = std::make_unique<obs::Tracer>();

  service::GraphStore::Options store_options;
  store_options.byte_budget =
      static_cast<uint64_t>(flags.GetInt("store_budget_mb", 256)) << 20;
  service::GraphStore store(store_options, &metrics, tracer.get());

  graph::DatasetOptions dataset_options;
  dataset_options.scale = flags.GetDouble("scale", 1.0);
  dataset_options.seed =
      static_cast<uint64_t>(flags.GetInt("dataset_seed", 20210419));
  if (Status registered =
          service::RegisterSurrogateDatasets(store, dataset_options);
      !registered.ok()) {
    std::cerr << registered << "\n";
    return 1;
  }
  if (Status registered =
          RegisterEdgeListFlag(store, flags.GetString("edge_list", ""));
      !registered.ok()) {
    std::cerr << registered << "\n";
    return 1;
  }
  service::JobScheduler::Options scheduler_options;
  scheduler_options.workers = static_cast<int>(flags.GetInt("workers", 0));
  scheduler_options.queue_capacity =
      static_cast<size_t>(flags.GetInt("queue", 1024));
  scheduler_options.rank_cache_byte_budget =
      static_cast<uint64_t>(flags.GetInt("rank_cache_mb", 128)) << 20;
  scheduler_options.enable_rank_cache =
      scheduler_options.rank_cache_byte_budget > 0;
  if (Status parsed = ParseTenantsFlag(flags.GetString("tenants", ""),
                                       &scheduler_options.tenants);
      !parsed.ok()) {
    std::cerr << parsed << "\n";
    return 1;
  }
  const bool degrade = flags.GetBool("degrade", false);
  scheduler_options.degrade.enabled = degrade;
  service::JobScheduler scheduler(&store, &metrics, scheduler_options,
                                  tracer.get());

  net::RpcServerOptions server_options;
  server_options.port = static_cast<int>(flags.GetInt("port", 0));
  server_options.loopback_only = !flags.GetBool("public", false);
  server_options.max_connections =
      static_cast<size_t>(flags.GetInt("max_connections", 64));
  server_options.max_inflight =
      static_cast<size_t>(flags.GetInt("max_inflight", 8));
  server_options.dispatch_threads =
      static_cast<int>(flags.GetInt("dispatch_threads", 4));
  server_options.idle_timeout =
      std::chrono::milliseconds(flags.GetInt("idle_timeout_ms", 60000));
  server_options.degrade_enabled = degrade;
  server_options.max_pending =
      static_cast<size_t>(flags.GetInt("max_pending", 0));
  net::RpcServer server(&store, &scheduler, &metrics, server_options,
                        tracer.get());
  if (Status started = server.Start(); !started.ok()) {
    std::cerr << started << "\n";
    return 1;
  }
  std::printf("rpc server on %s:%d (max_connections=%zu max_inflight=%zu)\n",
              server_options.loopback_only ? "127.0.0.1" : "0.0.0.0",
              server.port(), server_options.max_connections,
              server_options.max_inflight);

  std::unique_ptr<obs::StatsServer> stats_server;
  if (stats_port >= 0) {
    obs::StatsServerOptions http_options;
    http_options.port = static_cast<int>(stats_port);
    stats_server = std::make_unique<obs::StatsServer>(http_options);
    stats_server->Handle("/metrics", [&metrics] {
      return obs::HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                               obs::PrometheusText(metrics)};
    });
    stats_server->Handle("/tracez", [&tracer] {
      return obs::HttpResponse{200, "application/json; charset=utf-8",
                               tracer->TraceEventJson()};
    });
    stats_server->Handle("/statusz", [&metrics] {
      return obs::HttpResponse{200, "text/plain; charset=utf-8",
                               metrics.TextSnapshot()};
    });
    if (Status started = stats_server->Start(); !started.ok()) {
      std::cerr << started << "\n";
      return 1;
    }
    std::printf("stats server on http://127.0.0.1:%d "
                "(/metrics /tracez /statusz /healthz)\n",
                stats_server->port());
  }
  std::fflush(stdout);

  // Serve until a stop signal (or --serve_ms for bounded runs in scripts).
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  const int64_t serve_ms = flags.GetInt("serve_ms", 0);
  const auto started_at = std::chrono::steady_clock::now();
  while (!g_signal_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (serve_ms > 0 && std::chrono::steady_clock::now() - started_at >=
                            std::chrono::milliseconds(serve_ms)) {
      break;
    }
  }

  std::printf("draining...\n");
  server.Stop();
  scheduler.Shutdown();
  if (stats_server != nullptr) stats_server->Stop();
  std::fputs(metrics.TextSnapshot().c_str(), stdout);
  return 0;
}

/// Parses --insert / --delete flag values: "u:v,u:v,...". Whitespace around
/// entries is tolerated; validation beyond u32 syntax (self-loops,
/// duplicates, liveness) is the server's job so errors name one authority.
Status ParseEdgePairsFlag(const std::string& value, const char* flag,
                          std::vector<std::pair<uint32_t, uint32_t>>* out) {
  for (std::string_view entry : StrSplit(value, ',')) {
    entry = StripWhitespace(entry);
    if (entry.empty()) continue;
    const size_t colon = entry.find(':');
    unsigned long long u = 0;
    unsigned long long v = 0;
    char trailing = '\0';
    if (colon == std::string_view::npos ||
        std::sscanf(std::string(entry).c_str(), "%llu:%llu%c", &u, &v,
                    &trailing) != 2 ||
        u > UINT32_MAX || v > UINT32_MAX) {
      return Status::InvalidArgument(
          StrFormat("bad --%s entry (want u:v with u32 ids): %.*s", flag,
                    static_cast<int>(entry.size()), entry.data()));
    }
    out->emplace_back(static_cast<uint32_t>(u), static_cast<uint32_t>(v));
  }
  return Status::OK();
}

int CmdClient(const eval::Flags& flags) {
  net::RpcClientOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  options.port = static_cast<int>(flags.GetInt("port", 0));
  if (options.port <= 0) {
    std::cerr << "--port is required\n";
    return Usage();
  }
  options.recv_timeout =
      std::chrono::milliseconds(flags.GetInt("timeout_ms", 600000));
  options.max_attempts = static_cast<int>(flags.GetInt("retries", 3)) + 1;
  net::RpcClient client(options);

  const std::string op = flags.GetString("op", "shed");
  if (op == "ping") {
    auto echoed = client.Ping(20210419);
    if (!echoed.ok()) {
      std::cerr << echoed.status() << "\n";
      return 1;
    }
    std::printf("pong token=%llu\n",
                static_cast<unsigned long long>(*echoed));
    return 0;
  }
  if (op == "list") {
    auto names = client.ListDatasets();
    if (!names.ok()) {
      std::cerr << names.status() << "\n";
      return 1;
    }
    for (const std::string& name : *names) std::printf("%s\n", name.c_str());
    return 0;
  }
  if (op == "shed") {
    net::ShedRequest request;
    request.dataset = flags.GetString("dataset", "grqc");
    request.method = flags.GetString("method", "crr");
    request.p = flags.GetDouble("p", 0.5);
    request.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    request.deadline_ms =
        static_cast<uint64_t>(flags.GetInt("deadline_ms", 0));
    request.wait = !flags.GetBool("no_wait", false);
    request.tenant = flags.GetString("tenant", "");
    request.priority = flags.GetBool("priority", false) ? 1 : 0;
    auto response = client.Shed(request);
    if (!response.ok()) {
      std::cerr << response.status() << "\n";
      return 1;
    }
    if (!response->has_result) {
      std::printf("submitted job=%llu\n",
                  static_cast<unsigned long long>(response->job_id));
      return 0;
    }
    const net::ResultSummary& r = response->result;
    std::string degraded;
    if (r.degrade_kind != 0) {
      degraded = StrFormat(" (degraded: method=%s p=%.2f)",
                           r.applied_method.c_str(), r.applied_p);
    }
    std::printf("job=%llu kept=%llu total_delta=%.6f avg_delta=%.6f "
                "reduction=%.3fs%s%s\n",
                static_cast<unsigned long long>(response->job_id),
                static_cast<unsigned long long>(r.kept_edges),
                r.total_delta, r.average_delta, r.reduction_seconds,
                r.deduplicated ? " (cached)" : "", degraded.c_str());
    return 0;
  }

  if (op == "apply") {
    // One ApplyMutationsRequest per batch: a mutation file's `---`
    // separators keep their batch-atomicity over the wire, and inline
    // --insert/--delete flags form one extra batch.
    const std::string dataset = flags.GetString("dataset", "grqc");
    std::vector<net::ApplyMutationsRequest> requests;
    const std::string mutations_path = flags.GetString("mutations", "");
    if (!mutations_path.empty()) {
      auto batches = graph::ParseMutationFile(mutations_path);
      if (!batches.ok()) {
        std::cerr << batches.status() << "\n";
        return 1;
      }
      for (const graph::MutationBatch& batch : *batches) {
        net::ApplyMutationsRequest request;
        request.dataset = dataset;
        for (const graph::Edge& e : batch.inserts) {
          request.inserts.emplace_back(e.u, e.v);
        }
        for (const graph::Edge& e : batch.deletes) {
          request.deletes.emplace_back(e.u, e.v);
        }
        requests.push_back(std::move(request));
      }
    }
    net::ApplyMutationsRequest inline_request;
    inline_request.dataset = dataset;
    if (Status parsed = ParseEdgePairsFlag(flags.GetString("insert", ""),
                                           "insert", &inline_request.inserts);
        !parsed.ok()) {
      std::cerr << parsed << "\n";
      return Usage();
    }
    if (Status parsed = ParseEdgePairsFlag(flags.GetString("delete", ""),
                                           "delete", &inline_request.deletes);
        !parsed.ok()) {
      std::cerr << parsed << "\n";
      return Usage();
    }
    if (!inline_request.inserts.empty() || !inline_request.deletes.empty()) {
      requests.push_back(std::move(inline_request));
    }
    if (requests.empty()) {
      std::cerr << "--op=apply needs --mutations and/or --insert/--delete\n";
      return Usage();
    }
    for (size_t i = 0; i < requests.size(); ++i) {
      auto response = client.ApplyMutations(requests[i]);
      if (!response.ok()) {
        std::cerr << "batch " << i + 1 << ": " << response.status() << "\n";
        return 1;
      }
      std::printf("applied batch=%zu version=%llu live=%llu "
                  "overlay=+%llu/-%llu compacting=%u\n",
                  i + 1,
                  static_cast<unsigned long long>(response->version),
                  static_cast<unsigned long long>(response->live_edges),
                  static_cast<unsigned long long>(response->overlay_inserted),
                  static_cast<unsigned long long>(response->overlay_deleted),
                  response->compacting);
    }
    return 0;
  }

  const auto job_id = static_cast<uint64_t>(flags.GetInt("job_id", 0));
  if (op == "wait") {
    auto summary = client.Wait(job_id);
    if (!summary.ok()) {
      std::cerr << summary.status() << "\n";
      return 1;
    }
    std::printf("job=%llu kept=%llu total_delta=%.6f avg_delta=%.6f "
                "reduction=%.3fs%s\n",
                static_cast<unsigned long long>(job_id),
                static_cast<unsigned long long>(summary->kept_edges),
                summary->total_delta, summary->average_delta,
                summary->reduction_seconds,
                summary->deduplicated ? " (cached)" : "");
    return 0;
  }
  if (op == "status") {
    auto status = client.GetJobStatus(job_id);
    if (!status.ok()) {
      std::cerr << status.status() << "\n";
      return 1;
    }
    auto code = net::StatusCodeFromWireCode(status->code);
    std::printf("job=%llu state=%.*s status=%.*s%s%s queue=%.3fs run=%.3fs\n",
                static_cast<unsigned long long>(job_id),
                static_cast<int>(
                    service::JobStateToString(
                        static_cast<service::JobState>(status->state))
                        .size()),
                service::JobStateToString(
                    static_cast<service::JobState>(status->state))
                    .data(),
                static_cast<int>(
                    StatusCodeToString(code.ok() ? *code : StatusCode::kOk)
                        .size()),
                StatusCodeToString(code.ok() ? *code : StatusCode::kOk)
                    .data(),
                status->message.empty() ? "" : ": ",
                status->message.c_str(), status->queue_seconds,
                status->run_seconds);
    return 0;
  }
  if (op == "cancel") {
    if (Status cancelled = client.Cancel(job_id); !cancelled.ok()) {
      std::cerr << cancelled << "\n";
      return 1;
    }
    std::printf("cancelled job=%llu\n",
                static_cast<unsigned long long>(job_id));
    return 0;
  }
  std::cerr << "unknown --op: " << op << "\n";
  return Usage();
}

int CmdMutate(const eval::Flags& flags) {
  auto input = LoadInput(flags);
  if (!input.ok()) {
    std::cerr << input.status() << "\n";
    return 1;
  }
  const std::string mutations_path = flags.GetString("mutations", "");
  if (mutations_path.empty()) {
    std::cerr << "--mutations is required\n";
    return Usage();
  }
  auto batches = graph::ParseMutationFile(mutations_path);
  if (!batches.ok()) {
    std::cerr << batches.status() << "\n";
    return 1;
  }

  dyn::VersionedGraph::Options graph_options;
  graph_options.compact_ratio = flags.GetDouble("compact_ratio", 0.10);
  graph_options.auto_compact = flags.GetBool("auto_compact", true);
  auto versioned = std::make_shared<dyn::VersionedGraph>(
      std::move(input->graph), graph_options);

  std::unique_ptr<dyn::ShedSession> session;
  if (flags.GetBool("reshed", false)) {
    dyn::DynamicShedOptions shed_options;
    shed_options.p = flags.GetDouble("p", 0.5);
    shed_options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    shed_options.dirty_hops =
        static_cast<uint32_t>(flags.GetInt("dirty_hops", 0));
    shed_options.decay_half_life = flags.GetDouble("decay_half_life", 0.0);
    shed_options.threads = static_cast<int>(flags.GetInt("threads", 0));
    session = std::make_unique<dyn::ShedSession>(versioned, shed_options);
  }

  // One parseable line per re-shed; `kept=` is what CI smoke compares
  // against the remote path.
  std::vector<graph::Edge> kept;
  auto reshed_once = [&](size_t batch_index) -> int {
    auto result = session->Reshed();
    if (!result.ok()) {
      std::cerr << result.status() << "\n";
      return 1;
    }
    std::printf("batch=%zu version=%llu kept=%zu full_rank=%d dirty=%llu "
                "avg_delta=%.6f reshed=%.3fs\n",
                batch_index,
                static_cast<unsigned long long>(result->version),
                result->kept.size(), result->full_rank ? 1 : 0,
                static_cast<unsigned long long>(result->dirty_vertices),
                result->average_delta, result->seconds);
    kept = std::move(result->kept);
    return 0;
  };
  if (session != nullptr && reshed_once(0) != 0) return 1;

  for (size_t i = 0; i < batches->size(); ++i) {
    auto version = versioned->ApplyBatch(std::move((*batches)[i]));
    if (!version.ok()) {
      std::cerr << "batch " << i + 1 << ": " << version.status() << "\n";
      return 1;
    }
    auto snap = versioned->Snapshot();
    std::printf("applied batch=%zu version=%llu live=%s overlay=+%zu/-%zu "
                "ratio=%.4f\n",
                i + 1, static_cast<unsigned long long>(*version),
                FormatWithCommas(snap->NumEdges()).c_str(),
                snap->inserted().size(), snap->deleted_ids().size(),
                snap->DeltaRatio());
    if (session != nullptr && reshed_once(i + 1) != 0) return 1;
  }
  versioned->WaitForCompaction();
  auto snap = versioned->Snapshot();
  std::printf("final version=%llu live=%s overlay=+%zu/-%zu\n",
              static_cast<unsigned long long>(versioned->CurrentVersion()),
              FormatWithCommas(snap->NumEdges()).c_str(),
              snap->inserted().size(), snap->deleted_ids().size());

  const std::string output = flags.GetString("output", "");
  if (!output.empty()) {
    if (session == nullptr) {
      std::cerr << "--output writes the kept edge list; it needs --reshed\n";
      return Usage();
    }
    auto reduced = graph::Graph::FromEdges(
        static_cast<graph::NodeId>(snap->NumNodes()), kept);
    if (!reduced.ok()) {
      std::cerr << reduced.status() << "\n";
      return 1;
    }
    if (Status saved = graph::SaveEdgeList(*reduced, output); !saved.ok()) {
      std::cerr << saved << "\n";
      return 1;
    }
    std::printf("wrote %s\n", output.c_str());
  }
  const std::string binary_output = flags.GetString("binary_output", "");
  if (!binary_output.empty()) {
    auto materialized = snap->Materialize();
    if (!materialized.ok()) {
      std::cerr << materialized.status() << "\n";
      return 1;
    }
    if (Status saved = graph::SaveBinaryGraph(*materialized, binary_output,
                                              SnapshotOptionsFromFlags(flags));
        !saved.ok()) {
      std::cerr << saved << "\n";
      return 1;
    }
    std::printf("wrote %s\n", binary_output.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  eval::Flags flags(argc, argv);
  if (flags.positional().empty()) return Usage();
  const std::string& command = flags.positional()[0];
  if (command == "reduce") return CmdReduce(flags);
  if (command == "analyze") return CmdAnalyze(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "convert") return CmdConvert(flags);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "service") return CmdService(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "client") return CmdClient(flags);
  if (command == "mutate") return CmdMutate(flags);
  return Usage();
}
