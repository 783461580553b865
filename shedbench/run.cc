// Set-up, the closed request loop with its output checks, the raw
// end-to-end samples, and the traced per-layer run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>
#include <utility>

#include "analytics/betweenness.h"
#include "bench.h"
#include "common/strings.h"
#include "core/bounds.h"
#include "core/crr.h"
#include "core/shedding.h"
#include "dyn/incremental_shed.h"
#include "dyn/versioned_graph.h"
#include "graph/binary_io.h"
#include "graph/source.h"
#include "net/wire.h"

namespace shedbench {
namespace {

namespace core = edgeshed::core;
namespace analytics = edgeshed::analytics;
namespace dyn = edgeshed::dyn;

/// Kept snapshots are reloaded and checked on every op whose index is a
/// multiple of this; reference sheds are re-run for every kRefEvery-th op,
/// at most kMaxRefs of them.
constexpr uint64_t kSnapshotEvery = 4;
constexpr uint64_t kRefEvery = 25;
constexpr size_t kMaxRefs = 5;
/// Mutation batch size as a share of |E| (rounded to an even count, so the
/// live edge count stays |E|).
constexpr double kBatchShare = 0.01;
/// No run may outlive this, whatever --seconds and min_ops ask for.
constexpr double kHardLimitSeconds = 150.0;

struct OpSample {
  uint64_t index = 0;
  uint64_t seed = 0;
  bool traced = false;
  bool ok = true;
  std::string error;
  double latency = 0.0;        // whole op as the client sees it
  double apply_latency = 0.0;  // mutate: ApplyMutations round trip
  double shed_latency = 0.0;   // the Shed round trip
  net::ResultSummary summary;
  net::ApplyMutationsResponse apply;
  size_t request_bytes = 0;
  size_t reply_bytes = 0;
  size_t mutation_bytes = 0;
  double queue_s = 0.0;  // traced ops: GetStatus
  double run_s = 0.0;
  uint64_t kept_file_bytes = 0;
  double heap_mb = 0.0;  // heap in use right after the op
};

struct Reference {
  size_t op;  // index into the samples
  uint64_t seed;
};

uint64_t EvenBatchSize(const graph::Graph& g) {
  const auto count =
      static_cast<uint64_t>(std::llround(kBatchShare * g.NumEdges()));
  return std::max<uint64_t>(2, count & ~uint64_t{1});
}

/// The thread counts every sweep runs at, with their metric suffixes.
std::vector<std::pair<int, std::string>> ThreadSweep() {
  const int all =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return {{1, "t1"}, {2, "t2"}, {all, "tall"}};
}

/// Everything one process measures: the fixture, the live edge mirror and
/// the loop state.
class Bench {
 public:
  Bench(const Workload& workload, const Args& args)
      : workload_(workload), args_(args), spans_(args.trace) {}

  /// Times each set-up rep into `segment->setup_s` and `setup_stolen`.
  Status SetUp(Segment* segment);
  /// One op: untimed preparation, the timed request(s), then the checks.
  /// Adds the thread CPU the benchmark itself spent to `bench_cpu`.
  OpSample RunOp(uint64_t i, bool traced, double* bench_cpu);
  /// Re-runs the sampled requests in-process and fails ops that differ.
  void CheckReferences(std::vector<OpSample>* samples);
  /// Fills the latencies, Δ samples and peak heap of `out`.
  void EndToEnd(const std::vector<OpSample>& samples, Segment* out);
  void PerLayer(const std::vector<OpSample>& samples, Report* report);

  /// Snapshot the scheduler counters that PerLayer reports as deltas over
  /// the measured loop, so set-up warm-ups are left out.
  void BeginLoop() { SnapshotCounters(&loop_start_); }
  void EndLoop() { SnapshotCounters(&loop_end_); }
  SpanLog& spans() { return spans_; }
  obs::Tracer* tracer() { return tracer_.get(); }
  std::vector<std::string>& notes() { return notes_; }
  uint64_t setup_failures() const { return setup_failures_; }

 private:
  /// Each request writes its kept set to its own file, removed once
  /// checked: rewriting one path in place would make the file system flush
  /// every truncated rewrite to disk, and disk latency is not what the
  /// kept-set write should measure.
  net::ShedRequest Request(uint64_t seed, uint64_t op) const;
  std::string OutputPath(uint64_t op) const;
  using Counters = std::vector<std::pair<std::string, double>>;
  void SnapshotCounters(Counters* out);
  void Fail(OpSample* op, std::string why) const;
  void Check(uint64_t i, OpSample* op);
  void CheckSnapshot(OpSample* op);
  /// In-process ranking of the dataset with CRR's estimator options.
  const std::vector<graph::EdgeId>& Ranking();
  StatusOr<core::SheddingResult> ReferenceShed(const graph::Graph& g,
                                               uint64_t seed, int threads,
                                               const core::RankProvider& rank);

  const Workload& workload_;
  const Args& args_;
  SpanLog spans_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::optional<Dataset> dataset_;
  std::unique_ptr<Service> service_;
  uint64_t target_ = 0;
  uint64_t session_seed_ = 0;
  std::unique_ptr<LiveEdges> live_;
  Rng batch_rng_{0};
  uint64_t version_ = 0;
  uint64_t last_overlay_ = 0;
  uint64_t compactions_ = 0;
  std::vector<Reference> refs_;
  std::optional<std::vector<graph::EdgeId>> ranking_;
  uint64_t setup_failures_ = 0;
  std::vector<std::string> notes_;
  Counters loop_start_;
  Counters loop_end_;
};

void Bench::SnapshotCounters(Counters* out) {
  out->clear();
  for (const char* name :
       {"scheduler.rank_cache_hit", "scheduler.rank_cache_wait_hit",
        "scheduler.rank_cache_miss", "scheduler.submitted",
        "scheduler.result_cache_hit"}) {
    out->emplace_back(name, static_cast<double>(
                                service_->metrics().CounterValue(name)));
  }
}

std::string Bench::OutputPath(uint64_t op) const {
  return service_->output_dir() + "/kept_" + std::to_string(op) + ".esg";
}

net::ShedRequest Bench::Request(uint64_t seed, uint64_t op) const {
  net::ShedRequest request;
  request.dataset = workload_.dataset;
  request.method = workload_.kind == Kind::kMutate ? "crr-inc" : "crr";
  request.p = kP;
  request.seed = seed;
  request.wait = true;
  request.output = "kept_" + std::to_string(op);
  return request;
}

Status Bench::SetUp(Segment* segment) {
  session_seed_ = RequestSeed(args_.seed, ~uint64_t{0});
  for (int rep = 0; rep < args_.setup_reps; ++rep) {
    // Tear-down of the previous rep is not timed. Each rep writes its own
    // snapshot file (see OutputPath for why paths are not rewritten).
    service_.reset();
    if (dataset_.has_value()) {
      std::error_code ec;
      std::filesystem::remove(dataset_->path, ec);
    }
    dataset_.reset();
    const CpuTicks ticks = CpuTicks::Now();
    const double start = NowSeconds();
    auto dataset = BuildDataset(workload_.dataset,
                                args_.work_dir + "/rep" + std::to_string(rep));
    if (!dataset.ok()) return dataset.status();
    dataset_.emplace(std::move(*dataset));
    if (args_.trace && tracer_ == nullptr) {
      obs::TracerOptions options;
      tracer_ = std::make_unique<obs::Tracer>(options);
    }
    service_ = std::make_unique<Service>(*dataset_, args_.work_dir,
                                         tracer_.get());
    EDGESHED_RETURN_IF_ERROR(service_->Start());
    // Warm-up: faults in code and the first load; fills the rank cache on
    // warm_shed and starts the incremental session on mutate_shed.
    const uint64_t warm_seed =
        workload_.kind == Kind::kMutate ? session_seed_
                                        : RequestSeed(args_.seed, ~uint64_t{1});
    const uint64_t warm_op = ~uint64_t{0};
    auto warm = service_->channel().Shed(Request(warm_seed, warm_op));
    if (!warm.ok()) return warm.status();
    std::error_code ec;
    std::filesystem::remove(OutputPath(warm_op), ec);
    segment->setup_s.push_back(NowSeconds() - start);
    segment->setup_stolen.push_back(StolenShare(ticks, CpuTicks::Now()));
    if (rep + 1 == args_.setup_reps && workload_.kind == Kind::kMutate) {
      // The session's first re-shed is a cold CRR run, specified to equal
      // core::Crr::Shed on the same graph and seed exactly.
      auto ref = ReferenceShed(dataset_->graph, session_seed_, 0, nullptr);
      if (!ref.ok() || ref->kept_edges.size() != warm->result.kept_edges ||
          ref->total_delta != warm->result.total_delta) {
        ++setup_failures_;
        notes_.push_back("mutate_shed: first crr-inc shed differs from the "
                         "in-process Crr::Shed reference");
      }
    }
  }
  target_ = core::TargetEdgeCount(dataset_->graph, kP);
  if (workload_.kind == Kind::kMutate) {
    live_ = std::make_unique<LiveEdges>(dataset_->graph);
    batch_rng_.Reseed(RequestSeed(args_.seed, ~uint64_t{2}));
  }
  return Status::OK();
}

void Bench::Fail(OpSample* op, std::string why) const {
  if (op->ok) {
    op->ok = false;
    op->error = workload_.name + " op " + std::to_string(op->index) + ": " +
                std::move(why);
  }
}

OpSample Bench::RunOp(uint64_t i, bool traced, double* bench_cpu) {
  OpSample op;
  op.index = i;
  op.traced = traced;
  op.seed = workload_.kind == Kind::kMutate ? session_seed_
                                            : RequestSeed(args_.seed, i);
  const int64_t root = traced ? spans_.Begin("op", -1, i) : -1;
  auto& channel = service_->channel();
  const net::ShedRequest request = Request(op.seed, i);
  std::optional<graph::MutationBatch> batch;
  std::optional<net::ApplyMutationsRequest> mutation;
  if (workload_.kind == Kind::kCold) {
    // Outside the timed interval: the next Shed misses the store and the
    // rank cache and pays the whole load -> rank -> reduce -> write path.
    const int64_t s = spans_.Begin("service.replace", root, i);
    (void)service_->store().Replace(workload_.dataset,
                                    SnapshotLoader(dataset_->path));
    spans_.End(s);
  } else if (workload_.kind == Kind::kMutate) {
    const double c0 = ThreadCpuSeconds();
    batch = live_->MakeBatch(EvenBatchSize(dataset_->graph), &batch_rng_);
    mutation = ToRequest(workload_.dataset, *batch);
    op.mutation_bytes = net::EncodeApplyMutationsRequest(*mutation).size();
    *bench_cpu += ThreadCpuSeconds() - c0;
  }

  const int64_t timed = spans_.Begin("client.op", root, i);
  const double t0 = NowSeconds();
  if (mutation.has_value()) {
    const int64_t s = spans_.Begin("net.apply_mutations", timed, i);
    auto applied = channel.ApplyMutations(*mutation);
    spans_.End(s);
    op.apply_latency = NowSeconds() - t0;
    if (applied.ok()) {
      op.apply = *applied;
    } else {
      Fail(&op, "ApplyMutations: " + applied.status().ToString());
    }
  }
  const double t1 = NowSeconds();
  std::optional<net::ShedResponse> response;
  if (op.ok) {
    const int64_t s = spans_.Begin("net.shed", timed, i);
    auto shed = channel.Shed(request);
    spans_.End(s);
    if (shed.ok() && shed->has_result) {
      response = std::move(*shed);
    } else {
      Fail(&op, "Shed: " + (shed.ok() ? std::string("no result in reply")
                                      : shed.status().ToString()));
    }
  }
  const double t2 = NowSeconds();
  spans_.End(timed);
  op.shed_latency = t2 - t1;
  op.latency = t2 - t0;

  const double c0 = ThreadCpuSeconds();
  op.heap_mb = HeapInUseMb();
  // The server applied the batch: bring the mirror to the same version.
  if (batch.has_value() && op.apply.version != 0) live_->Apply(*batch);
  if (response.has_value()) {
    op.summary = response->result;
    op.request_bytes = net::EncodeShedRequest(request).size();
    op.reply_bytes = net::EncodeShedResponseBody(*response).size();
    if (traced) {
      const int64_t s = spans_.Begin("net.get_status", root, i);
      auto status = channel.GetJobStatus(response->job_id);
      spans_.End(s);
      if (status.ok()) {
        op.queue_s = status->queue_seconds;
        op.run_s = status->run_seconds;
      } else {
        Fail(&op, "GetStatus: " + status.status().ToString());
      }
    }
  }
  const int64_t c = spans_.Begin("bench.check", root, i);
  Check(i, &op);
  std::error_code ec;
  std::filesystem::remove(OutputPath(i), ec);
  spans_.End(c);
  spans_.End(root);
  *bench_cpu += ThreadCpuSeconds() - c0;
  return op;
}

void Bench::Check(uint64_t i, OpSample* op) {
  if (workload_.kind == Kind::kMutate) {
    // Every batch advances the version by exactly one, whether or not the
    // re-shed after it succeeded.
    if (op->apply.version != version_ + 1) {
      Fail(op, "version " + std::to_string(op->apply.version) +
                   " after version " + std::to_string(version_));
    }
    if (op->apply.version != 0) version_ = op->apply.version;
    const uint64_t overlay =
        op->apply.overlay_inserted + op->apply.overlay_deleted;
    if (overlay < last_overlay_) ++compactions_;
    last_overlay_ = overlay;
    if (op->apply.live_edges != live_->size()) {
      Fail(op, "server reports " + std::to_string(op->apply.live_edges) +
                   " live edges, mirror holds " +
                   std::to_string(live_->size()));
    }
  }
  if (!op->ok) return;
  if (op->summary.kept_edges != target_) {
    Fail(op, "kept " + std::to_string(op->summary.kept_edges) +
                 " edges, expected round(p|E|) = " + std::to_string(target_));
  }
  if (workload_.kind == Kind::kMutate &&
      StatValue(op->summary.stats, "version", -1.0) !=
          static_cast<double>(version_)) {
    Fail(op, "re-shed answered a version other than the one just applied");
  }
  if (i % kSnapshotEvery == 0) CheckSnapshot(op);
  if (workload_.kind != Kind::kMutate && i % kRefEvery == 0 &&
      refs_.size() < kMaxRefs) {
    refs_.push_back(Reference{static_cast<size_t>(i), op->seed});
  }
}

void Bench::CheckSnapshot(OpSample* op) {
  const std::string path = OutputPath(op->index);
  std::error_code ec;
  op->kept_file_bytes = std::filesystem::file_size(path, ec);
  graph::IngestOptions options;
  options.threads = 1;  // keeps the check on this thread's CPU clock
  auto loaded = graph::LoadGraph(graph::GraphSource(path), options);
  if (!loaded.ok()) {
    Fail(op, "kept snapshot does not load: " + loaded.status().ToString());
    return;
  }
  const graph::Graph& kept = loaded->graph;
  if (kept.NumEdges() != op->summary.kept_edges) {
    Fail(op, "kept snapshot holds " + std::to_string(kept.NumEdges()) +
                 " edges, reply says " +
                 std::to_string(op->summary.kept_edges));
    return;
  }
  for (const graph::Edge& e : kept.edges()) {
    const bool live = workload_.kind == Kind::kMutate
                          ? live_->Contains(e.u, e.v)
                          : dataset_->graph.HasEdge(e.u, e.v);
    if (!live) {
      Fail(op, "kept snapshot holds an edge that is not live");
      return;
    }
  }
}

const std::vector<graph::EdgeId>& Bench::Ranking() {
  if (!ranking_.has_value()) {
    ranking_ = analytics::EdgesByBetweennessDescending(
        dataset_->graph, core::CrrOptions{}.betweenness);
  }
  return *ranking_;
}

StatusOr<core::SheddingResult> Bench::ReferenceShed(
    const graph::Graph& g, uint64_t seed, int threads,
    const core::RankProvider& rank) {
  core::ShedOptions options;
  options.p = kP;
  options.seed = seed;
  options.threads = threads;
  options.rank_provider = rank;
  return core::Crr().Shed(g, options);
}

void Bench::CheckReferences(std::vector<OpSample>* samples) {
  const std::vector<graph::EdgeId>& ranking = Ranking();
  const core::RankProvider provider =
      [&ranking](const graph::Graph&, const analytics::BetweennessOptions&)
      -> StatusOr<core::EdgeRanking> {
    core::EdgeRanking r;
    r.ids = ranking;
    return r;
  };
  for (const Reference& ref : refs_) {
    OpSample& op = (*samples)[ref.op];
    if (!op.ok) continue;
    auto result = ReferenceShed(dataset_->graph, ref.seed, 0, provider);
    if (!result.ok()) {
      Fail(&op, "reference shed failed: " + result.status().ToString());
    } else if (result->kept_edges.size() != op.summary.kept_edges ||
               result->total_delta != op.summary.total_delta) {
      Fail(&op, edgeshed::StrFormat(
                    "reply kept=%llu delta=%.17g, in-process reference "
                    "kept=%zu delta=%.17g",
                    static_cast<unsigned long long>(op.summary.kept_edges),
                    op.summary.total_delta, result->kept_edges.size(),
                    result->total_delta));
    }
  }
}

std::vector<double> Collect(const std::vector<OpSample>& samples,
                            double OpSample::*field, bool traced_only) {
  std::vector<double> out;
  for (const OpSample& op : samples) {
    if (op.ok && (!traced_only || op.traced)) out.push_back(op.*field);
  }
  return out;
}

std::vector<double> CollectStat(const std::vector<OpSample>& samples,
                                const std::string& key) {
  std::vector<double> out;
  for (const OpSample& op : samples) {
    if (op.ok && op.traced) out.push_back(StatValue(op.summary.stats, key));
  }
  return out;
}

void Bench::EndToEnd(const std::vector<OpSample>& samples, Segment* out) {
  // Peak heap and Δ over the first min_ops ops only, so a seed repeats them
  // whatever the run length.
  const size_t first = static_cast<size_t>(args_.min_ops);
  for (size_t i = 0; i < samples.size() && i < first; ++i) {
    out->peak_heap_mb = std::max(out->peak_heap_mb, samples[i].heap_mb);
  }
  for (const OpSample& op : samples) {
    if (!op.ok) continue;
    out->latency_s.push_back(op.latency);
    if (out->delta.size() < first) {
      out->delta.push_back(op.summary.average_delta);
    }
  }
}

void Bench::PerLayer(const std::vector<OpSample>& samples, Report* report) {
  const graph::Graph& g = dataset_->graph;
  Service& svc = *service_;
  auto& channel = svc.channel();
  const bool mutate = workload_.kind == Kind::kMutate;
  const int64_t probes = spans_.Begin("probes", -1, 0);
  auto timed = [&](const std::string& name, uint64_t rep, auto&& fn) {
    const int64_t s = spans_.Begin(name, probes, rep);
    const double start = NowSeconds();
    fn();
    const double seconds = NowSeconds() - start;
    spans_.End(s);
    return seconds;
  };

  // ---- graph ----
  std::vector<double> load;
  for (uint64_t r = 0; r < 5; ++r) {
    load.push_back(timed("graph.load", r, [&] {
      auto loaded = graph::LoadGraph(graph::GraphSource(dataset_->path));
      if (!loaded.ok()) notes_.push_back("load probe: " + loaded.status().ToString());
    }));
  }
  report->Add("graph.load_s", Median(load), "s", load.size(), "probe");
  const std::vector<double> kept_write =
      CollectStat(samples, "output_write_seconds");
  report->Add("graph.kept_write_s", Median(kept_write), "s", kept_write.size(),
              "stat");
  std::vector<double> kept_bytes;
  for (const OpSample& op : samples) {
    if (op.kept_file_bytes > 0) kept_bytes.push_back(op.kept_file_bytes);
  }
  report->Add("graph.kept_write_bytes", Median(kept_bytes), "bytes",
              kept_bytes.size(), "loop");
  std::vector<double> build;
  for (uint64_t r = 0; r < 3; ++r) {
    std::vector<graph::Edge> edges(g.edges().begin(), g.edges().end());
    const std::string path =
        args_.work_dir + "/build_probe_" + std::to_string(r) + ".esg";
    build.push_back(timed("graph.build", r, [&] {
      auto built = graph::Graph::FromEdges(
          static_cast<graph::NodeId>(g.NumNodes()), std::move(edges));
      graph::SnapshotOptions options;
      options.version = 3;
      if (built.ok()) (void)graph::SaveBinaryGraph(*built, path, options);
    }));
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  report->Add("graph.build_s", Median(build), "s", build.size(), "probe");

  // ---- service ----
  std::vector<double> pin;
  for (uint64_t r = 0; r < 10; ++r) {
    if (workload_.kind == Kind::kCold) {
      (void)svc.store().Replace(workload_.dataset,
                                SnapshotLoader(dataset_->path));
    }
    pin.push_back(timed("service.pin", r, [&] {
      (void)svc.store().Get(workload_.dataset);
    }));
  }
  const std::vector<double> queue = Collect(samples, &OpSample::queue_s, true);
  const std::vector<double> run = Collect(samples, &OpSample::run_s, true);
  report->Add("service.pin_s", Median(pin), "s", pin.size(), "probe");
  report->Add("service.queue_s", Median(queue), "s", queue.size(), "loop");
  report->Add("service.run_s", Median(run), "s", run.size(), "loop");
  auto counter = [&](const std::string& name) {
    return StatValue(loop_end_, name) - StatValue(loop_start_, name);
  };
  const double rank_hits = counter("scheduler.rank_cache_hit") +
                           counter("scheduler.rank_cache_wait_hit");
  const double rank_lookups = rank_hits + counter("scheduler.rank_cache_miss");
  const double submitted = counter("scheduler.submitted");
  report->Add("service.rank_cache_hit_frac",
              rank_lookups > 0 ? rank_hits / rank_lookups : 0.0, "ratio",
              static_cast<size_t>(rank_lookups), "counter");
  report->Add("service.result_cache_hit_frac",
              submitted > 0 ? counter("scheduler.result_cache_hit") / submitted
                            : 0.0,
              "ratio", static_cast<size_t>(submitted), "counter");

  // ---- analytics: ranking at 1, 2 and all threads ----
  std::vector<graph::EdgeId> ranking;
  for (const auto& [threads, suffix] : ThreadSweep()) {
    std::vector<double> seconds;
    for (uint64_t r = 0; r < 3; ++r) {
      analytics::BetweennessOptions options = core::CrrOptions{}.betweenness;
      options.threads = threads;
      seconds.push_back(timed("analytics.rank." + suffix, r, [&] {
        ranking = analytics::EdgesByBetweennessDescending(g, options);
      }));
    }
    report->Add("analytics.rank_s." + suffix, Median(seconds), "s",
                seconds.size(), "probe");
  }

  // ---- core: CRR on a precomputed ranking at 1, 2 and all threads ----
  const core::RankProvider provider =
      [&ranking](const graph::Graph&, const analytics::BetweennessOptions&)
      -> StatusOr<core::EdgeRanking> {
    core::EdgeRanking r;
    r.ids = ranking;
    return r;
  };
  std::vector<double> phase1;
  double steps = 0.0;
  double accepted = 0.0;
  for (const auto& [threads, suffix] : ThreadSweep()) {
    std::vector<double> phase2;
    for (uint64_t r = 0; r < 3; ++r) {
      std::optional<core::SheddingResult> result;
      timed("core.crr." + suffix, r, [&] {
        auto shed = ReferenceShed(g, RequestSeed(args_.seed, 1000 + r),
                                  threads, provider);
        if (shed.ok()) result = std::move(*shed);
      });
      if (!result.has_value()) continue;
      phase2.push_back(StatValue(result->stats, "phase2_seconds"));
      if (suffix == "t2") {
        phase1.push_back(StatValue(result->stats, "phase1_seconds") -
                         StatValue(result->stats, "betweenness_seconds"));
        steps += StatValue(result->stats, "steps");
        accepted += StatValue(result->stats, "swaps_accepted");
      }
    }
    report->Add("core.phase2_s." + suffix, Median(phase2), "s", phase2.size(),
                "probe");
  }
  report->Add("core.phase1_s", Median(phase1), "s", phase1.size(), "probe");
  report->Add("core.steps", steps / std::max<size_t>(1, phase1.size()),
              "count", phase1.size(), "probe");
  report->Add("core.swaps_accepted",
              accepted / std::max<size_t>(1, phase1.size()), "count",
              phase1.size(), "probe");
  report->Add("core.swap_accept_frac", steps > 0 ? accepted / steps : 0.0,
              "ratio", phase1.size(), "probe");
  std::vector<double> avg_delta;
  for (const OpSample& op : samples) {
    if (op.ok) avg_delta.push_back(op.summary.average_delta);
  }
  report->Add("core.delta_bound_frac",
              Mean(avg_delta) / core::CrrAverageDeltaBound(g, kP), "ratio",
              avg_delta.size(), "loop");

  // ---- net ----
  std::vector<double> ping;
  for (uint64_t r = 0; r < 50; ++r) {
    ping.push_back(timed("net.ping", r, [&] { (void)channel.Ping(r); }));
  }
  std::vector<double> overhead;
  std::vector<double> request_bytes;
  std::vector<double> reply_bytes;
  std::vector<double> mutation_bytes;
  std::vector<double> apply;
  for (const OpSample& op : samples) {
    if (!op.ok) continue;
    if (op.traced) overhead.push_back(op.shed_latency - op.queue_s - op.run_s);
    request_bytes.push_back(op.request_bytes);
    reply_bytes.push_back(op.reply_bytes);
    if (mutate) {
      mutation_bytes.push_back(op.mutation_bytes);
      apply.push_back(op.apply_latency);
    }
  }
  report->Add("net.ping_rtt_s", Median(ping), "s", ping.size(), "probe");
  report->Add("net.overhead_s", Median(overhead), "s", overhead.size(), "loop");
  report->Add("net.request_bytes", Median(request_bytes), "bytes",
              request_bytes.size(), "loop");
  report->Add("net.reply_bytes", Median(reply_bytes), "bytes",
              reply_bytes.size(), "loop");

  // ---- dyn: an in-process session over a private copy of the graph ----
  LiveEdges mirror(g);
  Rng rng(RequestSeed(args_.seed, ~uint64_t{3}));
  std::vector<graph::MutationBatch> batches;
  for (int b = 0; b < 10; ++b) {
    batches.push_back(mirror.MakeBatch(EvenBatchSize(g), &rng));
    mirror.Apply(batches.back());
  }
  dyn::VersionedGraphOptions vg_options;
  vg_options.auto_compact = false;  // compaction is timed on its own below
  auto versioned = std::make_shared<dyn::VersionedGraph>(g, vg_options);
  dyn::DynamicShedOptions session_options;
  session_options.p = kP;
  session_options.seed = session_seed_;
  dyn::ShedSession session(versioned, session_options);
  (void)session.Reshed();  // cold start, not timed
  std::vector<double> reshed;
  std::optional<dyn::DynamicShedResult> last;
  std::vector<std::vector<std::pair<std::string, double>>> probe_stats;
  std::vector<double> probe_full_rank;
  for (size_t b = 0; b < batches.size(); ++b) {
    (void)versioned->ApplyBatch(batches[b]);
    reshed.push_back(timed("dyn.reshed", b, [&] {
      auto result = session.Reshed();
      if (result.ok()) last = std::move(*result);
    }));
    if (last.has_value()) {
      probe_stats.push_back(last->stats);
      probe_full_rank.push_back(last->full_rank ? 1.0 : 0.0);
    }
  }
  const double compact =
      timed("dyn.compact", 0, [&] { (void)versioned->Compact(); });
  if (!mutate) {
    for (const graph::MutationBatch& batch : batches) {
      mutation_bytes.push_back(
          net::EncodeApplyMutationsRequest(ToRequest(workload_.dataset, batch))
              .size());
    }
  }
  report->Add("net.mutation_bytes", Median(mutation_bytes), "bytes",
              mutation_bytes.size(), mutate ? "loop" : "probe");

  // Re-shed stats: from the served loop on mutate_shed, else the probe.
  std::vector<std::vector<std::pair<std::string, double>>> dyn_stats;
  if (mutate) {
    for (const OpSample& op : samples) {
      if (op.ok && op.traced) dyn_stats.push_back(op.summary.stats);
    }
  } else {
    dyn_stats = probe_stats;
  }
  auto dyn_series = [&](const std::string& key) {
    std::vector<double> out;
    for (const auto& stats : dyn_stats) out.push_back(StatValue(stats, key));
    return out;
  };
  const std::string dyn_source = mutate ? "stat" : "probe";
  if (!mutate) {
    // ApplyMutations round trips against the served dataset, after every
    // other probe because they change it.
    for (size_t b = 0; b < 5; ++b) {
      const net::ApplyMutationsRequest request =
          ToRequest(workload_.dataset, batches[b]);
      apply.push_back(timed("net.apply_mutations", b, [&] {
        (void)channel.ApplyMutations(request);
      }));
    }
  }
  report->Add("dyn.apply_s", Median(apply), "s", apply.size(),
              mutate ? "loop" : "probe");
  report->Add("dyn.reshed_s", Median(reshed), "s", reshed.size(), "probe");
  const std::vector<std::pair<std::string, std::string>> dyn_times = {
      {"dyn.region_s", "region_seconds"},
      {"dyn.local_rank_s", "local_rank_seconds"},
      {"dyn.merge_s", "merge_seconds"},
      {"dyn.refine_s", "refine_seconds"}};
  for (const auto& [name, key] : dyn_times) {
    report->Add(name, Median(dyn_series(key)), "s", dyn_stats.size(),
                dyn_source);
  }
  const std::vector<std::pair<std::string, std::string>> dyn_counts = {
      {"dyn.dirty_vertices", "dirty_vertices"},
      {"dyn.dirty_edges", "dirty_edges"},
      {"dyn.steps", "steps"},
      {"dyn.swaps_accepted", "swaps_accepted"}};
  for (const auto& [name, key] : dyn_counts) {
    report->Add(name, Mean(dyn_series(key)), "count", dyn_stats.size(),
                dyn_source);
  }
  const std::vector<double> full_rank =
      mutate ? dyn_series("full_rank") : probe_full_rank;
  report->Add("dyn.full_rank_frac", Mean(full_rank), "ratio",
              full_rank.size(), dyn_source);
  report->Add("dyn.compactions",
              mutate ? 100.0 * static_cast<double>(compactions_) /
                           std::max<size_t>(1, samples.size())
                     : 0.0,
              "per100ops", mutate ? samples.size() : 0, "loop");
  report->Add("dyn.compact_s", compact, "s", 1, "probe");
  // Incremental delta over a cold shed of the same version.
  double inc_delta = 0.0;
  StatusOr<graph::Graph> head = Status::Internal("no head");
  if (mutate) {
    for (const OpSample& op : samples) {
      if (op.ok) inc_delta = op.summary.total_delta;
    }
    auto handle = svc.store().DynGraph(workload_.dataset);
    if (handle.ok()) head = (*handle)->Snapshot()->Materialize();
  } else if (last.has_value()) {
    inc_delta = last->total_delta;
    head = versioned->Snapshot()->Materialize();
  }
  double delta_vs_cold = 0.0;
  if (head.ok()) {
    auto cold = ReferenceShed(*head, session_seed_, 0, nullptr);
    if (cold.ok() && cold->total_delta > 0.0) {
      delta_vs_cold = inc_delta / cold->total_delta;
    }
  }
  report->Add("dyn.delta_vs_cold", delta_vs_cold, "ratio", 1,
              mutate ? "loop" : "probe");

  // ---- attribution ----
  const std::vector<double> latency = Collect(samples, &OpSample::latency, true);
  const double e2e = Median(latency);
  double attributed = Median(queue) + Median(overhead) + Median(kept_write);
  if (mutate) {
    std::vector<double> reshed_parts;
    for (const auto& stats : dyn_stats) {
      double sum = 0.0;
      for (const char* key : {"region_seconds", "local_rank_seconds",
                              "merge_seconds", "refine_seconds",
                              "result_seconds"}) {
        sum += StatValue(stats, key);
      }
      reshed_parts.push_back(sum);
    }
    attributed += Median(Collect(samples, &OpSample::apply_latency, true)) +
                  Median(reshed_parts);
  } else {
    std::vector<double> select;
    for (const OpSample& op : samples) {
      if (op.ok && op.traced) {
        select.push_back(StatValue(op.summary.stats, "phase1_seconds") -
                         StatValue(op.summary.stats, "betweenness_seconds"));
      }
    }
    attributed += Median(pin) +
                  Median(CollectStat(samples, "betweenness_seconds")) +
                  Median(select) + Median(CollectStat(samples, "phase2_seconds"));
  }
  report->Add("unexplained_frac", e2e > 0 ? (e2e - attributed) / e2e : 0.0,
              "ratio", latency.size(), "loop");
  std::vector<double> untraced;
  for (const OpSample& op : samples) {
    if (op.ok && !op.traced) untraced.push_back(op.latency);
  }
  const double base = Median(untraced);
  report->Add("trace_overhead_frac", base > 0 ? (e2e - base) / base : 0.0,
              "ratio", untraced.size(), "loop");
  spans_.End(probes);
}

}  // namespace

StatusOr<RunResult> RunWorkload(const Workload& workload, const Args& args) {
  const double process_start = NowSeconds();
  Bench bench(workload, args);
  RunResult out;
  EDGESHED_RETURN_IF_ERROR(bench.SetUp(&out.segment));

  std::vector<OpSample> samples;
  double bench_cpu = 0.0;
  bench.BeginLoop();
  const CpuTicks ticks = CpuTicks::Now();
  const double cpu0 = ProcessCpuSeconds();
  const double start = NowSeconds();
  for (uint64_t i = 0;; ++i) {
    const double now = NowSeconds();
    const bool enough_ops =
        args.trace || samples.size() >= static_cast<size_t>(args.min_ops);
    if (now - start >= args.seconds && enough_ops) break;
    if (now - process_start >= kHardLimitSeconds) break;
    // In the traced run every other op is traced, so tracing cost can be
    // read off against the untraced ops of the same run.
    const bool traced = args.trace && i % 2 == 0;
    samples.push_back(bench.RunOp(i, traced, &bench_cpu));
  }
  out.segment.cpu_s = ProcessCpuSeconds() - cpu0 - bench_cpu;
  out.segment.loop_stolen = StolenShare(ticks, CpuTicks::Now());
  out.segment.peak_rss_mb = PeakRssMb();
  bench.EndLoop();
  bench.CheckReferences(&samples);

  if (args.trace) {
    bench.PerLayer(samples, &out.report);
    std::vector<obs::SpanRecord> program;
    if (bench.tracer() != nullptr) program = bench.tracer()->Spans();
    out.trace_json = bench.spans().ChromeJson(program);
  } else {
    bench.EndToEnd(samples, &out.segment);
  }
  // A failed set-up check (mutate_shed's reference shed) counts as one more
  // attempted and failed op, so it cannot hide behind the loop's ops.
  out.attempted = samples.size() + bench.setup_failures();
  out.failed = bench.setup_failures();
  for (const OpSample& op : samples) {
    if (!op.ok) {
      ++out.failed;
      if (bench.notes().size() < 20) bench.notes().push_back(op.error);
    }
  }
  out.notes = std::move(bench.notes());
  return out;
}

}  // namespace shedbench
