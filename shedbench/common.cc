// Statistics, report, span log, datasets, service fixture and the mirrored
// live edge set shared by both run kinds.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <utility>

#include "bench.h"
#include "common/strings.h"
#include "graph/binary_io.h"
#include "graph/generators/generators.h"
#include "graph/source.h"

namespace shedbench {

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"cold_shed", Kind::kCold, "rmat_s15"},
      {"warm_shed", Kind::kWarm, "ba_40k"},
      {"mutate_shed", Kind::kMutate, "ba_40k"},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Statistics

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {
double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return TimevalSeconds(usage.ru_utime) + TimevalSeconds(usage.ru_stime);
}

CpuTicks CpuTicks::Now() {
  // "cpuN user nice system idle iowait irq softirq steal ..." per vCPU,
  // after the "cpu" line of totals.
  CpuTicks out;
  std::ifstream stat("/proc/stat");
  std::string line;
  while (std::getline(stat, line)) {
    if (line.rfind("cpu", 0) != 0) break;
    if (line.size() < 4 || line[3] == ' ') continue;
    std::istringstream fields(line.substr(line.find(' ')));
    double t[8] = {};
    for (double& v : t) fields >> v;
    out.busy_steal.emplace_back(t[0] + t[1] + t[2] + t[5] + t[6], t[7]);
  }
  return out;
}

double StolenShare(const CpuTicks& a, const CpuTicks& b) {
  if (a.busy_steal.size() != b.busy_steal.size()) return 0.0;
  double busy = 0.0;
  double weighted = 0.0;
  for (size_t i = 0; i < a.busy_steal.size(); ++i) {
    const double cpu_busy = b.busy_steal[i].first - a.busy_steal[i].first;
    const double cpu_steal = b.busy_steal[i].second - a.busy_steal[i].second;
    if (cpu_busy <= 0.0) continue;
    busy += cpu_busy;
    weighted += cpu_busy * cpu_steal / (cpu_busy + cpu_steal);
  }
  return busy > 0.0 ? weighted / busy : 0.0;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Report

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  return edgeshed::StrFormat("%.17g", value);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += edgeshed::StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Report::Add(std::string name, double value, std::string unit,
                 size_t samples, std::string source) {
  metrics_.push_back(Metric{std::move(name), std::isfinite(value) ? value : 0.0,
                            std::move(unit), samples, std::move(source)});
}

void Report::Print(const std::string& workload, bool correct,
                   uint64_t attempted, uint64_t failed) const {
  std::printf("# workload %s: %llu ops attempted, %llu failed, fail_frac=%.6g\n",
              workload.c_str(), static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              attempted == 0 ? 1.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted));
  std::printf("# %-34s %16s  %-9s %7s  %s\n", "metric", "value", "unit", "n",
              "source");
  for (const Metric& m : metrics_) {
    std::printf("# %-34s %16.9g  %-9s %7zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.source.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) line += ", ";
    line += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

Status Report::WriteJson(const std::string& path, const std::string& workload,
                         uint64_t seed, bool trace, bool correct,
                         uint64_t attempted, uint64_t failed,
                         const std::vector<std::string>& notes) const {
  std::string out = "{\n  \"workload\": " + JsonString(workload) +
                    ",\n  \"seed\": " + std::to_string(seed) +
                    ",\n  \"trace\": " + (trace ? "1" : "0") +
                    ",\n  \"correct\": " + (correct ? "true" : "false") +
                    ",\n  \"attempted\": " + std::to_string(attempted) +
                    ",\n  \"failed\": " + std::to_string(failed) +
                    ",\n  \"metrics\": [";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += i > 0 ? ",\n    " : "\n    ";
    out += "{\"name\": " + JsonString(m.name) +
           ", \"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) +
           ", \"source\": " + JsonString(m.source) + "}";
  }
  out += "\n  ],\n  \"notes\": [";
  for (size_t i = 0; i < notes.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(notes[i]);
  }
  out += "]\n}\n";
  std::ofstream file(path, std::ios::trunc);
  file << out;
  file.close();
  if (!file) return Status::IOError("cannot write " + path);
  return Status::OK();
}

std::string Segment::Json(uint64_t attempted, uint64_t failed,
                          const std::vector<std::string>& notes) const {
  auto list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      out += (i > 0 ? ", " : "") + JsonNumber(values[i]);
    }
    return out + "]";
  };
  std::string out = "{\"segment\": {\"setup_s\": " + list(setup_s) +
                    ", \"setup_stolen\": " + list(setup_stolen) +
                    ", \"latency_s\": " + list(latency_s) +
                    ", \"loop_stolen\": " + JsonNumber(loop_stolen) +
                    ", \"delta\": " + list(delta) +
                    ", \"cpu_s\": " + JsonNumber(cpu_s) +
                    ", \"peak_heap_mb\": " + JsonNumber(peak_heap_mb) +
                    ", \"peak_rss_mb\": " + JsonNumber(peak_rss_mb) +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"notes\": [";
  for (size_t i = 0; i < notes.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(notes[i]);
  }
  return out + "]}}";
}

// ---------------------------------------------------------------------------
// Span log

int64_t SpanLog::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int64_t SpanLog::Begin(std::string name, int64_t parent, uint64_t op) {
  if (!enabled_) return -1;
  records_.push_back(Record{std::move(name), Now(), -1, parent, op});
  return static_cast<int64_t>(records_.size()) - 1;
}

double SpanLog::End(int64_t id) {
  if (id < 0) return 0.0;
  Record& r = records_[static_cast<size_t>(id)];
  r.end_ns = Now();
  return static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
}

std::string SpanLog::ChromeJson(
    const std::vector<obs::SpanRecord>& program) const {
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  auto event = [&](const std::string& name, const std::string& cat,
                   int64_t start_ns, int64_t dur_ns, int tid,
                   const std::string& args) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\": " + JsonString(name) + ", \"cat\": " + JsonString(cat) +
           ", \"ph\": \"X\", \"ts\": " + JsonNumber(start_ns * 1e-3) +
           ", \"dur\": " + JsonNumber(dur_ns * 1e-3) +
           ", \"pid\": 1, \"tid\": " + std::to_string(tid) +
           ", \"args\": {" + args + "}}";
  };
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    event(r.name, "bench", r.start_ns, r.end_ns - r.start_ns, 0,
          "\"span\": " + std::to_string(i) +
              ", \"parent\": " + std::to_string(r.parent) +
              ", \"op\": " + std::to_string(r.op));
  }
  // The program's spans use the tracer's own epoch; they are exported on
  // their own thread rows so the two clocks are never compared directly.
  for (const obs::SpanRecord& s : program) {
    event(s.name, "program", s.start_ns, s.duration_ns, 100 + s.tid,
          "\"trace_id\": " + std::to_string(s.trace_id) +
              ", \"span_id\": " + std::to_string(s.span_id) +
              ", \"parent_id\": " + std::to_string(s.parent_id));
  }
  out += "\n]}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Datasets

StatusOr<Dataset> BuildDataset(const std::string& name,
                               const std::string& prefix) {
  Dataset dataset;
  dataset.name = name;
  unsigned size = 0;
  if (std::sscanf(name.c_str(), "rmat_s%u", &size) == 1 && size >= 8 &&
      size <= 24) {
    Rng rng(size);
    dataset.graph = graph::RMat(size, 16, 0.57, 0.19, 0.19, rng);
  } else if (std::sscanf(name.c_str(), "ba_%uk", &size) == 1 && size >= 1 &&
             size <= 10000) {
    Rng rng(size);
    dataset.graph = graph::BarabasiAlbert(size * 1000, 8, rng);
  } else {
    return Status::InvalidArgument("unknown dataset " + name);
  }
  dataset.path = prefix + "-" + name + ".esg";
  graph::SnapshotOptions options;
  options.version = 3;
  EDGESHED_RETURN_IF_ERROR(
      graph::SaveBinaryGraph(dataset.graph, dataset.path, options));
  return dataset;
}

service::GraphStore::Loader SnapshotLoader(const std::string& path) {
  return [path]() -> StatusOr<graph::Graph> {
    graph::IngestOptions options;
    options.mmap = true;
    auto loaded = graph::LoadGraph(graph::GraphSource(path), options);
    if (!loaded.ok()) return loaded.status();
    return std::move(loaded->graph);
  };
}

// ---------------------------------------------------------------------------
// Service fixture

namespace {

service::JobSchedulerOptions SchedulerOptions(const graph::Graph& g) {
  // One kept set / one ranking is ~4 bytes per edge. Budgets of 1.5 entries
  // keep only the newest entry resident, so results and rankings of
  // replaced generations cannot pile up over a run and peak RSS does not
  // grow with the number of ops.
  const uint64_t entry_bytes = g.NumEdges() * sizeof(graph::EdgeId) + 4096;
  service::JobSchedulerOptions options;
  options.workers = 2;
  options.result_cache_byte_budget = entry_bytes * 3 / 2;
  options.rank_cache_byte_budget = entry_bytes * 3 / 2;
  options.max_retained_jobs = 8;
  return options;
}

net::RpcServerOptions ServerOptions(const std::string& output_dir) {
  net::RpcServerOptions options;
  options.port = 0;
  options.dispatch_threads = 2;
  options.max_inflight = 4;
  options.max_connections = 4;
  options.idle_timeout = std::chrono::milliseconds(0);
  options.output_dir = output_dir;
  return options;
}

}  // namespace

Service::Service(const Dataset& dataset, const std::string& output_dir,
                 obs::Tracer* tracer)
    : output_dir_(output_dir),
      store_(service::GraphStoreOptions{}, &metrics_, tracer),
      scheduler_(&store_, &metrics_, SchedulerOptions(dataset.graph), tracer),
      server_(&store_, &scheduler_, &metrics_, ServerOptions(output_dir),
              tracer) {
  // Registration cannot fail for a fresh store and a non-empty name.
  (void)store_.Register(dataset.name, SnapshotLoader(dataset.path));
}

Service::~Service() {
  channel_.reset();
  server_.Stop();
  scheduler_.Shutdown();
}

Status Service::Start() {
  EDGESHED_RETURN_IF_ERROR(server_.Start());
  net::RpcClientOptions options;
  options.port = server_.port();
  options.recv_timeout = std::chrono::milliseconds(120000);
  // No retries: a failed request is a failed op, never a hidden second try.
  options.max_attempts = 1;
  client_ = std::make_unique<net::RpcClient>(options);
  channel_ = std::make_unique<net::RpcClient::Channel>(client_.get());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Live edges

LiveEdges::LiveEdges(const graph::Graph& g) : num_nodes_(g.NumNodes()) {
  keys_.reserve(g.NumEdges());
  pos_.reserve(g.NumEdges() * 2);
  for (const graph::Edge& e : g.edges()) Insert(graph::EdgeKey(e.u, e.v));
}

void LiveEdges::Insert(uint64_t key) {
  pos_.emplace(key, keys_.size());
  keys_.push_back(key);
}

void LiveEdges::Erase(uint64_t key) {
  auto it = pos_.find(key);
  const size_t at = it->second;
  pos_.erase(it);
  const uint64_t last = keys_.back();
  keys_.pop_back();
  if (at < keys_.size()) {
    keys_[at] = last;
    pos_[last] = at;
  }
}

graph::MutationBatch LiveEdges::MakeBatch(uint64_t count, Rng* rng) const {
  graph::MutationBatch batch;
  std::unordered_map<uint64_t, bool> used;
  const uint64_t deletes = count / 2;
  while (batch.deletes.size() < deletes) {
    const uint64_t key = keys_[rng->UniformIndex(keys_.size())];
    if (!used.emplace(key, true).second) continue;
    batch.deletes.push_back({static_cast<graph::NodeId>(key >> 32),
                             static_cast<graph::NodeId>(key & 0xFFFFFFFFull)});
  }
  while (batch.inserts.size() + batch.deletes.size() < count) {
    const auto u = static_cast<graph::NodeId>(rng->UniformIndex(num_nodes_));
    const auto v = static_cast<graph::NodeId>(rng->UniformIndex(num_nodes_));
    if (u == v || Contains(u, v)) continue;
    if (!used.emplace(graph::EdgeKey(u, v), true).second) continue;
    batch.inserts.push_back({std::min(u, v), std::max(u, v)});
  }
  return batch;
}

void LiveEdges::Apply(const graph::MutationBatch& batch) {
  for (const graph::Edge& e : batch.deletes) Erase(graph::EdgeKey(e.u, e.v));
  for (const graph::Edge& e : batch.inserts) Insert(graph::EdgeKey(e.u, e.v));
}

net::ApplyMutationsRequest ToRequest(const std::string& dataset,
                                     const graph::MutationBatch& batch) {
  net::ApplyMutationsRequest request;
  request.dataset = dataset;
  for (const graph::Edge& e : batch.inserts) request.inserts.push_back({e.u, e.v});
  for (const graph::Edge& e : batch.deletes) request.deletes.push_back({e.u, e.v});
  return request;
}

double StatValue(const std::vector<std::pair<std::string, double>>& stats,
                 const std::string& key, double fallback) {
  for (const auto& [name, value] : stats) {
    if (name == key) return value;
  }
  return fallback;
}

uint64_t RequestSeed(uint64_t seed, uint64_t i) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + i;
  return edgeshed::SplitMix64Next(&state);
}

}  // namespace shedbench
