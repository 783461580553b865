// Shared declarations of the shed benchmark (see README.md in this
// directory): workload and dataset definitions, the in-process service
// fixture, sample statistics, the metric report and the span log.
#ifndef SHEDBENCH_BENCH_H_
#define SHEDBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/statusor.h"
#include "graph/graph.h"
#include "graph/mutation_io.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "service/graph_store.h"
#include "service/job_scheduler.h"

namespace shedbench {

using edgeshed::Rng;
using edgeshed::Status;
using edgeshed::StatusOr;
namespace graph = edgeshed::graph;
namespace net = edgeshed::net;
namespace obs = edgeshed::obs;
namespace service = edgeshed::service;

/// Preservation ratio of every request.
inline constexpr double kP = 0.5;

enum class Kind { kCold, kWarm, kMutate };

struct Workload {
  std::string name;
  Kind kind;
  std::string dataset;  // a BuildDataset name
};

/// The three workloads; Find returns null for unknown names.
const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Ops the end-to-end run completes before it may stop, whatever
  /// `seconds` says. run.py sets it so the pooled run's p90 has ten
  /// samples beyond it.
  int min_ops = 100;
  /// Setups timed for setup_s (the last one is kept and measured).
  int setup_reps = 5;
  /// Where the per-run report and the trace are written.
  std::string out_dir = ".bench_out";
  /// Scratch space for snapshots; removed at exit.
  std::string work_dir;
};

// ---------------------------------------------------------------------------
// Statistics

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// User + system CPU seconds of the whole process (all threads).
double ProcessCpuSeconds();
/// CPU seconds of the calling thread.
double ThreadCpuSeconds();
/// Peak resident set of the process so far, in MB.
double PeakRssMb();
/// Heap bytes in use (allocated, not yet freed) across all malloc arenas,
/// in MB. Unlike the resident set it leaves out free memory the allocator
/// keeps, which varies from run to run of the same program.
double HeapInUseMb();
double NowSeconds();

/// Busy and steal ticks of each vCPU since boot (/proc/stat). Steal is time
/// a vCPU was ready to run but the hypervisor ran something else.
struct CpuTicks {
  std::vector<std::pair<double, double>> busy_steal;
  static CpuTicks Now();
};
/// Share of its ready time each vCPU lost to steal between `a` and `b`,
/// averaged over the vCPUs weighted by their busy ticks; 0 where the kernel
/// reports no steal.
double StolenShare(const CpuTicks& a, const CpuTicks& b);

// ---------------------------------------------------------------------------
// Report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (1 for a single count or ratio of counts).
  size_t samples = 0;
  /// Where the number comes from ("loop", "probe", "stat", "counter").
  std::string source;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, size_t samples,
           std::string source);
  /// Prints a human-readable table, then the one-line JSON result.
  void Print(const std::string& workload, bool correct, uint64_t attempted,
             uint64_t failed) const;
  /// Writes every metric with its sample count and source, plus `notes`.
  Status WriteJson(const std::string& path, const std::string& workload,
                   uint64_t seed, bool trace, bool correct,
                   uint64_t attempted, uint64_t failed,
                   const std::vector<std::string>& notes) const;

 private:
  std::vector<Metric> metrics_;
};

/// Raw samples of one end-to-end process. run.py pools the segments of
/// several processes into the end-to-end metrics (README.md, Steadiness).
struct Segment {
  std::vector<double> setup_s;       // each set-up rep
  std::vector<double> setup_stolen;  // StolenShare over each set-up rep
  std::vector<double> latency_s;     // each ok op
  std::vector<double> delta;         // Δ/|V| of the first min_ops ok ops
  double cpu_s = 0.0;          // process CPU over the loop minus the checker's
  double loop_stolen = 0.0;    // StolenShare over the loop
  double peak_heap_mb = 0.0;   // over the first min_ops ops
  double peak_rss_mb = 0.0;
  /// One JSON line: {"segment": {these fields, attempted, failed, notes}}.
  std::string Json(uint64_t attempted, uint64_t failed,
                   const std::vector<std::string>& notes) const;
};

// ---------------------------------------------------------------------------
// Span log: spans recorded in memory around the benchmark's own calls into
// each layer, written out once at exit.

class SpanLog {
 public:
  struct Record {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int64_t parent = -1;  // index into records, -1 = root
    uint64_t op = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  /// Opens a span; returns its index (-1 when disabled).
  int64_t Begin(std::string name, int64_t parent, uint64_t op);
  /// Closes span `id` and returns its duration in seconds (0 if disabled).
  double End(int64_t id);
  /// Chrome trace-event JSON of these spans plus the program's own spans.
  std::string ChromeJson(const std::vector<obs::SpanRecord>& program) const;

 private:
  int64_t Now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Record> records_;
};

// ---------------------------------------------------------------------------
// Datasets

/// A generated graph plus its v3 snapshot on disk.
struct Dataset {
  std::string name;
  graph::Graph graph;
  std::string path;  // v3 snapshot
};

/// Generates `name` from a generator seed fixed by the name and writes it as
/// the v3 snapshot `<prefix>-<name>.esg`. "rmat_s<k>" is RMat(k, 16, 0.57, 0.19, 0.19)
/// with 2^k vertices; "ba_<n>k" is BarabasiAlbert(1000 n, 8).
StatusOr<Dataset> BuildDataset(const std::string& name,
                               const std::string& prefix);

/// The GraphStore loader every workload uses: v3 snapshot, mmap, verified.
service::GraphStore::Loader SnapshotLoader(const std::string& path);

// ---------------------------------------------------------------------------
// The service under test: GraphStore + JobScheduler + RpcServer in this
// process, driven over one RpcClient connection.

class Service {
 public:
  /// `tracer` may be null (end-to-end runs attach none).
  Service(const Dataset& dataset, const std::string& output_dir,
          obs::Tracer* tracer);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  Status Start();

  obs::MetricsRegistry& metrics() { return metrics_; }
  service::GraphStore& store() { return store_; }
  net::RpcClient::Channel& channel() { return *channel_; }
  const std::string& output_dir() const { return output_dir_; }

 private:
  const std::string output_dir_;
  obs::MetricsRegistry metrics_;
  service::GraphStore store_;
  service::JobScheduler scheduler_;
  net::RpcServer server_;
  std::unique_ptr<net::RpcClient> client_;
  std::unique_ptr<net::RpcClient::Channel> channel_;
};

// ---------------------------------------------------------------------------
// Live edge set mirrored on the benchmark side, so mutation batches are
// valid (inserts absent, deletes live) and kept snapshots can be checked.

class LiveEdges {
 public:
  explicit LiveEdges(const graph::Graph& g);
  size_t size() const { return keys_.size(); }
  bool Contains(graph::NodeId u, graph::NodeId v) const {
    return pos_.count(graph::EdgeKey(u, v)) != 0;
  }
  /// `count` mutations (count/2 deletes of live edges, the rest inserts of
  /// absent pairs), all distinct; does not apply them.
  graph::MutationBatch MakeBatch(uint64_t count, Rng* rng) const;
  void Apply(const graph::MutationBatch& batch);

 private:
  void Insert(uint64_t key);
  void Erase(uint64_t key);

  uint64_t num_nodes_;
  std::vector<uint64_t> keys_;
  std::unordered_map<uint64_t, size_t> pos_;
};

net::ApplyMutationsRequest ToRequest(const std::string& dataset,
                                     const graph::MutationBatch& batch);

/// Value of `key` in reply stats, or `fallback` when absent.
double StatValue(const std::vector<std::pair<std::string, double>>& stats,
                 const std::string& key, double fallback = 0.0);

/// Seed of request `i` of a run with workload seed `seed`.
uint64_t RequestSeed(uint64_t seed, uint64_t i);

// ---------------------------------------------------------------------------
// Runs

struct RunResult {
  Report report;    // per-layer metrics (traced run)
  Segment segment;  // raw end-to-end samples (untraced run)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;
  std::string trace_json;  // empty unless traced
};

/// Both run kinds share set-up; `trace` selects the per-layer run, which
/// fills `report`, over the end-to-end one, which fills `segment`.
StatusOr<RunResult> RunWorkload(const Workload& workload, const Args& args);

}  // namespace shedbench

#endif  // SHEDBENCH_BENCH_H_
