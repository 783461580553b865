// Dynamic-graph benchmark: incremental re-shedding vs cold shedding
// (ISSUE 10, DESIGN.md §15).
//
// One Barabási–Albert graph (n=40,000 m=8; --smoke shrinks to n=8,000) is
// shed cold, then mutated at rates {0.1%, 1%, 5%} of |E| per batch (half
// deletes of live edges, half inserts of fresh pairs) with an incremental
// ShedSession re-shed after every batch. Emits median latencies for the
// pristine-base cold shed, ApplyBatch, the incremental re-shed, and a cold
// shed of the mutated version (the speedup baseline — it pays overlay
// materialization exactly as a from-scratch job would) into
// BENCH_dynamic.json (schema edgeshed-bench-dynamic-v1, diffed by
// tools/compare_bench.py like the other suites). --verbose additionally
// dumps the last re-shed's per-stage timing stats for each rate.
//
// Quality is reported as kept-set overlap: the incremental kept set vs a
// cold shed of the same mutated graph, against the self-overlap ceiling —
// two cold sheds of that graph differing only in swap seed (42 vs 43). The
// ceiling is the intrinsic noise floor of the phase-2 swap chain; an
// incremental result "inside the ceiling" is as close to the cold answer
// as another cold run would be.
//
// A last series, apply_batch_1pct_steady, applies 1% batches under the
// default VersionedGraphOptions (background compaction on) until two
// compactions have landed, so its batches meet every overlay size the
// compaction trigger allows, and installs mid-stream.
//
// Four in-process gates run on every run:
//   - at the 1% rate the incremental re-shed must be >= 10x faster than a
//     cold shed of the same mutated version (medians over --repeats) and
//     must actually take the incremental path (no full-rank fallback);
//   - at the 1% rate the incremental-vs-cold overlap must sit inside the
//     self-overlap ceiling (>= ceiling - 0.02 slack);
//   - compacting the mutated history must produce a base CSR bit-identical
//     to Graph::FromEdges over the live edge list (offsets, adjacency, and
//     incident arrays compared element-wise);
//   - the steady-state ApplyBatch median must be at most 2x the
//     apply_batch_1pct median, whose batches start on an empty overlay: a
//     batch costs O(batch), not O(overlay).
// The 5% rate is expected to cross full_rank_dirty_bound and fall back to
// a full ranking pass — that row documents the escape hatch, not a gate.
//
// Usage:
//   bench_dynamic [--out=BENCH_dynamic.json] [--repeats=5] [--smoke]
//                 [--verbose] [--rev=<git sha>]
//
// --rev defaults to $EDGESHED_GIT_REV, then "unknown". Any other flag, or a
// malformed value, exits 2.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "dyn/incremental_shed.h"
#include "dyn/versioned_graph.h"
#include "eval/flags.h"
#include "graph/generators/generators.h"
#include "graph/graph.h"
#include "graph/mutation_io.h"

namespace edgeshed::bench {
namespace {

double Median(std::vector<double> values) {
  EDGESHED_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

uint64_t PackedKey(graph::NodeId u, graph::NodeId v) {
  return (static_cast<uint64_t>(std::min(u, v)) << 32) | std::max(u, v);
}

/// One batch of `count` mutations against `snap`: floor(count/2) deletes of
/// distinct live edges, the rest inserts of distinct non-live pairs. Net
/// edge count stays within one edge of |E|, so the round(p·E) budget is
/// stable across batches.
graph::MutationBatch MakeBatch(const dyn::DeltaGraph& snap, uint64_t count,
                               Rng* rng) {
  graph::MutationBatch batch;
  const std::vector<graph::Edge> live = snap.LiveEdges();
  const auto n = static_cast<graph::NodeId>(snap.NumNodes());
  std::unordered_set<uint64_t> used;
  const uint64_t deletes = count / 2;
  while (batch.deletes.size() < deletes) {
    const graph::Edge& e = live[rng->UniformIndex(live.size())];
    if (used.insert(PackedKey(e.u, e.v)).second) batch.deletes.push_back(e);
  }
  while (batch.inserts.size() + batch.deletes.size() < count) {
    const auto u = static_cast<graph::NodeId>(rng->UniformIndex(n));
    const auto v = static_cast<graph::NodeId>(rng->UniformIndex(n));
    if (u == v) continue;
    const graph::NodeId lo = std::min(u, v);
    const graph::NodeId hi = std::max(u, v);
    if (snap.HasEdge(lo, hi)) continue;
    if (!used.insert(PackedKey(lo, hi)).second) continue;
    batch.inserts.push_back({lo, hi});
  }
  return batch;
}

/// |a ∩ b| / min(|a|, |b|); both sides here carry the same round(p·E)
/// budget, so the denominator choice is cosmetic.
double Overlap(const std::vector<graph::Edge>& a,
               const std::vector<graph::Edge>& b) {
  if (a.empty() || b.empty()) return 0.0;
  std::unordered_set<uint64_t> keys;
  keys.reserve(a.size());
  for (const graph::Edge& e : a) keys.insert(PackedKey(e.u, e.v));
  uint64_t shared = 0;
  for (const graph::Edge& e : b) shared += keys.count(PackedKey(e.u, e.v));
  return static_cast<double>(shared) /
         static_cast<double>(std::min(a.size(), b.size()));
}

struct BenchResult {
  std::string graph;
  uint64_t nodes = 0;
  uint64_t edges = 0;
  std::string op;
  double median_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
};

BenchResult MakeResult(const std::string& graph_name, uint64_t nodes,
                       uint64_t edges, const std::string& op,
                       std::vector<double> seconds) {
  BenchResult result;
  result.graph = graph_name;
  result.nodes = nodes;
  result.edges = edges;
  result.op = op;
  result.median_seconds = Median(seconds);
  result.min_seconds = *std::min_element(seconds.begin(), seconds.end());
  result.max_seconds = *std::max_element(seconds.begin(), seconds.end());
  std::printf("  %-12s %-28s median=%.4fs min=%.4fs max=%.4fs\n",
              graph_name.c_str(), op.c_str(), result.median_seconds,
              result.min_seconds, result.max_seconds);
  return result;
}

struct RateReport {
  double rate = 0.0;
  uint64_t mutations_per_batch = 0;
  bool full_rank = false;  // any re-shed at this rate fell back to full
  double overlap_incremental = 0.0;
  double overlap_self = 0.0;
  double avg_delta_incremental = 0.0;
  double avg_delta_cold = 0.0;
};

std::string RateOp(const char* what, double rate) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%s_%.4gpct", what, rate * 100.0);
  return buffer;
}

void WriteJson(const std::string& path, const std::string& rev, int repeats,
               const std::vector<BenchResult>& results,
               const std::vector<RateReport>& reports, double speedup_1pct,
               bool compaction_identical) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  EDGESHED_CHECK(out != nullptr) << "cannot write " << path;
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"edgeshed-bench-dynamic-v1\",\n");
  std::fprintf(out, "  \"git_rev\": \"%s\",\n", rev.c_str());
  std::fprintf(out, "  \"threads\": %d,\n", DefaultThreadCount());
  std::fprintf(out, "  \"repeats\": %d,\n", repeats);
  std::fprintf(out, "  \"speedup_at_1pct\": %.2f,\n", speedup_1pct);
  std::fprintf(out, "  \"compaction_identical\": %s,\n",
               compaction_identical ? "true" : "false");
  std::fprintf(out, "  \"rates\": [\n");
  for (size_t i = 0; i < reports.size(); ++i) {
    const RateReport& r = reports[i];
    std::fprintf(out,
                 "    {\"rate\": %.4f, \"mutations_per_batch\": %llu, "
                 "\"full_rank\": %s, \"overlap_incremental\": %.4f, "
                 "\"overlap_self\": %.4f, \"avg_delta_incremental\": %.4f, "
                 "\"avg_delta_cold\": %.4f}%s\n",
                 r.rate,
                 static_cast<unsigned long long>(r.mutations_per_batch),
                 r.full_rank ? "true" : "false", r.overlap_incremental,
                 r.overlap_self, r.avg_delta_incremental, r.avg_delta_cold,
                 i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(out,
                 "    {\"graph\": \"%s\", \"nodes\": %llu, \"edges\": %llu, "
                 "\"op\": \"%s\", \"median_seconds\": %.6f, "
                 "\"min_seconds\": %.6f, \"max_seconds\": %.6f}%s\n",
                 r.graph.c_str(), static_cast<unsigned long long>(r.nodes),
                 static_cast<unsigned long long>(r.edges), r.op.c_str(),
                 r.median_seconds, r.min_seconds, r.max_seconds,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s (%zu series, threads=%d, rev=%s)\n", path.c_str(),
              results.size(), DefaultThreadCount(), rev.c_str());
}

int Main(int argc, char** argv) {
  static constexpr eval::FlagSpec kFlags[] = {
      {"out", eval::FlagType::kString},
      {"repeats", eval::FlagType::kInt},
      {"smoke", eval::FlagType::kBool},
      {"verbose", eval::FlagType::kBool},
      {"rev", eval::FlagType::kString}};
  const eval::Flags flags = eval::ParseFlagsOrExit(argc, argv, kFlags);
  const std::string out = flags.GetString("out", "BENCH_dynamic.json");
  const int repeats = static_cast<int>(flags.GetInt("repeats", 5));
  const bool smoke = flags.GetBool("smoke", false);
  const bool verbose = flags.GetBool("verbose", false);
  const char* rev_env = std::getenv("EDGESHED_GIT_REV");
  const std::string rev =
      flags.GetString("rev", rev_env != nullptr ? rev_env : "unknown");
  EDGESHED_CHECK(repeats > 0);

  const graph::NodeId n = smoke ? 8000 : 40000;
  const std::string graph_name = smoke ? "ba_8k" : "ba_40k";
  std::printf("edgeshed dynamic suite: threads=%d repeats=%d%s\n",
              DefaultThreadCount(), repeats, smoke ? " (smoke)" : "");

  Rng gen_rng(9);
  auto base = std::make_shared<const graph::Graph>(
      graph::BarabasiAlbert(n, 8, gen_rng));
  const uint64_t edges = base->NumEdges();
  std::printf("%s: %s nodes, %s edges\n", graph_name.c_str(),
              FormatWithCommas(base->NumNodes()).c_str(),
              FormatWithCommas(edges).c_str());

  // Auto-compaction stays off so re-shed medians measure the session, not
  // a concurrently running compactor; compaction is timed explicitly below.
  dyn::VersionedGraphOptions vg_options;
  vg_options.auto_compact = false;
  dyn::DynamicShedOptions shed_options;
  shed_options.p = 0.5;
  shed_options.seed = 42;

  std::vector<BenchResult> results;

  // Cold shed: a fresh session over the pristine base each repeat.
  std::vector<double> cold_seconds;
  for (int r = 0; r < repeats; ++r) {
    auto vg = std::make_shared<dyn::VersionedGraph>(base, vg_options);
    dyn::ShedSession session(vg, shed_options);
    Stopwatch watch;
    auto cold = session.Reshed();
    EDGESHED_CHECK(cold.ok()) << cold.status().ToString();
    cold_seconds.push_back(watch.ElapsedSeconds());
  }
  results.push_back(
      MakeResult(graph_name, n, edges, "cold_shed", cold_seconds));
  const double cold_median = results.back().median_seconds;

  const double kRates[] = {0.001, 0.01, 0.05};
  std::vector<RateReport> reports;
  double incremental_median_1pct = 0.0;
  double cold_median_1pct = 0.0;
  bool compaction_identical = false;
  for (const double rate : kRates) {
    RateReport report;
    report.rate = rate;
    report.mutations_per_batch = std::max<uint64_t>(
        2, static_cast<uint64_t>(std::llround(rate * static_cast<double>(
                                                         edges))));

    auto vg = std::make_shared<dyn::VersionedGraph>(base, vg_options);
    dyn::ShedSession session(vg, shed_options);
    auto cold = session.Reshed();
    EDGESHED_CHECK(cold.ok()) << cold.status().ToString();

    Rng mutation_rng(static_cast<uint64_t>(rate * 1e6) + 11);
    std::vector<double> apply_seconds;
    std::vector<double> reshed_seconds;
    dyn::DynamicShedResult last;
    for (int r = 0; r < repeats; ++r) {
      graph::MutationBatch batch = MakeBatch(
          *vg->Snapshot(), report.mutations_per_batch, &mutation_rng);
      Stopwatch apply_watch;
      auto version = vg->ApplyBatch(std::move(batch));
      EDGESHED_CHECK(version.ok()) << version.status().ToString();
      apply_seconds.push_back(apply_watch.ElapsedSeconds());
      Stopwatch reshed_watch;
      auto reshed = session.Reshed();
      EDGESHED_CHECK(reshed.ok()) << reshed.status().ToString();
      reshed_seconds.push_back(reshed_watch.ElapsedSeconds());
      report.full_rank = report.full_rank || reshed->full_rank;
      last = *std::move(reshed);
    }
    if (verbose) {
      std::printf("  %-12s stats at rate=%.2f%%:", graph_name.c_str(),
                  rate * 100.0);
      for (const auto& [name, value] : last.stats) {
        std::printf(" %s=%.4f", name.c_str(), value);
      }
      std::printf("\n");
    }
    results.push_back(MakeResult(graph_name, n, edges,
                                 RateOp("apply_batch", rate), apply_seconds));
    results.push_back(MakeResult(graph_name, n, edges,
                                 RateOp("incremental_reshed", rate),
                                 reshed_seconds));
    const double reshed_median = results.back().median_seconds;

    // Cold baseline and quality at the final version: a fresh session over
    // the mutated graph pays what a from-scratch job pays at this exact
    // version — overlay materialization included — which is the honest
    // denominator for the speedup gate (the pristine-base cold_shed series
    // above shows the overlay-free cost for comparison). The session-seed
    // runs double as the overlap yardstick; a perturbed seed gives the
    // self-overlap ceiling it is judged against.
    std::vector<double> rate_cold_seconds;
    dyn::DynamicShedResult kept_42;
    for (int r = 0; r < repeats; ++r) {
      dyn::ShedSession cold_42(vg, shed_options);
      Stopwatch cold_watch;
      auto kept = cold_42.Reshed();
      EDGESHED_CHECK(kept.ok()) << kept.status().ToString();
      rate_cold_seconds.push_back(cold_watch.ElapsedSeconds());
      kept_42 = *std::move(kept);
    }
    results.push_back(MakeResult(graph_name, n, edges,
                                 RateOp("cold_shed", rate),
                                 rate_cold_seconds));
    const double rate_cold_median = results.back().median_seconds;
    dyn::DynamicShedOptions perturbed = shed_options;
    perturbed.seed = 43;
    dyn::ShedSession cold_43(vg, perturbed);
    auto kept_43 = cold_43.Reshed();
    EDGESHED_CHECK(kept_43.ok()) << kept_43.status().ToString();
    report.overlap_incremental = Overlap(last.kept, kept_42.kept);
    report.overlap_self = Overlap(kept_42.kept, kept_43->kept);
    report.avg_delta_incremental = last.average_delta;
    report.avg_delta_cold = kept_42.average_delta;
    std::printf(
        "  %-12s rate=%.2f%% mutations=%llu full_rank=%d "
        "overlap=%.4f ceiling=%.4f avg_delta=%.4f cold=%.4f\n",
        graph_name.c_str(), rate * 100.0,
        static_cast<unsigned long long>(report.mutations_per_batch),
        report.full_rank ? 1 : 0, report.overlap_incremental,
        report.overlap_self, report.avg_delta_incremental,
        report.avg_delta_cold);
    reports.push_back(report);

    if (rate == 0.01) {
      incremental_median_1pct = reshed_median;
      cold_median_1pct = rate_cold_median;

      // Compaction byte-identity on this mutated history: the compacted
      // base CSR must match Graph::FromEdges over the live edge list.
      auto before = vg->Snapshot();
      auto scratch = graph::Graph::FromEdges(
          static_cast<graph::NodeId>(before->NumNodes()),
          before->LiveEdges());
      EDGESHED_CHECK(scratch.ok()) << scratch.status().ToString();
      Stopwatch compact_watch;
      Status compacted = vg->Compact();
      EDGESHED_CHECK(compacted.ok()) << compacted.ToString();
      results.push_back(MakeResult(graph_name, n, edges, "compact",
                                   {compact_watch.ElapsedSeconds()}));
      auto head = vg->Snapshot();
      EDGESHED_CHECK_EQ(head->OverlaySize(), 0u);
      const graph::Graph& compacted_base = *head->base();
      compaction_identical =
          compacted_base.RawOffsets().size() ==
              scratch->RawOffsets().size() &&
          std::equal(compacted_base.RawOffsets().begin(),
                     compacted_base.RawOffsets().end(),
                     scratch->RawOffsets().begin()) &&
          compacted_base.RawAdjacency().size() ==
              scratch->RawAdjacency().size() &&
          std::equal(compacted_base.RawAdjacency().begin(),
                     compacted_base.RawAdjacency().end(),
                     scratch->RawAdjacency().begin()) &&
          compacted_base.RawIncident().size() ==
              scratch->RawIncident().size() &&
          std::equal(compacted_base.RawIncident().begin(),
                     compacted_base.RawIncident().end(),
                     scratch->RawIncident().begin());
    }
  }

  // Steady-state apply: 1% batches under the default options, so the
  // overlay grows, background compactions fold it, and batches land while
  // a compactor runs or installs. Runs until two compactions have landed.
  std::vector<double> steady_seconds;
  {
    auto vg = std::make_shared<dyn::VersionedGraph>(base);
    Rng steady_rng(17);
    std::shared_ptr<const graph::Graph> current_base = base;
    int compactions = 0;
    while (compactions < 2) {
      EDGESHED_CHECK_LT(steady_seconds.size(), 1000u)
          << "two compactions did not land in 1000 batches";
      graph::MutationBatch batch = MakeBatch(
          *vg->Snapshot(), reports[1].mutations_per_batch, &steady_rng);
      Stopwatch apply_watch;
      auto version = vg->ApplyBatch(std::move(batch));
      EDGESHED_CHECK(version.ok()) << version.status().ToString();
      steady_seconds.push_back(apply_watch.ElapsedSeconds());
      std::shared_ptr<const graph::Graph> head_base = vg->Snapshot()->base();
      if (head_base != current_base) {
        ++compactions;
        current_base = std::move(head_base);
      }
    }
  }
  const double first_apply_median_1pct =
      std::find_if(results.begin(), results.end(), [](const BenchResult& r) {
        return r.op == "apply_batch_1pct";
      })->median_seconds;
  results.push_back(MakeResult(graph_name, n, edges,
                               "apply_batch_1pct_steady", steady_seconds));
  const double steady_apply_median_1pct = results.back().median_seconds;

  // --- Acceptance gates ---------------------------------------------------
  // A batch must cost O(batch), not O(overlay): applying it on the steady
  // overlay may cost at most twice what it costs on a near-empty one.
  std::printf("gate: steady apply at 1%% = %.4fs over %zu batches vs %.4fs "
              "for apply_batch_1pct (%.2fx)\n",
              steady_apply_median_1pct, steady_seconds.size(),
              first_apply_median_1pct,
              steady_apply_median_1pct / first_apply_median_1pct);
  EDGESHED_CHECK_LE(steady_apply_median_1pct, 2.0 * first_apply_median_1pct)
      << "steady-state ApplyBatch median grew past 2x the apply_batch_1pct "
      << "median: a batch costs more as the overlay grows";

  // Speedup compares like for like: the incremental re-shed against a cold
  // shed of the *same mutated version* (which pays overlay materialization,
  // exactly as a from-scratch job would).
  const double speedup =
      incremental_median_1pct > 0.0
          ? cold_median_1pct / incremental_median_1pct
          : 0.0;
  std::printf("gate: incremental speedup at 1%% = %.1fx (cold at version "
              "%.4fs, pristine %.4fs / incremental %.4fs)\n",
              speedup, cold_median_1pct, cold_median,
              incremental_median_1pct);
  EDGESHED_CHECK(speedup >= 10.0)
      << "incremental re-shed at 1% mutation rate must be >= 10x faster "
      << "than a cold shed of the same version, got " << speedup << "x";
  const RateReport& one_pct = reports[1];
  EDGESHED_CHECK(!one_pct.full_rank)
      << "1% mutation rate fell back to a full ranking pass";
  EDGESHED_CHECK(one_pct.overlap_incremental >= one_pct.overlap_self - 0.02)
      << "incremental kept-set overlap " << one_pct.overlap_incremental
      << " fell outside the self-overlap ceiling " << one_pct.overlap_self;
  EDGESHED_CHECK(compaction_identical)
      << "compacted base CSR differs from a from-scratch Graph::FromEdges "
      << "build of the live edge list";
  std::printf("gate: overlap %.4f vs ceiling %.4f, compaction identical\n",
              one_pct.overlap_incremental, one_pct.overlap_self);

  WriteJson(out, rev, repeats, results, reports, speedup,
            compaction_identical);
  return 0;
}

}  // namespace
}  // namespace edgeshed::bench

int main(int argc, char** argv) { return edgeshed::bench::Main(argc, argv); }
