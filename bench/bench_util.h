#ifndef EDGESHED_BENCH_BENCH_UTIL_H_
#define EDGESHED_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "analytics/betweenness.h"
#include "baseline/uds.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/bm2.h"
#include "core/crr.h"
#include "eval/experiment.h"
#include "eval/flags.h"
#include "eval/task_runner.h"
#include "graph/datasets.h"

namespace edgeshed::bench {

/// Parses a bench binary's flags: the ones eval::ParseBenchConfig reads
/// (--scale, --full, --seed, --data_dir) plus the binary's own `extra`.
/// Anything else, or a malformed value, exits 2 naming it.
inline eval::Flags ParseBenchFlags(
    int argc, char** argv, std::initializer_list<eval::FlagSpec> extra = {}) {
  std::vector<eval::FlagSpec> accepted = {
      {"scale", eval::FlagType::kDouble},
      {"full", eval::FlagType::kBool},
      {"seed", eval::FlagType::kInt},
      {"data_dir", eval::FlagType::kString}};
  accepted.insert(accepted.end(), extra);
  return eval::ParseFlagsOrExit(argc, argv, accepted);
}

/// Betweenness settings used across the harness on a laptop-class budget:
/// exact Brandes below 4096 vertices, 256 sampled pivots above
/// (DESIGN.md §3). --full raises the exact threshold to the paper's small
/// datasets.
inline analytics::BetweennessOptions BenchBetweenness(bool full) {
  analytics::BetweennessOptions options;
  options.exact_node_threshold = full ? (uint64_t{1} << 14) : 4096;
  options.sample_sources = 256;
  return options;
}

/// Task options trimmed for single-core default runs; --full restores
/// heavier settings (more walks, larger embeddings, more BFS sources).
inline eval::TaskOptions BenchTaskOptions(bool full) {
  eval::TaskOptions options;
  options.betweenness = BenchBetweenness(full);
  options.distances.exact_node_threshold = full ? (uint64_t{1} << 15) : 8192;
  options.distances.sample_sources = full ? 1024 : 384;
  options.link_prediction.walks.walks_per_node = full ? 10 : 4;
  options.link_prediction.walks.walk_length = full ? 40 : 16;
  options.link_prediction.skipgram.dimensions = full ? 64 : 32;
  options.link_prediction.skipgram.epochs = full ? 2 : 1;
  options.link_prediction.kmeans.clusters = 5;  // paper: n_clusters = 5
  return options;
}

/// Configured shedders for the method columns of the paper's tables.
inline core::Crr BenchCrr(bool full, uint64_t seed = 42) {
  core::CrrOptions options;
  options.betweenness = BenchBetweenness(full);
  options.seed = seed;
  return core::Crr(options);
}

inline core::Bm2 BenchBm2(uint64_t seed = 42) {
  core::Bm2Options options;
  options.seed = seed;
  return core::Bm2(options);
}

inline baseline::Uds BenchUds(bool full, uint64_t seed = 42) {
  baseline::UdsOptions options;
  options.importance = BenchBetweenness(full);
  options.seed = seed;
  return baseline::Uds(options);
}

/// Default per-dataset scale for a bench binary. UDS-bearing benches pass
/// their own (smaller) defaults; --full always restores 1.0 (and the paper's
/// LiveJournal size).
inline double BenchScale(const eval::BenchConfig& config,
                         graph::DatasetId id, double uds_friendly_scale) {
  if (config.full) return config.scale;
  (void)id;
  return uds_friendly_scale * config.scale;
}

inline graph::Graph LoadScaled(graph::DatasetId id,
                               const eval::BenchConfig& config,
                               double uds_friendly_scale) {
  graph::DatasetOptions options;
  options.seed = config.seed;
  options.scale = config.full
                      ? eval::DefaultDatasetScale(id, true) * config.scale
                      : eval::DefaultDatasetScale(id, false) *
                            BenchScale(config, id, uds_friendly_scale);
  std::string path;
  if (!config.data_dir.empty()) {
    path = config.data_dir + "/" + graph::GetDatasetSpec(id).name + ".txt";
  }
  return graph::MakeDatasetOrLoad(id, path, options);
}

/// Prints a bench header with graph provenance.
inline void PrintBenchHeader(const std::string& title,
                             const eval::BenchConfig& config) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("mode: %s (use --full for paper-scale surrogates; --scale=X "
              "to rescale)\n",
              config.full ? "FULL" : "default (downscaled for laptop runs)");
  std::printf("==============================================================\n");
}

inline void PrintTableWithCsv(const TablePrinter& table) {
  std::printf("%s\n", table.ToString().c_str());
  std::printf("--- CSV ---\n%s\n", table.ToCsv().c_str());
}

inline std::string Seconds(double s) { return FormatDouble(s, 3); }

}  // namespace edgeshed::bench

#endif  // EDGESHED_BENCH_BENCH_UTIL_H_
