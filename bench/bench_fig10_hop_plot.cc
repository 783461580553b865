// Reproduces Fig. 10: hop-plot — the fraction of reachable vertex pairs
// within distance k — original vs reduced graphs at p = 0.7 and p = 0.3.
//
// Paper shape to reproduce: all three methods approximate the original
// hop-plot reasonably well across datasets, with small regional deviations.

#include "bench/bench_util.h"
#include "analytics/shortest_paths.h"

using namespace edgeshed;

int main(int argc, char** argv) {
  const eval::Flags flags = bench::ParseBenchFlags(argc, argv);
  eval::BenchConfig config = eval::ParseBenchConfig(flags);
  bench::PrintBenchHeader("Fig. 10 — hop-plot", config);
  eval::TaskOptions task_options = bench::BenchTaskOptions(config.full);

  struct Target {
    graph::DatasetId id;
    double scale;
  };
  const Target targets[] = {
      {graph::DatasetId::kCaGrQc, 0.5},
      {graph::DatasetId::kCaHepPh, 0.1},
      {graph::DatasetId::kEmailEnron, 0.05},
  };
  core::Crr crr = bench::BenchCrr(config.full);
  core::Bm2 bm2 = bench::BenchBm2();
  baseline::Uds uds = bench::BenchUds(config.full);

  for (const Target& target : targets) {
    graph::Graph g = bench::LoadScaled(target.id, config, target.scale);
    const auto& spec = graph::GetDatasetSpec(target.id);
    Histogram original = analytics::DistanceProfile(g, task_options.distances);

    for (double p : {0.7, 0.3}) {
      auto crr_result = crr.Shed(g, {.p = p});
      auto bm2_result = bm2.Shed(g, {.p = p});
      auto uds_result = uds.Summarize(g, p);
      EDGESHED_CHECK(crr_result.ok());
      EDGESHED_CHECK(bm2_result.ok());
      EDGESHED_CHECK(uds_result.ok());
      Histogram crr_hist = analytics::DistanceProfile(
          crr_result->BuildReducedGraph(g), task_options.distances);
      Histogram bm2_hist = analytics::DistanceProfile(
          bm2_result->BuildReducedGraph(g), task_options.distances);
      Histogram uds_hist = baseline::UdsDistanceProfile(*uds_result);

      TablePrinter table(spec.name + ", p = " + FormatDouble(p, 1) +
                         " — fraction of reachable pairs within k hops");
      table.SetHeader({"hops k", "original", "CRR", "BM2", "UDS"});
      for (int64_t k = 1; k <= 10; ++k) {
        table.AddRow({std::to_string(k),
                      FormatDouble(analytics::HopPlotFraction(original, k), 4),
                      FormatDouble(analytics::HopPlotFraction(crr_hist, k), 4),
                      FormatDouble(analytics::HopPlotFraction(bm2_hist, k), 4),
                      FormatDouble(analytics::HopPlotFraction(uds_hist, k),
                                   4)});
      }
      bench::PrintTableWithCsv(table);
    }
  }
  std::printf("expected shape (paper Fig. 10): every method's hop-plot "
              "rises close to the original's, with small regional "
              "deviations.\n");
  return 0;
}
