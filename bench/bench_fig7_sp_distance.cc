// Reproduces Fig. 7: distribution of shortest-path distances over reachable
// pairs, original vs reduced graphs, on the three small datasets at
// p = 0.7 and p = 0.3.
//
// Paper shape to reproduce: at large p all methods track the original; at
// p = 0.3 CRR/BM2 still follow the curve's trend while UDS deviates
// significantly (its supernode graph compresses distances).

#include "bench/bench_util.h"
#include "analytics/shortest_paths.h"

using namespace edgeshed;

int main(int argc, char** argv) {
  const eval::Flags flags = bench::ParseBenchFlags(argc, argv);
  eval::BenchConfig config = eval::ParseBenchConfig(flags);
  bench::PrintBenchHeader("Fig. 7 — shortest-path distance distribution",
                          config);
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
                         " — fraction of reachable pairs per distance");
      table.SetHeader({"distance", "original", "CRR", "BM2", "UDS"});
      int64_t max_key = 0;
      for (const Histogram* h : {&original, &crr_hist, &bm2_hist, &uds_hist}) {
        if (!h->Keys().empty()) max_key = std::max(max_key, h->Keys().back());
      }
      for (int64_t d = 1; d <= std::min<int64_t>(max_key, 14); ++d) {
        table.AddRow({std::to_string(d),
                      FormatDouble(original.FractionFor(d), 4),
                      FormatDouble(crr_hist.FractionFor(d), 4),
                      FormatDouble(bm2_hist.FractionFor(d), 4),
                      FormatDouble(uds_hist.FractionFor(d), 4)});
      }
      bench::PrintTableWithCsv(table);
      std::printf("L1 distance vs original: CRR %.3f | BM2 %.3f | UDS %.3f\n\n",
                  Histogram::L1Distance(original, crr_hist),
                  Histogram::L1Distance(original, bm2_hist),
                  Histogram::L1Distance(original, uds_hist));
    }
  }
  std::printf("expected shape (paper Fig. 7): at p=0.7 every method tracks "
              "the original; at p=0.3 CRR/BM2 keep the trend while UDS "
              "deviates significantly.\n");
  return 0;
}
