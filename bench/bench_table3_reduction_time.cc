// Reproduces Table III: graph reduction time (seconds) of UDS, CRR and BM2
// for p in {0.9 ... 0.1} on all four datasets. As in the paper, UDS is not
// run on com-LiveJournal (its cost is prohibitive there).
//
// Paper shape to reproduce:
//  * UDS time explodes as p shrinks (its merge budget grows);
//  * CRR time is nearly flat in p (betweenness dominates);
//  * BM2 is orders of magnitude faster than both and nearly flat;
//  * larger datasets magnify UDS's blow-up (crossover vs CRR moves left).

#include "bench/bench_util.h"

using namespace edgeshed;

int main(int argc, char** argv) {
  const eval::Flags flags =
      bench::ParseBenchFlags(argc, argv, {{"uds", eval::FlagType::kBool}});
  eval::BenchConfig config = eval::ParseBenchConfig(flags);
  const bool run_uds = flags.GetBool("uds", true);
  bench::PrintBenchHeader("Table III — graph reduction time (sec)", config);

  struct Target {
    graph::DatasetId id;
    double scale;  // UDS-friendly default downscale
    bool with_uds;
  };
  const Target targets[] = {
      {graph::DatasetId::kCaGrQc, 0.5, true},
      {graph::DatasetId::kCaHepPh, 0.1, true},
      {graph::DatasetId::kEmailEnron, 0.05, true},
      {graph::DatasetId::kComLiveJournal, 0.5, false},  // paper: no UDS
  };

  for (const Target& target : targets) {
    graph::Graph g = bench::LoadScaled(target.id, config, target.scale);
    const auto& spec = graph::GetDatasetSpec(target.id);
    std::printf("\n%s surrogate: %s nodes, %s edges\n", spec.name.c_str(),
                FormatWithCommas(g.NumNodes()).c_str(),
                FormatWithCommas(g.NumEdges()).c_str());

    TablePrinter table;
    table.SetHeader({"p", "UDS", "CRR", "BM2"});
    core::Crr crr = bench::BenchCrr(config.full);
    core::Bm2 bm2 = bench::BenchBm2();
    baseline::Uds uds = bench::BenchUds(config.full);
    for (double p : eval::PaperPreservationRatios()) {
      std::string uds_cell = "-";
      if (run_uds && target.with_uds) {
        auto summary = uds.Summarize(g, p);
        EDGESHED_CHECK(summary.ok());
        uds_cell = bench::Seconds(summary->reduction_seconds);
      }
      auto crr_result = crr.Shed(g, {.p = p});
      auto bm2_result = bm2.Shed(g, {.p = p});
      EDGESHED_CHECK(crr_result.ok());
      EDGESHED_CHECK(bm2_result.ok());
      table.AddRow({FormatDouble(p, 1), uds_cell,
                    bench::Seconds(crr_result->reduction_seconds),
                    bench::Seconds(bm2_result->reduction_seconds)});
    }
    bench::PrintTableWithCsv(table);
  }
  std::printf("expected shape (paper Table III): UDS blows up as p "
              "shrinks; CRR flat in p; BM2 fastest by orders of "
              "magnitude.\n");
  return 0;
}
