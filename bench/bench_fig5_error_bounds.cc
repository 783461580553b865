// Reproduces Fig. 5(a)-(b): measured average delta of CRR and BM2 versus
// the Theorem 1 / Theorem 2 error bounds across p, on ca-GrQc.
//
// Paper shape to reproduce: the bounds are loose; measured average delta
// stays below 1 for every p for both methods.

#include "bench/bench_util.h"
#include "core/bounds.h"

using namespace edgeshed;

int main(int argc, char** argv) {
  const eval::Flags flags = bench::ParseBenchFlags(argc, argv);
  eval::BenchConfig config = eval::ParseBenchConfig(flags);
  bench::PrintBenchHeader(
      "Fig. 5(a)-(b) — measured average delta vs theorem bounds (ca-GrQc)",
      config);

  graph::Graph g = bench::LoadScaled(graph::DatasetId::kCaGrQc, config, 0.5);
  std::printf("ca-GrQc surrogate: %s nodes, %s edges\n",
              FormatWithCommas(g.NumNodes()).c_str(),
              FormatWithCommas(g.NumEdges()).c_str());

  core::Crr crr = bench::BenchCrr(config.full);
  core::Bm2 bm2 = bench::BenchBm2();

  TablePrinter table;
  table.SetHeader({"p", "CRR avg delta", "Thm-1 bound", "BM2 avg delta",
                   "Thm-2 bound"});
  for (double p : eval::PaperPreservationRatios()) {
    auto crr_result = crr.Shed(g, {.p = p});
    auto bm2_result = bm2.Shed(g, {.p = p});
    EDGESHED_CHECK(crr_result.ok());
    EDGESHED_CHECK(bm2_result.ok());
    table.AddRow({FormatDouble(p, 1),
                  FormatDouble(crr_result->average_delta, 4),
                  FormatDouble(core::CrrAverageDeltaBound(g, p), 3),
                  FormatDouble(bm2_result->average_delta, 4),
                  FormatDouble(core::Bm2AverageDeltaBound(g, p), 3)});
  }
  bench::PrintTableWithCsv(table);
  std::printf("expected shape (paper Fig. 5a-b): measured errors stay "
              "below 1 for all p and far below the loose bounds.\n");
  return 0;
}
