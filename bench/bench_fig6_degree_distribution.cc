// Reproduces Fig. 5(c)-(d) and Fig. 6: vertex degree distributions of the
// original email-Enron graph versus the distributions estimated from the
// reduced graphs (deg'/p for CRR/BM2; expected supernode reconstruction for
// UDS), at p = 0.5 and p = 0.1. Degrees above 300 aggregate into one bucket
// (as in the paper), and the Fig. 6 zoom covers degrees 1..18.
//
// Paper shape to reproduce: CRR and BM2 sit on top of the original curve;
// UDS deviates visibly. We also print KS distances as the scalar summary.

#include "bench/bench_util.h"
#include "analytics/degree.h"

using namespace edgeshed;

namespace {

void PrintSeries(const std::string& dataset_label, double p,
                 const Histogram& original, const Histogram& crr_hist,
                 const Histogram& bm2_hist, const Histogram& uds_hist) {
  TablePrinter table(dataset_label + " — fraction of vertices per degree "
                     "(zoom 1..18, Fig. 6)");
  table.SetHeader({"degree", "original", "CRR est.", "BM2 est.", "UDS est."});
  for (int64_t degree = 1; degree <= 18; ++degree) {
    table.AddRow({std::to_string(degree),
                  FormatDouble(original.FractionFor(degree), 5),
                  FormatDouble(crr_hist.FractionFor(degree), 5),
                  FormatDouble(bm2_hist.FractionFor(degree), 5),
                  FormatDouble(uds_hist.FractionFor(degree), 5)});
  }
  edgeshed::bench::PrintTableWithCsv(table);
  std::printf("KS distance vs original at p=%.1f:  CRR %.4f | BM2 %.4f | "
              "UDS %.4f\n\n",
              p, Histogram::KsDistance(original, crr_hist),
              Histogram::KsDistance(original, bm2_hist),
              Histogram::KsDistance(original, uds_hist));
}

}  // namespace

int main(int argc, char** argv) {
  const eval::Flags flags = bench::ParseBenchFlags(argc, argv);
  eval::BenchConfig config = eval::ParseBenchConfig(flags);
  bench::PrintBenchHeader(
      "Fig. 5(c)-(d) + Fig. 6 — vertex degree distribution (email-Enron)",
      config);

  graph::Graph g =
      bench::LoadScaled(graph::DatasetId::kEmailEnron, config, 0.05);
  std::printf("email-Enron surrogate: %s nodes, %s edges\n\n",
              FormatWithCommas(g.NumNodes()).c_str(),
              FormatWithCommas(g.NumEdges()).c_str());

  constexpr int64_t kCap = 300;  // paper: degrees > 300 aggregated
  Histogram original = analytics::DegreeDistribution(g, kCap);

  core::Crr crr = bench::BenchCrr(config.full);
  core::Bm2 bm2 = bench::BenchBm2();
  baseline::Uds uds = bench::BenchUds(config.full);
  for (double p : {0.5, 0.1}) {
    auto crr_result = crr.Shed(g, {.p = p});
    auto bm2_result = bm2.Shed(g, {.p = p});
    auto uds_result = uds.Summarize(g, p);
    EDGESHED_CHECK(crr_result.ok());
    EDGESHED_CHECK(bm2_result.ok());
    EDGESHED_CHECK(uds_result.ok());
    Histogram crr_hist = analytics::EstimatedDegreeDistribution(
        crr_result->BuildReducedGraph(g), p, kCap);
    Histogram bm2_hist = analytics::EstimatedDegreeDistribution(
        bm2_result->BuildReducedGraph(g), p, kCap);
    Histogram uds_hist =
        baseline::UdsEstimatedDegreeDistribution(*uds_result, kCap);
    PrintSeries("email-Enron, p = " + FormatDouble(p, 1), p, original,
                crr_hist, bm2_hist, uds_hist);
  }
  std::printf("expected shape (paper Figs. 5c-d, 6): CRR/BM2 estimates "
              "track the original degree curve closely; UDS deviates.\n");
  return 0;
}
