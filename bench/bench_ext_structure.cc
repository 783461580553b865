// Extension bench (not in the paper): fidelity of *structural* summaries
// beyond the paper's seven tasks — coreness distribution, degeneracy,
// degree assortativity, eigenvector-centrality top-k, and effective
// diameter — across the shedding methods. Degree-preserving shedding
// should keep degree-derived structure (coreness shapes, assortativity
// sign) better than uniform sampling keeps it.

#include "bench/bench_util.h"
#include "analytics/approx_neighborhood.h"
#include "analytics/assortativity.h"
#include "analytics/eigenvector.h"
#include "analytics/kcore.h"
#include "analytics/louvain.h"
#include "core/random_shedding.h"
#include "eval/metrics.h"

using namespace edgeshed;

int main(int argc, char** argv) {
  eval::Flags flags(argc, argv);
  eval::BenchConfig config = eval::ParseBenchConfig(flags);
  const double p = flags.GetDouble("p", 0.5);
  bench::PrintBenchHeader(
      "Extension — structural fidelity (k-core / assortativity / "
      "eigenvector / diameter)",
      config);

  graph::Graph g = bench::LoadScaled(graph::DatasetId::kCaGrQc, config, 1.0);
  std::printf("ca-GrQc surrogate: %s nodes, %s edges, p = %.1f\n\n",
              FormatWithCommas(g.NumNodes()).c_str(),
              FormatWithCommas(g.NumEdges()).c_str(), p);

  const Histogram original_coreness = analytics::CorenessDistribution(g);
  const double original_assortativity = analytics::DegreeAssortativity(g);
  const auto original_eigen = analytics::EigenvectorCentrality(g);
  const auto original_top = eval::TopPercentNodes(original_eigen, 10.0);
  const double original_diameter =
      analytics::ApproximateNeighborhoodFunction(g).EffectiveDiameter();

  core::Crr crr = bench::BenchCrr(config.full);
  core::Bm2 bm2 = bench::BenchBm2();
  core::RandomShedding random_shedding(7);

  const double original_modularity = analytics::Louvain(g).modularity;

  TablePrinter table;
  table.SetHeader({"method", "degeneracy (orig " +
                       std::to_string(analytics::Degeneracy(g)) + ")",
                   "coreness KS", "assortativity (orig " +
                       FormatDouble(original_assortativity, 3) + ")",
                   "eigen top-10% overlap", "eff. diameter (orig " +
                       FormatDouble(original_diameter, 2) + ")",
                   "community Q on G (orig " +
                       FormatDouble(original_modularity, 3) + ")"});
  for (const core::EdgeShedder* shedder :
       {static_cast<const core::EdgeShedder*>(&crr),
        static_cast<const core::EdgeShedder*>(&bm2),
        static_cast<const core::EdgeShedder*>(&random_shedding)}) {
    auto result = shedder->Shed(g, {.p = p});
    EDGESHED_CHECK(result.ok());
    graph::Graph reduced = result->BuildReducedGraph(g);
    const auto eigen = analytics::EigenvectorCentrality(reduced);
    std::vector<bool> eligible(reduced.NumNodes());
    for (graph::NodeId u = 0; u < reduced.NumNodes(); ++u) {
      eligible[u] = reduced.Degree(u) > 0;
    }
    const auto top = eval::TopPercentNodes(eigen, 10.0, &eligible);
    table.AddRow(
        {shedder->name(),
         std::to_string(analytics::Degeneracy(reduced)),
         FormatDouble(
             Histogram::KsDistance(original_coreness,
                                   analytics::CorenessDistribution(reduced)),
             4),
         FormatDouble(analytics::DegreeAssortativity(reduced), 3),
         FormatDouble(eval::OverlapUtility(original_top, top), 3),
         FormatDouble(analytics::ApproximateNeighborhoodFunction(reduced)
                          .EffectiveDiameter(),
                      2),
         // Communities found on G' scored against G: how much of the
         // original modularity does the reduced graph's structure recover?
         FormatDouble(
             analytics::Modularity(g,
                                   analytics::Louvain(reduced).community),
             3)});
  }
  bench::PrintTableWithCsv(table);
  std::printf(
      "reading: degeneracy and the assortativity regime survive; raw\n"
      "coreness values shift down by ~p (KS reflects the shift, not shape\n"
      "loss — estimate core'/p when comparing levels); eigenvector top-k\n"
      "overlap sits near the PageRank numbers of Tables VIII-IX; distances\n"
      "stretch (diameter up) since G' is a spanning subgraph.\n");
  return 0;
}
