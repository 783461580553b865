// Reproduces Fig. 9: clustering coefficient versus vertex degree, original
// vs reduced graphs at p = 0.7 and p = 0.3.
//
// Paper shape to reproduce: at large p both methods approximate the
// original curve; at small p accuracy degrades but stays far ahead of UDS.

#include <map>

#include "bench/bench_util.h"
#include "analytics/clustering.h"

using namespace edgeshed;

namespace {

int64_t Bucket(uint64_t degree) {
  int64_t bucket = 0;
  while (degree > 1) {
    degree >>= 1;
    ++bucket;
  }
  return bucket;
}

std::map<int64_t, double> MeanClusteringByBucket(const graph::Graph& g) {
  auto coefficients = analytics::LocalClusteringCoefficients(g);
  std::map<int64_t, std::pair<double, uint64_t>> sums;
  for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    if (g.Degree(u) < 2) continue;
    auto& [sum, count] = sums[Bucket(g.Degree(u))];
    sum += coefficients[u];
    ++count;
  }
  std::map<int64_t, double> means;
  for (const auto& [bucket, entry] : sums) {
    means[bucket] = entry.first / static_cast<double>(entry.second);
  }
  return means;
}

}  // namespace

int main(int argc, char** argv) {
  const eval::Flags flags = bench::ParseBenchFlags(argc, argv);
  eval::BenchConfig config = eval::ParseBenchConfig(flags);
  bench::PrintBenchHeader("Fig. 9 — clustering coefficient vs vertex degree",
                          config);

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
    auto original_mean = MeanClusteringByBucket(g);
    const double original_avg = analytics::AverageClusteringCoefficient(g);

    for (double p : {0.7, 0.3}) {
      auto crr_result = crr.Shed(g, {.p = p});
      auto bm2_result = bm2.Shed(g, {.p = p});
      auto uds_result = uds.Summarize(g, p);
      EDGESHED_CHECK(crr_result.ok());
      EDGESHED_CHECK(bm2_result.ok());
      EDGESHED_CHECK(uds_result.ok());
      graph::Graph crr_graph = crr_result->BuildReducedGraph(g);
      graph::Graph bm2_graph = bm2_result->BuildReducedGraph(g);
      auto crr_mean = MeanClusteringByBucket(crr_graph);
      auto bm2_mean = MeanClusteringByBucket(bm2_graph);
      auto uds_mean = MeanClusteringByBucket(uds_result->summary_graph);

      TablePrinter table(spec.name + ", p = " + FormatDouble(p, 1) +
                         " — mean clustering coefficient by degree bucket");
      table.SetHeader({"degree bucket", "original", "CRR", "BM2", "UDS"});
      for (const auto& [bucket, value] : original_mean) {
        const int64_t lo = int64_t{1} << bucket;
        const int64_t hi = (int64_t{1} << (bucket + 1)) - 1;
        auto cell = [&](std::map<int64_t, double>& m) {
          return m.contains(bucket) ? FormatDouble(m[bucket], 4)
                                    : std::string("-");
        };
        table.AddRow({std::to_string(lo) + "-" + std::to_string(hi),
                      FormatDouble(value, 4), cell(crr_mean), cell(bm2_mean),
                      cell(uds_mean)});
      }
      bench::PrintTableWithCsv(table);
      std::printf("network average clustering: original %.4f | CRR %.4f | "
                  "BM2 %.4f | UDS %.4f\n\n",
                  original_avg,
                  analytics::AverageClusteringCoefficient(crr_graph),
                  analytics::AverageClusteringCoefficient(bm2_graph),
                  analytics::AverageClusteringCoefficient(
                      uds_result->summary_graph));
    }
  }
  std::printf("expected shape (paper Fig. 9): close tracking at p=0.7, "
              "degraded but UDS-beating estimates at p=0.3.\n");
  return 0;
}
