// Collaboration-network scenario (the paper's ca-GrQc / ca-HepPh use case):
// a scientist wants the influential authors and community texture of a
// co-authorship graph, but only has a laptop. Shed edges first, then run
// the analyses on the reduced graph and compare with ground truth.
//
// Usage:
//   collaboration_network [--p=0.4] [--dataset=grqc|hepph] [--scale=1.0]

#include <cstdio>
#include <string>

#include "analytics/clustering.h"
#include "analytics/pagerank.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/crr.h"
#include "eval/flags.h"
#include "eval/metrics.h"
#include "graph/datasets.h"

using namespace edgeshed;

int main(int argc, char** argv) {
  static constexpr eval::FlagSpec kFlags[] = {
      {"p", eval::FlagType::kDouble},
      {"dataset", eval::FlagType::kString},
      {"scale", eval::FlagType::kDouble}};
  const eval::Flags flags = eval::ParseFlagsOrExit(argc, argv, kFlags);
  const double p = flags.GetDouble("p", 0.4);
  const std::string dataset = flags.GetString("dataset", "grqc");

  graph::DatasetOptions options;
  options.scale = flags.GetDouble("scale", 1.0);
  graph::Graph g = graph::MakeDataset(dataset == "hepph"
                                          ? graph::DatasetId::kCaHepPh
                                          : graph::DatasetId::kCaGrQc,
                                      options);
  std::printf("collaboration network: %s authors, %s co-author links\n",
              FormatWithCommas(g.NumNodes()).c_str(),
              FormatWithCommas(g.NumEdges()).c_str());

  // Ground truth on the full graph.
  Stopwatch full_watch;
  std::vector<double> full_rank = analytics::PageRank(g);
  const double full_cc = analytics::AverageClusteringCoefficient(g);
  const double full_seconds = full_watch.ElapsedSeconds();

  // Reduce once, reuse for everything after.
  core::Crr crr;
  auto reduction = crr.Shed(g, {.p = p});
  if (!reduction.ok()) {
    std::fprintf(stderr, "reduction failed: %s\n",
                 reduction.status().ToString().c_str());
    return 1;
  }
  graph::Graph reduced = reduction->BuildReducedGraph(g);

  Stopwatch reduced_watch;
  std::vector<double> reduced_rank = analytics::PageRank(reduced);
  const double reduced_cc = analytics::AverageClusteringCoefficient(reduced);
  const double reduced_seconds = reduced_watch.ElapsedSeconds();

  // Top-10% influential authors: how much of the true list survives?
  std::vector<bool> eligible(reduced.NumNodes());
  for (graph::NodeId u = 0; u < reduced.NumNodes(); ++u) {
    eligible[u] = reduced.Degree(u) > 0;
  }
  auto true_top = eval::TopPercentNodes(full_rank, 10.0);
  auto reduced_top = eval::TopPercentNodes(reduced_rank, 10.0, &eligible);
  const double overlap = eval::OverlapUtility(true_top, reduced_top);

  std::printf("\nreduction (CRR, p = %.2f): kept %s links in %.2fs, "
              "avg delta %.3f\n",
              p, FormatWithCommas(reduction->kept_edges.size()).c_str(),
              reduction->reduction_seconds, reduction->average_delta);
  std::printf("\n%-34s %12s %12s\n", "metric", "full graph", "reduced");
  std::printf("%-34s %12.3f %12.3f\n", "analysis wall time (s)", full_seconds,
              reduced_seconds);
  std::printf("%-34s %12.4f %12.4f\n", "average clustering coefficient",
              full_cc, reduced_cc);
  std::printf("%-34s %12s %11.1f%%\n", "top-10%% author overlap", "100%",
              overlap * 100.0);
  std::printf("\n%d of the true top-10 authors survive in the reduced "
              "ranking's top-10:\n",
              static_cast<int>(
                  eval::OverlapUtility(
                      std::vector<uint32_t>(true_top.begin(),
                                            true_top.begin() +
                                                std::min<size_t>(
                                                    10, true_top.size())),
                      reduced_top) *
                  std::min<size_t>(10, true_top.size())));
  for (size_t i = 0; i < std::min<size_t>(10, true_top.size()); ++i) {
    std::printf("  author %u (pagerank %.5f)\n", true_top[i],
                full_rank[true_top[i]]);
  }
  return 0;
}
