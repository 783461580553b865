// Quickstart: generate (or load) a graph, shed edges with CRR and BM2, and
// inspect how well the reduced graphs preserve degree structure.
//
// Usage:
//   quickstart [--p=0.5] [--edge_list=path/to/snap.txt]

#include <cstdio>
#include <iostream>

#include "analytics/degree.h"
#include "common/strings.h"
#include "core/bm2.h"
#include "core/bounds.h"
#include "core/crr.h"
#include "eval/flags.h"
#include "graph/datasets.h"
#include "graph/edge_list_io.h"

using namespace edgeshed;

int main(int argc, char** argv) {
  static constexpr eval::FlagSpec kFlags[] = {
      {"p", eval::FlagType::kDouble},
      {"edge_list", eval::FlagType::kString}};
  const eval::Flags flags = eval::ParseFlagsOrExit(argc, argv, kFlags);
  const double p = flags.GetDouble("p", 0.5);
  const std::string edge_list = flags.GetString("edge_list", "");

  // 1. Get a graph: a real SNAP edge list if provided, otherwise the
  //    built-in ca-GrQc-like surrogate.
  graph::Graph g;
  if (!edge_list.empty()) {
    auto loaded = graph::LoadGraph(edge_list);  // any on-disk format
    if (!loaded.ok()) {
      std::cerr << "failed to load " << edge_list << ": "
                << loaded.status() << "\n";
      return 1;
    }
    g = std::move(loaded)->graph;
  } else {
    g = graph::MakeDataset(graph::DatasetId::kCaGrQc);
  }
  std::printf("graph: %s nodes, %s edges, avg degree %.2f\n",
              FormatWithCommas(g.NumNodes()).c_str(),
              FormatWithCommas(g.NumEdges()).c_str(), g.AverageDegree());

  // 2. Reduce with both methods.
  for (const core::EdgeShedder* shedder :
       {static_cast<const core::EdgeShedder*>(new core::Crr()),
        static_cast<const core::EdgeShedder*>(new core::Bm2())}) {
    auto result = shedder->Shed(g, {.p = p});
    if (!result.ok()) {
      std::cerr << shedder->name() << ": " << result.status() << "\n";
      return 1;
    }
    const double bound = shedder->name() == "crr"
                             ? core::CrrAverageDeltaBound(g, p)
                             : core::Bm2AverageDeltaBound(g, p);
    std::printf(
        "%-4s kept %s edges in %.3fs | avg delta %.4f (theorem bound %.3f)\n",
        shedder->name().c_str(),
        FormatWithCommas(result->kept_edges.size()).c_str(),
        result->reduction_seconds, result->average_delta, bound);

    // 3. Check the degree-distribution estimate against the original.
    graph::Graph reduced = result->BuildReducedGraph(g);
    auto original_degrees = analytics::DegreeDistribution(g);
    auto estimated_degrees = analytics::EstimatedDegreeDistribution(reduced, p);
    std::printf("     degree-distribution KS distance vs original: %.4f\n",
                Histogram::KsDistance(original_degrees, estimated_degrees));
    delete shedder;
  }
  return 0;
}
