// Extension bench (not in the paper): one-pass streaming shedding versus
// the offline algorithms on the same graph. Quantifies the price of the
// semi-streaming constraint (shed edges are unrecoverable) across p.

#include <cmath>

#include "bench/bench_util.h"
#include "core/random_shedding.h"
#include "stream/streaming_shedder.h"
#include "stream/tcm_sketch.h"

using namespace edgeshed;

int main(int argc, char** argv) {
  eval::Flags flags(argc, argv);
  eval::BenchConfig config = eval::ParseBenchConfig(flags);
  bench::PrintBenchHeader(
      "Extension — streaming vs offline shedding (avg delta)", config);

  graph::Graph g = bench::LoadScaled(graph::DatasetId::kCaGrQc, config, 1.0);
  std::printf("ca-GrQc surrogate: %s nodes, %s edges\n\n",
              FormatWithCommas(g.NumNodes()).c_str(),
              FormatWithCommas(g.NumEdges()).c_str());

  // Randomized arrival order (same for every p).
  Rng rng(31);
  std::vector<graph::Edge> arrivals(g.edges().begin(), g.edges().end());
  rng.Shuffle(&arrivals);

  core::Crr crr = bench::BenchCrr(config.full);
  core::Bm2 bm2 = bench::BenchBm2();
  core::RandomShedding random_shedding(7);

  TablePrinter table;
  table.SetHeader({"p", "stream(k=1)", "stream(k=8)", "stream(k=32)",
                   "offline random", "offline BM2", "offline CRR"});
  for (double p : {0.9, 0.7, 0.5, 0.3, 0.1}) {
    auto stream_delta = [&](uint32_t samples) {
      stream::StreamingShedderOptions options;
      options.eviction_samples = samples;
      stream::StreamingShedder shedder(p, options);
      for (const graph::Edge& e : arrivals) shedder.AddEdge(e.u, e.v);
      return shedder.AverageDelta();
    };
    auto crr_result = crr.Shed(g, {.p = p});
    auto bm2_result = bm2.Shed(g, {.p = p});
    auto random_result = random_shedding.Shed(g, {.p = p});
    EDGESHED_CHECK(crr_result.ok());
    EDGESHED_CHECK(bm2_result.ok());
    EDGESHED_CHECK(random_result.ok());
    table.AddRow({FormatDouble(p, 1), FormatDouble(stream_delta(1), 4),
                  FormatDouble(stream_delta(8), 4),
                  FormatDouble(stream_delta(32), 4),
                  FormatDouble(random_result->average_delta, 4),
                  FormatDouble(bm2_result->average_delta, 4),
                  FormatDouble(crr_result->average_delta, 4)});
  }
  bench::PrintTableWithCsv(table);

  {
    // TCM-style sketching (the related-work alternative for streams):
    // compare degree-estimation error and memory against the streaming
    // shedder at matched budgets. The sketch answers weight queries only —
    // no graph comes out — which is the paper's core argument for shedding.
    const double p = 0.3;
    stream::StreamingShedder shedder(p);
    for (const graph::Edge& e : arrivals) shedder.AddEdge(e.u, e.v);
    graph::Graph snapshot = shedder.SnapshotGraph();

    TablePrinter table2("Degree estimation: TCM sketch vs streaming shedder"
                        " (p = 0.3)");
    table2.SetHeader({"structure", "memory (64-bit cells)",
                      "mean |deg est - deg| / avg deg", "graph out?"});
    auto degree_error = [&](auto&& estimate) {
      double error = 0.0;
      for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
        error += std::abs(estimate(u) - static_cast<double>(g.Degree(u)));
      }
      return error / static_cast<double>(g.NumNodes()) / g.AverageDegree();
    };
    for (uint32_t width : {64u, 256u, 1024u}) {
      stream::TcmSketch sketch({width, 3, 17});
      for (const graph::Edge& e : arrivals) sketch.AddEdge(e.u, e.v);
      table2.AddRow(
          {"TCM " + std::to_string(width) + "x" + std::to_string(width) +
               "x3",
           FormatWithCommas(sketch.Cells()),
           FormatDouble(degree_error([&](graph::NodeId u) {
             return sketch.NodeWeight(u);
           }),
                        3),
           "no (weight queries only)"});
    }
    table2.AddRow(
        {"streaming shedder",
         FormatWithCommas(shedder.kept_edges().size() * 2 + g.NumNodes()),
         FormatDouble(degree_error([&](graph::NodeId u) {
           return static_cast<double>(snapshot.Degree(u)) / p;
         }),
                      3),
         "yes (run any algorithm)"});
    bench::PrintTableWithCsv(table2);
  }

  std::printf("reading: more eviction samples close most of the gap to "
              "offline BM2; offline CRR (with global rewiring) stays "
              "ahead.\nThe sketch matches degree accuracy only when its "
              "fixed memory rivals the shedder's — and still yields no "
              "graph to analyze.\n");
  return 0;
}
