// Reproduces Tables IV-V: total processing time (graph reduction + graph
// analysis on the reduced graph) for the seven tasks on ca-GrQc at
// p in {0.9, 0.5, 0.1}, with the "T" row giving the task time on the
// original graph.
//
// Paper shape to reproduce: for cheap tasks (Top-k, Vertex degree,
// Clustering coefficient) reduction does not pay off on a small graph, but
// CRR/BM2 still dominate UDS at small p; for expensive tasks (link
// prediction, SP distance, betweenness, hop-plot) CRR/BM2 beat both UDS and
// the original-graph baseline at small p.

#include "bench/bench_util.h"

using namespace edgeshed;

int main(int argc, char** argv) {
  const eval::Flags flags = bench::ParseBenchFlags(argc, argv);
  eval::BenchConfig config = eval::ParseBenchConfig(flags);
  bench::PrintBenchHeader(
      "Tables IV-V — total processing time on ca-GrQc (sec)", config);

  graph::Graph g =
      bench::LoadScaled(graph::DatasetId::kCaGrQc, config, 0.5);
  std::printf("ca-GrQc surrogate: %s nodes, %s edges\n",
              FormatWithCommas(g.NumNodes()).c_str(),
              FormatWithCommas(g.NumEdges()).c_str());
  eval::TaskOptions task_options = bench::BenchTaskOptions(config.full);
  const std::vector<double> ratios = {0.9, 0.5, 0.1};

  // Reduce once per (method, p); remember graph + reduction time.
  struct Reduced {
    graph::Graph graph;
    double reduction_seconds;
  };
  std::map<std::pair<std::string, double>, Reduced> reductions;
  core::Crr crr = bench::BenchCrr(config.full);
  core::Bm2 bm2 = bench::BenchBm2();
  baseline::Uds uds = bench::BenchUds(config.full);
  for (double p : ratios) {
    auto crr_result = crr.Shed(g, {.p = p});
    auto bm2_result = bm2.Shed(g, {.p = p});
    EDGESHED_CHECK(crr_result.ok());
    EDGESHED_CHECK(bm2_result.ok());
    reductions[{"CRR", p}] = Reduced{crr_result->BuildReducedGraph(g),
                                     crr_result->reduction_seconds};
    reductions[{"BM2", p}] = Reduced{bm2_result->BuildReducedGraph(g),
                                     bm2_result->reduction_seconds};
    auto summary = uds.Summarize(g, p);
    EDGESHED_CHECK(summary.ok());
    reductions[{"UDS", p}] =
        Reduced{summary->summary_graph, summary->reduction_seconds};
  }

  for (eval::Task task : eval::AllTasks()) {
    const double original_seconds = eval::RunTaskTimed(g, task, task_options);
    TablePrinter table(TaskName(task));
    table.SetHeader({"p", "UDS", "CRR", "BM2"});
    table.AddRow({"T (original)", bench::Seconds(original_seconds), "", ""});
    table.AddSeparator();
    for (double p : ratios) {
      std::vector<std::string> row{FormatDouble(p, 1)};
      for (const std::string method : {"UDS", "CRR", "BM2"}) {
        const Reduced& reduced = reductions.at({method, p});
        const double analysis_seconds =
            eval::RunTaskTimed(reduced.graph, task, task_options);
        row.push_back(
            bench::Seconds(reduced.reduction_seconds + analysis_seconds));
      }
      table.AddRow(std::move(row));
    }
    bench::PrintTableWithCsv(table);
  }
  std::printf("expected shape (paper Tables IV-V): at p = 0.1 UDS's total "
              "time exceeds even the original-graph baseline, while "
              "CRR/BM2 stay far below it on expensive tasks.\n");
  return 0;
}
