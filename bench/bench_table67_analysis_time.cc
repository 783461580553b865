// Reproduces Tables VI-VII: graph analysis time on reduced graphs for the
// seven tasks on email-Enron, p in {0.9, 0.5, 0.1}, with the "T" row giving
// the task time on the original graph.
//
// Paper shape to reproduce: all three reduction methods cut analysis time,
// more so as p shrinks; UDS's summary graphs are smallest (aggressive
// aggregation) so its *analysis* time is lowest — the accuracy tables are
// where it loses.

#include "bench/bench_util.h"

using namespace edgeshed;

int main(int argc, char** argv) {
  const eval::Flags flags = bench::ParseBenchFlags(argc, argv);
  eval::BenchConfig config = eval::ParseBenchConfig(flags);
  bench::PrintBenchHeader(
      "Tables VI-VII — analysis time on reduced email-Enron graphs (sec)",
      config);

  graph::Graph g =
      bench::LoadScaled(graph::DatasetId::kEmailEnron, config, 0.05);
  std::printf("email-Enron surrogate: %s nodes, %s edges\n",
              FormatWithCommas(g.NumNodes()).c_str(),
              FormatWithCommas(g.NumEdges()).c_str());
  eval::TaskOptions task_options = bench::BenchTaskOptions(config.full);
  const std::vector<double> ratios = {0.9, 0.5, 0.1};

  std::map<std::pair<std::string, double>, graph::Graph> reduced;
  core::Crr crr = bench::BenchCrr(config.full);
  core::Bm2 bm2 = bench::BenchBm2();
  baseline::Uds uds = bench::BenchUds(config.full);
  for (double p : ratios) {
    auto crr_result = crr.Shed(g, {.p = p});
    auto bm2_result = bm2.Shed(g, {.p = p});
    auto uds_result = uds.Summarize(g, p);
    EDGESHED_CHECK(crr_result.ok());
    EDGESHED_CHECK(bm2_result.ok());
    EDGESHED_CHECK(uds_result.ok());
    reduced[{"CRR", p}] = crr_result->BuildReducedGraph(g);
    reduced[{"BM2", p}] = bm2_result->BuildReducedGraph(g);
    reduced[{"UDS", p}] = uds_result->summary_graph;
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
        row.push_back(bench::Seconds(
            eval::RunTaskTimed(reduced.at({method, p}), task, task_options)));
      }
      table.AddRow(std::move(row));
    }
    bench::PrintTableWithCsv(table);
  }
  std::printf("expected shape (paper Tables VI-VII): analysis time drops "
              "with p for every method; UDS summaries are smallest and "
              "hence fastest to analyze.\n");
  return 0;
}
