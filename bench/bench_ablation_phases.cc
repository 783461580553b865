// Ablation bench (DESIGN.md §6, not in the paper): isolates the design
// choices inside CRR and BM2.
//   1. CRR Phase-1 signal: betweenness ranking vs random initial subset.
//   2. CRR swap acceptance: strict (d1+d2 < 0) vs accepting ties.
//   3. BM2 Phase 2: with vs without the bipartite correction.
//   4. BM2 b-matching scan order: input vs shuffled vs low-degree-first.

#include <set>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "eval/metrics.h"

using namespace edgeshed;

int main(int argc, char** argv) {
  const eval::Flags flags =
      bench::ParseBenchFlags(argc, argv, {{"p", eval::FlagType::kDouble}});
  eval::BenchConfig config = eval::ParseBenchConfig(flags);
  const double p = flags.GetDouble("p", 0.5);
  bench::PrintBenchHeader("Ablation — CRR/BM2 phase and policy choices",
                          config);

  graph::Graph g = bench::LoadScaled(graph::DatasetId::kCaGrQc, config, 0.5);
  std::printf("ca-GrQc surrogate: %s nodes, %s edges, p = %.1f\n\n",
              FormatWithCommas(g.NumNodes()).c_str(),
              FormatWithCommas(g.NumEdges()).c_str(), p);

  auto evaluate = [&](const core::SheddingResult& result) {
    graph::Graph reduced = result.BuildReducedGraph(g);
    return eval::TopKUtilityForReduced(g, reduced, 10.0);
  };

  {
    TablePrinter table("CRR ablation");
    table.SetHeader(
        {"variant", "avg delta", "top-10% utility", "time (s)"});
    struct Variant {
      std::string name;
      core::CrrOptions options;
    };
    std::vector<Variant> variants;
    core::CrrOptions base;
    base.betweenness = bench::BenchBetweenness(config.full);
    variants.push_back({"full (betweenness init + rewiring)", base});
    {
      core::CrrOptions v = base;
      v.steps_override = 0;
      variants.push_back({"phase 1 only (no rewiring)", v});
    }
    {
      core::CrrOptions v = base;
      v.init_mode = core::CrrOptions::InitMode::kRandom;
      variants.push_back({"random init + rewiring", v});
    }
    {
      core::CrrOptions v = base;
      v.init_mode = core::CrrOptions::InitMode::kRandom;
      v.steps_override = 0;
      variants.push_back({"random init only", v});
    }
    {
      core::CrrOptions v = base;
      v.accept_zero_delta_swaps = true;
      variants.push_back({"accept zero-delta swaps", v});
    }
    {
      core::CrrOptions v = base;
      v.steps_multiplier = 30.0;
      variants.push_back({"3x rewiring budget (steps = 30P)", v});
    }
    for (const Variant& variant : variants) {
      auto result = core::Crr(variant.options).Shed(g, {.p = p});
      EDGESHED_CHECK(result.ok());
      table.AddRow({variant.name, FormatDouble(result->average_delta, 4),
                    FormatDouble(evaluate(*result), 3),
                    bench::Seconds(result->reduction_seconds)});
    }
    bench::PrintTableWithCsv(table);
  }

  {
    TablePrinter table("BM2 ablation");
    table.SetHeader(
        {"variant", "avg delta", "top-10% utility", "|E'|", "time (s)"});
    struct Variant {
      std::string name;
      core::Bm2Options options;
    };
    std::vector<Variant> variants;
    variants.push_back({"full (input order + phase 2)", {}});
    {
      core::Bm2Options v;
      v.run_phase2 = false;
      variants.push_back({"phase 1 only (b-matching)", v});
    }
    {
      core::Bm2Options v;
      v.edge_order = core::BMatchingEdgeOrder::kShuffled;
      variants.push_back({"shuffled scan order", v});
    }
    {
      core::Bm2Options v;
      v.edge_order = core::BMatchingEdgeOrder::kLowDegreeEndpointFirst;
      variants.push_back({"low-degree-first scan order", v});
    }
    {
      core::Bm2Options v;
      v.include_zero_gain = false;
      variants.push_back({"exclude zero-gain candidates", v});
    }
    for (const Variant& variant : variants) {
      auto result = core::Bm2(variant.options).Shed(g, {.p = p});
      EDGESHED_CHECK(result.ok());
      table.AddRow({variant.name, FormatDouble(result->average_delta, 4),
                    FormatDouble(evaluate(*result), 3),
                    std::to_string(result->kept_edges.size()),
                    bench::Seconds(result->reduction_seconds)});
    }
    bench::PrintTableWithCsv(table);
  }
  {
    // DESIGN.md §6.4: exact vs pivot-sampled betweenness inside CRR's
    // Phase 1 — how many pivots buy how much of the exact ranking, and
    // does CRR's output quality care?
    analytics::BetweennessOptions exact_options =
        analytics::BetweennessOptions::Exact();
    Stopwatch exact_watch;
    auto exact_ranking = analytics::EdgesByBetweennessDescending(
        g, exact_options);
    const double exact_seconds = exact_watch.ElapsedSeconds();
    const uint64_t top = core::TargetEdgeCount(g, p);
    std::set<graph::EdgeId> exact_top(exact_ranking.begin(),
                                      exact_ranking.begin() +
                                          static_cast<long>(top));

    TablePrinter table("Betweenness estimator ablation (CRR Phase 1)");
    table.SetHeader({"pivots", "top-[P] ranking overlap", "CRR avg delta",
                     "CRR top-10% utility", "centrality time (s)"});
    auto add_row = [&](const std::string& label,
                       const analytics::BetweennessOptions& options,
                       double centrality_seconds,
                       const std::vector<graph::EdgeId>& ranking) {
      uint64_t hits = 0;
      for (uint64_t i = 0; i < top; ++i) {
        if (exact_top.contains(ranking[i])) ++hits;
      }
      core::CrrOptions crr_options;
      crr_options.betweenness = options;
      auto result = core::Crr(crr_options).Shed(g, {.p = p});
      EDGESHED_CHECK(result.ok());
      table.AddRow({label,
                    FormatDouble(static_cast<double>(hits) /
                                     static_cast<double>(top), 3),
                    FormatDouble(result->average_delta, 4),
                    FormatDouble(evaluate(*result), 3),
                    bench::Seconds(centrality_seconds)});
    };
    for (uint64_t pivots : {32ull, 128ull, 512ull}) {
      analytics::BetweennessOptions options;
      options.exact_node_threshold = 1;  // force sampling
      options.sample_sources = pivots;
      Stopwatch watch;
      auto ranking = analytics::EdgesByBetweennessDescending(g, options);
      add_row(std::to_string(pivots), options, watch.ElapsedSeconds(),
              ranking);
    }
    add_row("exact", exact_options, exact_seconds, exact_ranking);
    bench::PrintTableWithCsv(table);
  }

  std::printf("reading: rewiring is what drives CRR's delta down; the\n"
              "bipartite pass is what fixes b-matching's rounding debt;\n"
              "a few hundred pivots recover most of the exact edge ranking\n"
              "at a fraction of the Brandes cost, and CRR's final quality\n"
              "is insensitive to the residual ranking noise.\n");
  return 0;
}
