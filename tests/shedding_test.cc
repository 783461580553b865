#include "core/shedding.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/random_shedding.h"
#include "core/shedder_factory.h"
#include "testing/test_graphs.h"

namespace edgeshed::core {
namespace {

TEST(ValidatePreservationRatioTest, AcceptsInteriorValues) {
  EXPECT_TRUE(ValidatePreservationRatio(0.5).ok());
  EXPECT_TRUE(ValidatePreservationRatio(0.0001).ok());
  EXPECT_TRUE(ValidatePreservationRatio(0.9999).ok());
}

TEST(ValidatePreservationRatioTest, RejectsBoundariesAndOutside) {
  for (double p : {0.0, 1.0, -0.3, 1.7,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(ValidatePreservationRatio(p).code(),
              StatusCode::kInvalidArgument)
        << "p=" << p;
  }
}

TEST(ValidatePreservationRatioTest, RejectsNanExplicitly) {
  const Status status = ValidatePreservationRatio(std::nan(""));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("NaN"), std::string::npos);
}

TEST(TargetEdgeCountTest, RoundsHalfUp) {
  const graph::Graph g = testing::PaperExampleGraph();  // 11 edges
  EXPECT_EQ(TargetEdgeCount(g, 0.4), 4u);   // 4.4 -> 4
  EXPECT_EQ(TargetEdgeCount(g, 0.5), 6u);   // 5.5 -> 6
  EXPECT_EQ(TargetEdgeCount(g, 0.9), 10u);  // 9.9 -> 10
}

// Regression: round(p * |E|) < 0.5 used to produce an empty E', making
// every shedder degenerate on tiny graphs with perfectly valid p.
TEST(TargetEdgeCountTest, NeverZeroOnNonEmptyGraphs) {
  const graph::Graph tiny = testing::Path(4);  // 3 edges
  EXPECT_EQ(TargetEdgeCount(tiny, 0.1), 1u);   // round(0.3) would be 0
  EXPECT_EQ(TargetEdgeCount(tiny, 0.05), 1u);
  const graph::Graph single = testing::Path(2);  // 1 edge
  EXPECT_EQ(TargetEdgeCount(single, 0.01), 1u);
}

TEST(TargetEdgeCountTest, EmptyGraphStaysZero) {
  const graph::Graph empty = testing::MustBuild(5, {});
  EXPECT_EQ(TargetEdgeCount(empty, 0.5), 0u);
}

TEST(TargetEdgeCountTest, SheddersKeepAtLeastOneEdgeOnTinyGraphs) {
  const graph::Graph tiny = testing::Path(4);
  RandomShedding shedder(/*seed=*/1);
  auto result = shedder.Shed(tiny, {.p = 0.1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->kept_edges.size(), 1u);
}

// ---------------------------------------------------------------------------
// ShedOptions (ISSUE 4 satellite): every shedder accepts the consolidated
// options struct through the virtual Shed; the legacy positional Reduce is a
// non-virtual shim that must behave identically.

TEST(ShedOptionsTest, ReduceDelegatesToShedWithDefaults) {
  const graph::Graph g = testing::Cycle(20);
  RandomShedding shedder(/*seed=*/7);
  auto via_reduce = shedder.Shed(g, {.p = 0.5});
  ShedOptions options;
  options.p = 0.5;
  auto via_shed = shedder.Shed(g, options);
  ASSERT_TRUE(via_reduce.ok());
  ASSERT_TRUE(via_shed.ok());
  EXPECT_EQ(via_reduce->kept_edges, via_shed->kept_edges);
}

TEST(ShedOptionsTest, SeedOverrideChangesAndReproducesSelection) {
  const graph::Graph g = testing::Cycle(64);
  RandomShedding shedder(/*seed=*/7);
  ShedOptions options;
  options.p = 0.5;
  options.seed = 1234;
  auto a = shedder.Shed(g, options);
  auto b = shedder.Shed(g, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->kept_edges, b->kept_edges);  // deterministic given the seed

  ShedOptions other;
  other.p = 0.5;
  other.seed = 4321;
  auto c = shedder.Shed(g, other);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->kept_edges, c->kept_edges);  // the override is actually used

  // No override -> constructor seed, i.e. the plain Reduce result.
  ShedOptions unset;
  unset.p = 0.5;
  auto d = shedder.Shed(g, unset);
  auto e = shedder.Shed(g, {.p = 0.5});
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(d->kept_edges, e->kept_edges);
}

TEST(ShedOptionsTest, CancellationFlowsThroughOptions) {
  const graph::Graph g = testing::Cycle(20);
  RandomShedding shedder(/*seed=*/7);
  CancellationToken token;
  token.Cancel();
  ShedOptions options;
  options.p = 0.5;
  options.cancel = &token;
  auto result = shedder.Shed(g, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Shedder factory: one row per name MakeShedderByName accepts.

/// How a method's |E'| relates to round(p·|E|).
enum class Budget {
  kExact,
  // BM2 enforces per-vertex capacities instead; each vertex lands within ~1
  // of p·deg, so |E'| is within |V|/2 of the target (bm2.h).
  kNear,
  // Every vertex nominates ceil(p·deg) edges; the union overshoots.
  kAtLeast,
};

struct FactoryCase {
  const char* name;
  Budget budget;
};

constexpr FactoryCase kFactoryCases[] = {
    {"bm2", Budget::kNear},
    {"crr", Budget::kExact},
    {"local-degree", Budget::kAtLeast},
    {"random", Budget::kExact},
    {"spanning-forest", Budget::kExact},
};

TEST(ShedderFactoryTest, TableCoversExactlyTheKnownNames) {
  std::vector<std::string> table;
  for (const FactoryCase& c : kFactoryCases) table.emplace_back(c.name);
  EXPECT_EQ(KnownShedderNames(), table);
}

TEST(ShedderFactoryTest, EveryKnownNameBuildsAndKeepsTheTarget) {
  const graph::Graph g = testing::Clique(8);  // 28 edges
  constexpr double kP = 0.5;
  const uint64_t target = TargetEdgeCount(g, kP);
  for (const FactoryCase& c : kFactoryCases) {
    SCOPED_TRACE(c.name);
    auto shedder = MakeShedderByName(c.name, /*seed=*/42);
    ASSERT_TRUE(shedder.ok()) << shedder.status();
    auto result = (*shedder)->Shed(g, {.p = kP});
    ASSERT_TRUE(result.ok()) << result.status();
    const uint64_t kept = result->kept_edges.size();
    switch (c.budget) {
      case Budget::kExact:
        EXPECT_EQ(kept, target);
        break;
      case Budget::kNear:
        EXPECT_NEAR(static_cast<double>(kept), static_cast<double>(target),
                    static_cast<double>(g.NumNodes()) / 2.0);
        break;
      case Budget::kAtLeast:
        EXPECT_GE(kept, target);
        break;
    }
  }
}

TEST(ShedderFactoryTest, UnknownNamesListTheKnownOnes) {
  for (const char* unknown : {"", "crr-rank", "CRR", "bm3"}) {
    SCOPED_TRACE(unknown);
    auto shedder = MakeShedderByName(unknown, /*seed=*/42);
    ASSERT_FALSE(shedder.ok());
    EXPECT_EQ(shedder.status().code(), StatusCode::kInvalidArgument);
    for (const std::string& known : KnownShedderNames()) {
      EXPECT_NE(shedder.status().message().find(known), std::string::npos)
          << known << " missing from: " << shedder.status().message();
    }
  }
}

}  // namespace
}  // namespace edgeshed::core
