#include "common/cancellation.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "baseline/uds.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/bm2.h"
#include "core/crr.h"
#include "core/extra_baselines.h"
#include "core/random_shedding.h"
#include "graph/generators/generators.h"

namespace edgeshed {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// CancellationToken unit behavior

TEST(CancellationTokenTest, DefaultTokenNeverTriggers) {
  CancellationToken token;
  EXPECT_FALSE(token.Triggered());
  EXPECT_TRUE(token.ToStatus().ok());
  EXPECT_FALSE(CancellationRequested(&token));
  EXPECT_FALSE(CancellationRequested(nullptr));
}

TEST(CancellationTokenTest, CancelTrips) {
  CancellationToken token;
  token.Cancel();
  EXPECT_TRUE(token.Triggered());
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kCancelled);
  EXPECT_TRUE(CancellationRequested(&token));
}

TEST(CancellationTokenTest, PastDeadlineTripsAsDeadlineExceeded) {
  CancellationToken token(Clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(token.Triggered());
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTokenTest, FutureDeadlineDoesNotTrigger) {
  CancellationToken token(Clock::now() + std::chrono::hours(1));
  EXPECT_FALSE(token.Triggered());
  EXPECT_TRUE(token.ToStatus().ok());
}

TEST(CancellationTokenTest, MaxDeadlineMeansNone) {
  CancellationToken token(Clock::time_point::max());
  EXPECT_FALSE(token.Triggered());
  EXPECT_TRUE(token.ToStatus().ok());
}

TEST(CancellationTokenTest, CancelOnPollTripsOnThatPoll) {
  CancellationToken token;
  token.CancelOnPoll(3);
  EXPECT_FALSE(token.Triggered());
  EXPECT_FALSE(token.Triggered());
  EXPECT_TRUE(token.Triggered());
  EXPECT_TRUE(token.Triggered());
  EXPECT_EQ(token.Polls(), 4u);
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kCancelled);
}

TEST(CancellationTokenTest, DeadlineLatchesOnceObserved) {
  CancellationToken token(Clock::now());
  // First observation latches; every later observation reports triggered
  // without consulting the clock again.
  EXPECT_TRUE(token.Triggered());
  EXPECT_TRUE(token.Triggered());
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTokenTest, CancelWinsOverDeadlineInStatus) {
  CancellationToken token(Clock::now() - std::chrono::milliseconds(1));
  token.Cancel();
  EXPECT_TRUE(token.Triggered());
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Kernel plumbing: a pre-tripped token aborts every shedder up front.

graph::Graph SmallTestGraph() {
  Rng rng(7);
  return graph::BarabasiAlbert(400, 4, rng);
}

TEST(KernelCancellationTest, PreCancelledTokenAbortsEveryShedder) {
  const graph::Graph g = SmallTestGraph();
  CancellationToken token;
  token.Cancel();

  EXPECT_EQ(core::Crr().Shed(g, {.p = 0.5, .cancel = &token}).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(core::Bm2().Shed(g, {.p = 0.5, .cancel = &token}).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(core::RandomShedding()
                .Shed(g, {.p = 0.5, .cancel = &token})
                .status()
                .code(),
            StatusCode::kCancelled);
  EXPECT_EQ(core::LocalDegreeShedding().Shed(g, {.p = 0.5, .cancel = &token})
                .status()
                .code(),
            StatusCode::kCancelled);
  EXPECT_EQ(core::SpanningForestShedding().Shed(g, {.p = 0.5, .cancel = &token})
                .status()
                .code(),
            StatusCode::kCancelled);
  EXPECT_EQ(baseline::Uds().Summarize(g, 0.5, &token).status().code(),
            StatusCode::kCancelled);
}

TEST(KernelCancellationTest, ExpiredDeadlineSurfacesAsDeadlineExceeded) {
  const graph::Graph g = SmallTestGraph();
  CancellationToken token(Clock::now() - std::chrono::milliseconds(1));
  EXPECT_EQ(core::Crr().Shed(g, {.p = 0.5, .cancel = &token}).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(baseline::Uds().Summarize(g, 0.5, &token).status().code(),
            StatusCode::kDeadlineExceeded);
}

// Acceptance: a deadline interrupts CRR Phase 2 long before an untimed run
// would finish. steps_override below would be tens of seconds of swap
// attempts; the 10 ms deadline must cut that to well under two seconds
// (the bound is generous for slow CI machines — the point is orders of
// magnitude, not precision).
TEST(KernelCancellationTest, DeadlineCutsLongCrrRunShort) {
  Rng rng(11);
  const graph::Graph g = graph::BarabasiAlbert(500, 4, rng);
  core::CrrOptions options;
  options.steps_override = uint64_t{2'000'000'000};
  const core::Crr crr(options);

  CancellationToken token(Clock::now() + std::chrono::milliseconds(10));
  Stopwatch watch;
  auto result = crr.Shed(g, {.p = 0.5, .cancel = &token});
  const double elapsed = watch.ElapsedSeconds();
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 2.0);
}

// ---------------------------------------------------------------------------
// Determinism: an un-tripped token must not perturb a single bit of the
// result, at any thread count. Mirrors ParallelDeterminismTest's env-var
// handling (EDGESHED_THREADS drives DefaultThreadCount).

class CancellationDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* previous = std::getenv("EDGESHED_THREADS");
    had_previous_ = previous != nullptr;
    if (had_previous_) previous_ = previous;
  }

  void TearDown() override {
    if (had_previous_) {
      ::setenv("EDGESHED_THREADS", previous_.c_str(), 1);
    } else {
      ::unsetenv("EDGESHED_THREADS");
    }
  }

  static void SetThreads(const char* value) {
    ::setenv("EDGESHED_THREADS", value, 1);
    ASSERT_EQ(DefaultThreadCount(), std::atoi(value));
  }

  bool had_previous_ = false;
  std::string previous_;
};

TEST_F(CancellationDeterminismTest, UntrippedTokenIsBitIdenticalAcrossThreads) {
  Rng rng(21);
  const graph::Graph g = graph::BarabasiAlbert(1000, 5, rng);
  core::CrrOptions options;
  options.betweenness.exact_node_threshold = 256;
  options.betweenness.sample_sources = 64;
  const core::Crr crr(options);

  std::vector<std::vector<graph::EdgeId>> runs;
  for (const char* threads : {"1", "4"}) {
    SetThreads(threads);
    auto bare = crr.Shed(g, {.p = 0.4});
    ASSERT_TRUE(bare.ok()) << bare.status();
    runs.push_back(bare->kept_edges);

    CancellationToken token(Clock::now() + std::chrono::hours(24));
    auto with_token = crr.Shed(g, {.p = 0.4, .cancel = &token});
    ASSERT_TRUE(with_token.ok()) << with_token.status();
    runs.push_back(with_token->kept_edges);
  }
  ASSERT_EQ(runs.size(), 4u);
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i], runs[0]) << "variant " << i << " diverged";
  }
}

}  // namespace
}  // namespace edgeshed
