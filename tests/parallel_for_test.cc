#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace edgeshed {
namespace {

TEST(ParallelForTest, CoversWholeRangeExactlyOnce) {
  constexpr uint64_t kSize = 100000;
  std::vector<std::atomic<int>> touched(kSize);
  ParallelForEach(0, kSize, [&](uint64_t i) { touched[i]++; });
  for (uint64_t i = 0; i < kSize; ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  std::atomic<int> calls{0};
  ParallelForEach(5, 5, [&](uint64_t) { calls++; });
  ParallelForEach(10, 5, [&](uint64_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, SmallRangeRunsInline) {
  std::atomic<uint64_t> sum{0};
  ParallelForEach(0, 10, [&](uint64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 45u);
}

TEST(ParallelForTest, NonZeroBegin) {
  std::atomic<uint64_t> sum{0};
  ParallelForEach(10, 20, [&](uint64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 145u);
}

TEST(ParallelForTest, ChunkedVariantSeesDisjointRanges) {
  constexpr uint64_t kSize = 50000;
  std::vector<std::atomic<int>> touched(kSize);
  ParallelFor(0, kSize, [&](uint64_t begin, uint64_t end) {
    EXPECT_LE(begin, end);
    for (uint64_t i = begin; i < end; ++i) touched[i]++;
  });
  for (uint64_t i = 0; i < kSize; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ExplicitSingleThread) {
  uint64_t sum = 0;  // no atomics needed with 1 thread
  ParallelForEach(0, 100000, [&](uint64_t i) { sum += i; }, /*threads=*/1);
  EXPECT_EQ(sum, 99999ull * 100000 / 2);
}

TEST(ParallelForTest, SumMatchesSerial) {
  constexpr uint64_t kSize = 1 << 18;
  std::atomic<uint64_t> sum{0};
  ParallelForEach(0, kSize, [&](uint64_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), kSize * (kSize - 1) / 2);
}

// ---- The persistent pool behind ParallelFor (DESIGN.md §8) ----

TEST(ParallelForTest, NestedRegionsCoverEveryPair) {
  // Every outer body runs an inner region; the inner ones find the workers
  // busy with the outer one and must still finish on their callers.
  constexpr uint64_t kOuter = 64;
  constexpr uint64_t kInner = 1000;
  std::vector<std::atomic<int>> touched(kOuter * kInner);
  ParallelForEach(
      0, kOuter,
      [&](uint64_t i) {
        ParallelFor(
            0, kInner,
            [&](uint64_t begin, uint64_t end) {
              for (uint64_t j = begin; j < end; ++j) touched[i * kInner + j]++;
            },
            /*threads=*/4, /*grain=*/1);
      },
      /*threads=*/4, /*grain=*/1);
  for (uint64_t k = 0; k < touched.size(); ++k) {
    ASSERT_EQ(touched[k].load(), 1) << "index " << k;
  }
}

TEST(ParallelForTest, ConcurrentCallersEachCoverTheirRange) {
  constexpr int kCallers = 4;
  constexpr uint64_t kSize = 200000;
  std::vector<std::vector<std::atomic<int>>> touched(kCallers);
  for (auto& counts : touched) counts = std::vector<std::atomic<int>>(kSize);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&touched, c] {
      for (int round = 0; round < 5; ++round) {
        ParallelForEach(
            0, kSize, [&](uint64_t i) { touched[c][i]++; }, /*threads=*/4,
            /*grain=*/64);
      }
    });
  }
  for (auto& caller : callers) caller.join();
  for (int c = 0; c < kCallers; ++c) {
    for (uint64_t i = 0; i < kSize; ++i) {
      ASSERT_EQ(touched[c][i].load(), 5) << "caller " << c << " index " << i;
    }
  }
}

TEST(ParallelForTest, RequestAboveWorkerCapCoversRange) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int threads = static_cast<int>(2 * hw);
  constexpr uint64_t kSize = 100000;
  std::vector<std::atomic<int>> touched(kSize);
  std::mutex mu;
  std::set<std::thread::id> seen;
  ParallelFor(
      0, kSize,
      [&](uint64_t begin, uint64_t end) {
        for (uint64_t i = begin; i < end; ++i) touched[i]++;
        std::lock_guard<std::mutex> lock(mu);
        seen.insert(std::this_thread::get_id());
      },
      threads, /*grain=*/16);
  for (uint64_t i = 0; i < kSize; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
  // The caller plus at most one worker per other hardware thread (at least
  // one worker), however many threads were asked for.
  EXPECT_LE(seen.size(), std::max<size_t>(hw, 2));
}

// ThreadSanitizer aborts a forked child of a threaded process that starts
// a thread, so under it the forked child below runs its region alone.
#if defined(__SANITIZE_THREAD__)
constexpr bool kThreadSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kThreadSanitizer = true;
#else
constexpr bool kThreadSanitizer = false;
#endif
#else
constexpr bool kThreadSanitizer = false;
#endif

TEST(ParallelForTest, ForkedChildCompletesRegion) {
  // Start the pool's workers first; the death-test child is forked with
  // them running, has none of them and must start its own.
  std::atomic<uint64_t> parent_sum{0};
  ParallelForEach(0, 100000, [&](uint64_t i) { parent_sum += i; },
                  /*threads=*/4, /*grain=*/64);
  ASSERT_EQ(parent_sum.load(), 99999ull * 100000 / 2);
  const std::string style = ::testing::FLAGS_gtest_death_test_style;
  ::testing::FLAGS_gtest_death_test_style = "fast";  // fork without exec
  EXPECT_EXIT(
      {
        if (!kThreadSanitizer) {
          // Two items at threads = 2: the thread that takes one waits for
          // another thread to take the other, which only a worker started
          // in the child can do. A child left on one thread exits 2.
          std::atomic<int> arrived{0};
          std::atomic<bool> met{true};
          ParallelForEach(
              0, 2,
              [&](uint64_t) {
                arrived++;
                const auto give_up =
                    std::chrono::steady_clock::now() + std::chrono::seconds(10);
                while (arrived.load() < 2) {
                  if (std::chrono::steady_clock::now() > give_up) {
                    met = false;
                    return;
                  }
                  std::this_thread::yield();
                }
              },
              /*threads=*/2, /*grain=*/1);
          if (!met.load()) std::_Exit(2);
        }
        std::vector<std::atomic<int>> touched(50000);
        ParallelForEach(0, touched.size(), [&](uint64_t i) { touched[i]++; },
                        /*threads=*/kThreadSanitizer ? 1 : 4, /*grain=*/64);
        for (const auto& count : touched) {
          if (count.load() != 1) std::_Exit(1);
        }
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(0), "");
  ::testing::FLAGS_gtest_death_test_style = style;
}

TEST(DefaultThreadCountTest, Positive) {
  EXPECT_GE(DefaultThreadCount(), 1);
}

}  // namespace
}  // namespace edgeshed
