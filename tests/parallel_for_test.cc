#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
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

TEST(DefaultThreadCountTest, Positive) {
  EXPECT_GE(DefaultThreadCount(), 1);
}

}  // namespace
}  // namespace edgeshed
