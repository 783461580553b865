#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "analytics/betweenness.h"
#include "common/radix_sort.h"

namespace edgeshed {
namespace {

TEST(ParallelSortTest, EmptyAndSingleElement) {
  std::vector<int> empty;
  ParallelSort(empty.begin(), empty.end());
  EXPECT_TRUE(empty.empty());

  std::vector<int> one = {42};
  ParallelSort(one.begin(), one.end(), std::less<int>(), /*threads=*/8);
  EXPECT_EQ(one, std::vector<int>({42}));
}

TEST(ParallelSortTest, AgreesWithStdSortOnRandomInput) {
  std::mt19937_64 gen(7);
  std::vector<uint64_t> values(200000);
  for (auto& v : values) v = gen();
  std::vector<uint64_t> expected = values;
  std::sort(expected.begin(), expected.end());
  for (int threads : {1, 2, 8}) {
    std::vector<uint64_t> got = values;
    ParallelSort(got.begin(), got.end(), std::less<uint64_t>(), threads);
    EXPECT_EQ(got, expected) << "threads=" << threads;
  }
}

TEST(ParallelSortTest, StableOnDuplicateHeavyInput) {
  // Only 4 distinct keys over 100k elements; stability requires the original
  // index order to survive within each key for every thread count.
  constexpr size_t kSize = 100000;
  std::mt19937_64 gen(11);
  std::vector<std::pair<int, size_t>> values(kSize);
  for (size_t i = 0; i < kSize; ++i) {
    values[i] = {static_cast<int>(gen() % 4), i};
  }
  auto by_key_only = [](const std::pair<int, size_t>& a,
                        const std::pair<int, size_t>& b) {
    return a.first < b.first;
  };
  std::vector<std::pair<int, size_t>> expected = values;
  std::stable_sort(expected.begin(), expected.end(), by_key_only);
  for (int threads : {1, 3, 8}) {
    std::vector<std::pair<int, size_t>> got = values;
    ParallelSort(got.begin(), got.end(), by_key_only, threads);
    EXPECT_EQ(got, expected) << "threads=" << threads;
  }
}

TEST(ParallelSortTest, CustomComparatorDescending) {
  std::vector<int> values(50000);
  std::iota(values.begin(), values.end(), 0);
  ParallelSort(values.begin(), values.end(), std::greater<int>(),
               /*threads=*/4);
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end(),
                             std::greater<int>()));
  EXPECT_EQ(values.front(), 49999);
  EXPECT_EQ(values.back(), 0);
}

TEST(ParallelReduceTest, EmptyRangeReturnsIdentity) {
  const uint64_t result = ParallelReduce<uint64_t>(
      10, 10, 7,
      [](uint64_t, uint64_t) -> uint64_t { return 123; },
      [](uint64_t a, uint64_t b) { return a + b; });
  EXPECT_EQ(result, 7u);
}

TEST(ParallelReduceTest, SumMatchesClosedForm) {
  constexpr uint64_t kSize = 1 << 20;
  for (int threads : {1, 8}) {
    const uint64_t sum = ParallelReduce<uint64_t>(
        0, kSize, 0,
        [](uint64_t begin, uint64_t end) {
          uint64_t acc = 0;
          for (uint64_t i = begin; i < end; ++i) acc += i;
          return acc;
        },
        [](uint64_t a, uint64_t b) { return a + b; }, threads);
    EXPECT_EQ(sum, kSize * (kSize - 1) / 2) << "threads=" << threads;
  }
}

TEST(ParallelReduceTest, FloatingPointResultIsThreadCountInvariant) {
  // The chunk grid depends only on the range size and partials combine in
  // fixed order, so even a non-associative double sum is bit-identical.
  constexpr uint64_t kSize = 300000;
  auto run = [&](int threads) {
    return ParallelReduce<double>(
        0, kSize, 0.0,
        [](uint64_t begin, uint64_t end) {
          double acc = 0.0;
          for (uint64_t i = begin; i < end; ++i) {
            acc += 1.0 / static_cast<double>(i + 1);
          }
          return acc;
        },
        [](double a, double b) { return a + b; }, threads);
  };
  const double one_thread = run(1);
  const double eight_threads = run(8);
  EXPECT_EQ(one_thread, eight_threads);  // exact bit equality, not near
}

TEST(ParallelReduceTest, NonCommutativeCombinePreservesChunkOrder) {
  // Concatenation is associative but not commutative: the reduced string
  // must equal the serial left-to-right concatenation.
  constexpr uint64_t kSize = 200000;
  auto chunk_fn = [](uint64_t begin, uint64_t end) {
    std::string s;
    for (uint64_t i = begin; i < end; ++i) {
      s += static_cast<char>('a' + (i % 26));
    }
    return s;
  };
  std::string expected = chunk_fn(0, kSize);
  const std::string got = ParallelReduce<std::string>(
      0, kSize, std::string(), chunk_fn,
      [](std::string a, std::string b) { return std::move(a) + b; },
      /*threads=*/8);
  EXPECT_EQ(got, expected);
}

TEST(TemplatedParallelForTest, GrainOneDispatchesSmallRanges) {
  // grain=1 lets chunk-level work (a handful of coarse tasks) fan out
  // instead of collapsing to the inline fallback.
  std::vector<int> touched(8, 0);
  ParallelForEach(
      0, touched.size(), [&](uint64_t i) { touched[i]++; },
      /*threads=*/4, /*grain=*/1);
  for (size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i], 1) << "index " << i;
  }
}

// ---- StableRadixSort / RadixSortWords (common/radix_sort.h) ----

/// A 64-bit key with the input position as payload, so stability is
/// visible in the output.
struct KeyedIndex {
  uint64_t key;
  uint64_t index;
  bool operator==(const KeyedIndex&) const = default;
};

std::vector<KeyedIndex> WithIndices(const std::vector<uint64_t>& keys) {
  std::vector<KeyedIndex> items(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) items[i] = {keys[i], i};
  return items;
}

/// The radix sort's contract: exactly std::stable_sort by key, at 1, 2 and
/// 4 threads.
void ExpectMatchesStableSort(const std::vector<uint64_t>& keys) {
  std::vector<KeyedIndex> expected = WithIndices(keys);
  std::stable_sort(expected.begin(), expected.end(),
                   [](const KeyedIndex& a, const KeyedIndex& b) {
                     return a.key < b.key;
                   });
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    std::vector<KeyedIndex> got = WithIndices(keys);
    StableRadixSort(
        &got, [](const KeyedIndex& item) { return item.key; }, threads);
    EXPECT_EQ(got, expected);
  }
}

/// RadixSortWords against std::sort, at 1, 2 and 4 threads.
template <typename Word>
void ExpectWordsSorted(const std::vector<Word>& words) {
  std::vector<Word> expected = words;
  std::sort(expected.begin(), expected.end());
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    std::vector<Word> got = words;
    RadixSortWords(&got, threads);
    EXPECT_EQ(got, expected);
  }
}

TEST(RadixSortTest, EmptyAndSingleElement) {
  std::vector<KeyedIndex> empty;
  StableRadixSort(&empty, [](const KeyedIndex& item) { return item.key; });
  EXPECT_TRUE(empty.empty());
  std::vector<uint32_t> no_words;
  RadixSortWords(&no_words);
  EXPECT_TRUE(no_words.empty());

  std::vector<KeyedIndex> one = {{~uint64_t{0}, 7}};
  StableRadixSort(&one, [](const KeyedIndex& item) { return item.key; });
  EXPECT_EQ(one, std::vector<KeyedIndex>({{~uint64_t{0}, 7}}));
}

TEST(RadixSortTest, BelowTheFallbackSizeStaysStable) {
  std::mt19937_64 gen(21);
  std::vector<uint64_t> keys(kRadixSortMinSize - 1);
  for (auto& key : keys) key = gen() % 16;
  ExpectMatchesStableSort(keys);
}

TEST(RadixSortTest, AllEqualKeysKeepPayloadOrder) {
  // No digit varies, so no pass (and, over the budget, no split) runs and
  // the input order is the output.
  for (size_t size :
       {3 * kRadixSortMinSize, 2 * RadixSortBudget<KeyedIndex>() + 1}) {
    const std::vector<uint64_t> keys(size, 0x5A5A5A5A5A5Aull);
    ExpectMatchesStableSort(keys);
  }
}

TEST(RadixSortTest, KeysWithTheTopBitSet) {
  // Only the top digit (bits 55-63) separates half of these keys.
  std::mt19937_64 gen(22);
  std::vector<uint64_t> keys(10000);
  for (auto& key : keys) {
    key = (gen() % 2 == 0 ? uint64_t{1} << 63 : 0) | (gen() % 64);
  }
  ExpectMatchesStableSort(keys);
}

TEST(RadixSortTest, ZeroScoreKeys) {
  // Ranking keys ~bits(score) of non-negative doubles, a third of them 0.0:
  // the zero scores sort last and stay in input order among themselves.
  std::mt19937_64 gen(23);
  std::vector<uint64_t> keys(9000);
  for (auto& key : keys) {
    const double score =
        gen() % 3 == 0 ? 0.0 : static_cast<double>(gen() % 1000) / 7.0;
    key = ~std::bit_cast<uint64_t>(score);
  }
  ExpectMatchesStableSort(keys);
}

TEST(RadixSortTest, MatchesStableSortOnDuplicateHeavyRandomKeys) {
  // 500 distinct full-width keys over 200k items: every digit varies and
  // every key repeats ~400 times.
  std::mt19937_64 gen(24);
  std::vector<uint64_t> distinct(500);
  for (auto& key : distinct) key = gen();
  std::vector<uint64_t> keys(200000);
  for (auto& key : keys) key = distinct[gen() % distinct.size()];
  ExpectMatchesStableSort(keys);
}

TEST(RadixSortTest, WordsMatchStdSort) {
  std::mt19937_64 gen(25);
  std::vector<uint32_t> narrow(50000);
  for (auto& word : narrow) word = static_cast<uint32_t>(gen() % 70000);
  std::vector<uint64_t> wide(50000);
  for (auto& word : wide) word = gen();
  ExpectWordsSorted(narrow);
  ExpectWordsSorted(wide);
}

TEST(RadixSortTest, RankingKeysAboveTheCacheBudget) {
  // The final ranking order's input: DescendingScoreKey of scores spread
  // over many binades, a tenth of them 0.0, at the size of an RMat(15,16)
  // ranking. Far over the budget, so the sort splits before its LSD passes.
  std::mt19937_64 gen(26);
  std::uniform_real_distribution<double> exponent(-4.0, 6.0);
  std::vector<uint64_t> keys(420000);
  for (auto& key : keys) {
    const double score = gen() % 10 == 0 ? 0.0 : std::pow(10.0, exponent(gen));
    key = analytics::DescendingScoreKey(score);
  }
  ASSERT_GT(keys.size(), 4 * RadixSortBudget<KeyedIndex>());
  ExpectMatchesStableSort(keys);
}

TEST(RadixSortTest, OneOutlierForcesASecondSplit) {
  // One key sets bit 63; every other key shares bits 47-62. The first
  // split, on at most 16 bits from bit 63 down, leaves all but the outlier
  // in one range over the budget, which is split again on the bits below.
  std::mt19937_64 gen(27);
  std::vector<uint64_t> keys(3 * RadixSortBudget<KeyedIndex>());
  const uint64_t shared = uint64_t{0x5A5A} << 47;
  for (auto& key : keys) key = shared | (gen() % (uint64_t{1} << 47));
  keys[keys.size() / 3] = uint64_t{1} << 63;
  ExpectMatchesStableSort(keys);
}

TEST(RadixSortTest, SizesAroundTheCacheBudget) {
  // Up to the budget the LSD passes run alone; one item more splits first.
  std::mt19937_64 gen(28);
  const size_t budget = RadixSortBudget<KeyedIndex>();
  for (size_t size : {budget - 1, budget, budget + 1, 2 * budget + 7}) {
    SCOPED_TRACE(::testing::Message() << "size=" << size);
    std::vector<uint64_t> keys(size);
    for (auto& key : keys) key = gen() % (uint64_t{1} << 40);
    ExpectMatchesStableSort(keys);
  }
}

TEST(RadixSortTest, NarrowWordsAboveTheCacheBudget) {
  // CRR's kept ids (< 2^19 here) and 32-bit words, both over the budget of
  // their word size: the split starts at the highest varying bit, not at
  // the top of the word.
  std::mt19937_64 gen(29);
  std::vector<uint64_t> edge_ids(3 * RadixSortBudget<uint64_t>());
  for (auto& id : edge_ids) id = gen() % (uint64_t{1} << 19);
  std::vector<uint32_t> words(3 * RadixSortBudget<uint32_t>());
  for (auto& word : words) word = static_cast<uint32_t>(gen());
  ExpectWordsSorted(edge_ids);
  ExpectWordsSorted(words);
}

}  // namespace
}  // namespace edgeshed
