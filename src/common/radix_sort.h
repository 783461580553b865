#ifndef EDGESHED_COMMON_RADIX_SORT_H_
#define EDGESHED_COMMON_RADIX_SORT_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/parallel.h"

namespace edgeshed {

/// Inputs shorter than this are handed to std::stable_sort: below it the
/// radix histograms cost more than the comparisons they replace.
inline constexpr size_t kRadixSortMinSize = 2048;

/// The bytes of items StableRadixSort sorts with LSD passes alone: the
/// items and their scratch buffer fill a 2 MiB L2. A larger input is split
/// into ranges of at most half this, which leave room in L2 for the rest
/// of what a thread touches while their LSD passes run.
inline constexpr size_t kRadixSortCacheBytes = size_t{1} << 20;

/// The in-cache budget, kRadixSortCacheBytes in items of type T.
template <typename T>
constexpr size_t RadixSortBudget() {
  return std::max<size_t>(kRadixSortCacheBytes / sizeof(T), kRadixSortMinSize);
}

/// How many contiguous chunks a parallel count of `size` items into
/// `buckets` buckets uses at `threads` threads (0 = DefaultThreadCount()):
/// one per thread, each of at least 16k items and twice `buckets` (so a
/// chunk's histogram costs less than its counting), and no more than 2^31
/// items each so per-chunk counts fit in 32 bits.
inline size_t RadixChunkCount(size_t size, size_t buckets, int threads) {
  if (threads <= 0) threads = DefaultThreadCount();
  const size_t min_chunk = std::max<size_t>(size_t{1} << 14, 2 * buckets);
  constexpr size_t kMaxChunk = size_t{1} << 31;
  const size_t wanted = std::min<size_t>(static_cast<size_t>(threads),
                                         std::max<size_t>(1, size / min_chunk));
  return std::max(wanted, (size + kMaxChunk - 1) / kMaxChunk);
}

/// First item of chunk `c` when [0, size) is cut into `chunks` equal
/// contiguous chunks.
inline size_t RadixChunkBegin(size_t size, size_t chunks, size_t c) {
  return size * c / chunks;
}

/// Per-chunk histograms, counted on the worker pool: sets `counts` to
/// chunks * buckets entries where `(*counts)[c * buckets + b]` is how many
/// items of chunk c (RadixChunkBegin's chunks of [0, size)) have
/// `digit(item) == b`, for `digit` below `buckets`. Each chunk zeroes its
/// own histogram, so a reused `counts` costs no serial pass.
template <typename T, typename DigitFn>
void CountDigitsPerChunk(const T* items, size_t size, size_t chunks,
                         size_t buckets, DigitFn digit, int threads,
                         std::vector<uint32_t>* counts) {
  counts->resize(chunks * buckets);
  ParallelForEach(
      0, chunks,
      [&](uint64_t c) {
        uint32_t* local = counts->data() + c * buckets;
        std::fill(local, local + buckets, 0);
        const size_t end = RadixChunkBegin(size, chunks, c + 1);
        for (size_t i = RadixChunkBegin(size, chunks, c); i < end; ++i) {
          ++local[digit(items[i])];
        }
      },
      threads, /*grain=*/1);
}

namespace radix_internal {

/// Stable LSD radix sort of src[0, size) with tmp[0, size) as the other
/// buffer; returns whichever of the two holds the result. 11-bit digits
/// keep every digit's histogram L1/L2-resident. One read pass counts all
/// digits at once and finds the digits that vary; a digit with the same
/// value in every key costs no pass, so small keys (edge ids) pay only for
/// their low digits. `counts` is a workspace the call resizes.
template <typename T, typename KeyFn>
T* LsdSort(T* src, T* tmp, size_t size, KeyFn& key,
           std::vector<size_t>* counts) {
  using Key = std::invoke_result_t<KeyFn&, const T&>;
  constexpr int kDigitBits = 11;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  constexpr int kDigits =
      (static_cast<int>(sizeof(Key)) * 8 + kDigitBits - 1) / kDigitBits;
  if (size < kRadixSortMinSize) {
    std::stable_sort(src, src + size, [&key](const T& a, const T& b) {
      return key(a) < key(b);
    });
    return src;
  }
  counts->assign(kDigits * kBuckets, 0);
  const Key first = key(src[0]);
  Key varying = 0;
  for (size_t i = 0; i < size; ++i) {
    const Key k = key(src[i]);
    varying |= k ^ first;
    for (int d = 0; d < kDigits; ++d) {
      ++(*counts)[d * kBuckets + ((k >> (d * kDigitBits)) & (kBuckets - 1))];
    }
  }
  for (int d = 0; d < kDigits; ++d) {
    const int shift = d * kDigitBits;
    if (((varying >> shift) & (kBuckets - 1)) == 0) continue;
    size_t* offsets = &(*counts)[d * kBuckets];
    size_t running = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const size_t count = offsets[b];
      offsets[b] = running;
      running += count;
    }
    for (size_t i = 0; i < size; ++i) {
      tmp[offsets[(key(src[i]) >> shift) & (kBuckets - 1)]++] = src[i];
    }
    std::swap(src, tmp);
  }
  return src;
}

/// Moves src[0, size) stably into dst, ordered by the `bits`-wide digit at
/// `shift` of the key, and returns the bounds of the ranges it leaves:
/// adjacent digit values share a range while it stays within `budget`
/// items, and a digit value with more items than that is a range of its own.
/// Each chunk of src is counted and scattered on its own thread; within a
/// range, chunk c's items follow chunk c-1's, so the output is the one
/// stable order for any chunking.
template <typename T, typename KeyFn>
std::vector<size_t> Split(const T* src, T* dst, size_t size, int shift,
                          int bits, size_t budget, KeyFn& key, int threads) {
  const size_t buckets = size_t{1} << bits;
  const size_t chunks = RadixChunkCount(size, buckets, threads);
  auto digit = [&key, shift, buckets](const T& item) {
    return static_cast<size_t>((key(item) >> shift) & (buckets - 1));
  };
  std::vector<uint32_t> counts;
  CountDigitsPerChunk(src, size, chunks, buckets, digit, threads, &counts);
  std::vector<uint32_t> range_of(buckets);
  std::vector<size_t> bounds = {0};
  size_t open = 0;  // items in the range being filled
  for (size_t b = 0; b < buckets; ++b) {
    size_t total = 0;
    for (size_t c = 0; c < chunks; ++c) total += counts[c * buckets + b];
    if (open > 0 && open + total > budget) {
      bounds.push_back(bounds.back() + open);
      open = 0;
    }
    open += total;
    range_of[b] = static_cast<uint32_t>(bounds.size() - 1);
  }
  bounds.push_back(size);
  const size_t ranges = bounds.size() - 1;
  // cursor[c * ranges + r]: where chunk c writes its next item of range r.
  std::vector<size_t> cursor(chunks * ranges);
  for (size_t c = 0; c < chunks; ++c) {
    for (size_t b = 0; b < buckets; ++b) {
      cursor[c * ranges + range_of[b]] += counts[c * buckets + b];
    }
  }
  size_t running = 0;
  for (size_t r = 0; r < ranges; ++r) {
    for (size_t c = 0; c < chunks; ++c) {
      const size_t count = cursor[c * ranges + r];
      cursor[c * ranges + r] = running;
      running += count;
    }
  }
  ParallelForEach(
      0, chunks,
      [&](uint64_t c) {
        size_t* at = &cursor[c * ranges];
        const size_t end = RadixChunkBegin(size, chunks, c + 1);
        for (size_t i = RadixChunkBegin(size, chunks, c); i < end; ++i) {
          dst[at[range_of[digit(src[i])]]++] = src[i];
        }
      },
      threads, /*grain=*/1);
  return bounds;
}

/// Sorts src[0, size) stably by key into `out`, which is src or tmp; the
/// other buffer is clobbered. A range within the in-cache budget runs
/// LsdSort. A larger one is split on up to 16 bits from its highest varying
/// key bit down into ranges of at most half the budget, each sorted on its
/// own: the ranges over the budget (one digit value each, so the next split
/// starts lower) one after another on every thread, the rest side by side
/// on the worker pool in batches of about equal item counts.
template <typename T, typename KeyFn>
void SortRange(T* src, T* tmp, size_t size, T* out, KeyFn& key, int threads,
               std::vector<size_t>* counts) {
  using Key = std::invoke_result_t<KeyFn&, const T&>;
  constexpr size_t kBudget = RadixSortBudget<T>();
  // A split digit has at most 16 bits, and about one value per 32 items so
  // its per-chunk histograms stay small next to the items they count.
  constexpr int kMaxSplitBits = 16;
  constexpr int kItemsPerValueLog2 = 5;
  if (size <= kBudget) {
    const T* sorted = LsdSort(src, tmp, size, key, counts);
    if (sorted != out) std::copy(sorted, sorted + size, out);
    return;
  }
  const Key first = key(src[0]);
  const Key varying = ParallelReduce(
      0, size, Key{0},
      [&](uint64_t begin, uint64_t end) {
        Key bits = 0;
        for (uint64_t i = begin; i < end; ++i) bits |= key(src[i]) ^ first;
        return bits;
      },
      [](Key a, Key b) { return static_cast<Key>(a | b); }, threads);
  if (varying == 0) {  // every key is equal: the input order is the order
    if (src != out) std::copy(src, src + size, out);
    return;
  }
  const int top = static_cast<int>(std::bit_width(varying));
  const int bits =
      std::min({top, kMaxSplitBits,
                static_cast<int>(std::bit_width(size)) - kItemsPerValueLog2});
  const std::vector<size_t> bounds =
      Split(src, tmp, size, top - bits, bits, kBudget / 2, key, threads);
  // The ranges now sit in tmp; each is sorted from there into out.
  std::vector<std::pair<size_t, size_t>> in_cache;  // (begin, length)
  size_t in_cache_items = 0;
  for (size_t r = 0; r + 1 < bounds.size(); ++r) {
    const size_t begin = bounds[r];
    const size_t length = bounds[r + 1] - begin;
    if (length <= kBudget) {
      in_cache.emplace_back(begin, length);
      in_cache_items += length;
    } else {
      SortRange(tmp + begin, src + begin, length, out + begin, key, threads,
                counts);
    }
  }
  // Consecutive in-cache ranges form batches of about equal item counts.
  const size_t share =
      std::max<size_t>(1, in_cache_items / (static_cast<size_t>(threads) * 4));
  std::vector<size_t> batch_begin = {0};
  size_t filled = 0;
  for (size_t i = 0; i < in_cache.size(); ++i) {
    if (filled >= share) {
      batch_begin.push_back(i);
      filled = 0;
    }
    filled += in_cache[i].second;
  }
  batch_begin.push_back(in_cache.size());
  ParallelForEach(
      0, batch_begin.size() - 1,
      [&](uint64_t b) {
        std::vector<size_t> local;
        for (size_t i = batch_begin[b]; i < batch_begin[b + 1]; ++i) {
          const auto [begin, length] = in_cache[i];
          SortRange(tmp + begin, src + begin, length, out + begin, key,
                    /*threads=*/1, &local);
        }
      },
      threads, /*grain=*/1);
}

}  // namespace radix_internal

/// Stable radix sort of `items` ascending by `key(item)`, an unsigned
/// integer, on up to `threads` threads (0 = DefaultThreadCount()). Items
/// with equal keys keep their input order, so the result is the unique
/// stable order, the same at every thread count.
///
/// An input within the in-cache budget (RadixSortBudget) runs the LSD sort
/// (radix_internal::LsdSort) on the calling thread. A larger one is first
/// split, out of cache and on the worker pool, into ranges within the
/// budget (a skewed range is split again); the LSD passes then run in
/// cache, ranges side by side. LSD alone pays a scatter of the whole input
/// out of cache for every varying 11-bit digit, six for ranking keys: the
/// 441,470 (key, id) pairs of an RMat(15,16) ranking took 0.036-0.048 s to
/// sort and project to ids with LSD alone (one thread at any count) on a
/// 4-core VM with 2 MiB of L2 per core, against 0.023, 0.014 and 0.008 s
/// at 1, 2 and 4 threads split first (DESIGN.md §12, "Ranking order").
template <typename T, typename KeyFn>
void StableRadixSort(std::vector<T>* items, KeyFn key, int threads = 0) {
  using Key = std::invoke_result_t<KeyFn&, const T&>;
  static_assert(std::is_unsigned_v<Key>, "radix keys must be unsigned");
  static_assert(std::is_trivially_copyable_v<T>,
                "radix-sorted items are moved by plain copies");
  const size_t size = items->size();
  if (size == 0) return;
  if (threads <= 0) threads = DefaultThreadCount();
  std::unique_ptr<T[]> scratch;
  if (size >= kRadixSortMinSize) {
    scratch = std::make_unique_for_overwrite<T[]>(size);
  }
  std::vector<size_t> counts;
  radix_internal::SortRange(items->data(), scratch.get(), size, items->data(),
                            key, threads, &counts);
}

/// Sorts unsigned integer words ascending (StableRadixSort keyed on the word
/// itself).
template <typename Word>
void RadixSortWords(std::vector<Word>* words, int threads = 0) {
  StableRadixSort(words, [](Word word) { return word; }, threads);
}

}  // namespace edgeshed

#endif  // EDGESHED_COMMON_RADIX_SORT_H_
