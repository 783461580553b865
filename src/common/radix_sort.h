#ifndef EDGESHED_COMMON_RADIX_SORT_H_
#define EDGESHED_COMMON_RADIX_SORT_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace edgeshed {

/// Inputs shorter than this are handed to std::stable_sort: below it the
/// radix histograms cost more than the comparisons they replace.
inline constexpr size_t kRadixSortMinSize = 2048;

/// Stable LSD radix sort of `items` ascending by `key(item)`, an unsigned
/// integer. Items with equal keys keep their input order, so the result is
/// the unique stable order.
///
/// 11-bit digits keep every digit's histogram L1/L2-resident. One read pass
/// counts all digits at once and finds the digits that vary; a digit with
/// the same value in every key costs no pass, so small keys (edge ids) pay
/// only for their low digits. Single-threaded on purpose: the passes are
/// memory-bound. A chunked parallel scatter (per-chunk histograms, stable
/// per-chunk offsets) on the worker pool sorted the 442,171 ranking keys
/// of an RMat(15,16) graph in 0.023-0.025 s at 2 threads and 0.015-0.016 s
/// at 4, against 0.021-0.023 s here, on a 4-core VM: no gain at the 2
/// threads the service ranks with (DESIGN.md §12, "Ranking order").
template <typename T, typename KeyFn>
void StableRadixSort(std::vector<T>* items, KeyFn key) {
  using Key = std::invoke_result_t<KeyFn&, const T&>;
  static_assert(std::is_unsigned_v<Key>, "radix keys must be unsigned");
  constexpr int kDigitBits = 11;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  constexpr int kDigits =
      (static_cast<int>(sizeof(Key)) * 8 + kDigitBits - 1) / kDigitBits;
  const size_t size = items->size();
  if (size < kRadixSortMinSize) {
    std::stable_sort(
        items->begin(), items->end(),
        [&key](const T& a, const T& b) { return key(a) < key(b); });
    return;
  }
  std::vector<size_t> counts(kDigits * kBuckets);
  const Key first = key((*items)[0]);
  Key varying = 0;
  for (const T& item : *items) {
    const Key k = key(item);
    varying |= k ^ first;
    for (int d = 0; d < kDigits; ++d) {
      ++counts[d * kBuckets + ((k >> (d * kDigitBits)) & (kBuckets - 1))];
    }
  }
  std::unique_ptr<T[]> scratch;  // allocated by the first pass that runs
  T* src = items->data();
  T* dst = nullptr;
  for (int d = 0; d < kDigits; ++d) {
    const int shift = d * kDigitBits;
    if (((varying >> shift) & (kBuckets - 1)) == 0) continue;
    if (scratch == nullptr) {
      scratch = std::make_unique_for_overwrite<T[]>(size);
      dst = scratch.get();
    }
    size_t* offsets = &counts[d * kBuckets];
    size_t running = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const size_t count = offsets[b];
      offsets[b] = running;
      running += count;
    }
    for (size_t i = 0; i < size; ++i) {
      dst[offsets[(key(src[i]) >> shift) & (kBuckets - 1)]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != items->data()) std::copy(src, src + size, items->data());
}

/// Sorts unsigned integer words ascending (StableRadixSort keyed on the word
/// itself).
template <typename Word>
void RadixSortWords(std::vector<Word>* words) {
  StableRadixSort(words, [](Word word) { return word; });
}

}  // namespace edgeshed

#endif  // EDGESHED_COMMON_RADIX_SORT_H_
