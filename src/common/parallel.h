#ifndef EDGESHED_COMMON_PARALLEL_H_
#define EDGESHED_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

namespace edgeshed {

/// Number of worker threads the parallel helpers use by default (hardware
/// concurrency, at least 1). Override with the EDGESHED_THREADS environment
/// variable; the variable is re-read on every call so tests can flip it
/// between parallel regions.
int DefaultThreadCount();

namespace internal {

/// Runs `run(context)` on the calling thread and, at the same time, on up to
/// `helpers` workers of the process-wide pool, and returns once every one of
/// those calls has returned. The caller always runs it, so a region never
/// waits for a free worker: workers busy elsewhere (another region, a nested
/// one) are simply not enlisted. `run` must be safe to call concurrently and
/// must not throw.
void RunOnPool(uint64_t helpers, void (*run)(void*), void* context);

}  // namespace internal

/// Runs `body(chunk_begin, chunk_end)` over disjoint chunks of
/// [begin, end) on up to `threads` threads (0 = DefaultThreadCount()): the
/// calling thread plus workers of a persistent pool (DESIGN.md §8,
/// "Threading model"). Blocks until all chunks complete. `body` must be safe
/// to run concurrently on disjoint ranges. Ranges smaller than `grain` items
/// per thread run inline on the calling thread. A body may itself call
/// ParallelFor, and several threads may run regions at once.
///
/// This templated overload is the hot-path entry point: the body is invoked
/// directly with no std::function type erasure. Chunks are pulled off a
/// shared counter so skewed per-item cost (e.g. BFS from hub vertices) stays
/// balanced. Chunk *assignment* to threads is nondeterministic; callers that
/// need reproducible floating-point accumulation should use ParallelReduce
/// or write to chunk-indexed slots.
template <typename Body>
void ParallelFor(uint64_t begin, uint64_t end, Body&& body, int threads = 0,
                 uint64_t grain = 256) {
  if (begin >= end) return;
  if (threads <= 0) threads = DefaultThreadCount();
  if (grain == 0) grain = 1;
  const uint64_t total = end - begin;
  const uint64_t usable =
      std::min<uint64_t>(static_cast<uint64_t>(threads),
                         std::max<uint64_t>(1, total / grain));
  if (usable <= 1) {
    body(begin, end);
    return;
  }
  const uint64_t chunk = std::max<uint64_t>(grain, total / (usable * 8));
  std::atomic<uint64_t> next(begin);
  auto pull = [&next, &body, end, chunk]() {
    for (;;) {
      const uint64_t chunk_begin = next.fetch_add(chunk);
      if (chunk_begin >= end) return;
      body(chunk_begin, std::min(end, chunk_begin + chunk));
    }
  };
  internal::RunOnPool(
      usable - 1,
      [](void* context) noexcept { (*static_cast<decltype(pull)*>(context))(); },
      &pull);
}

/// Convenience wrapper: calls `body(i)` for each i in [begin, end) in
/// parallel chunks. Same guarantees as ParallelFor.
template <typename Body>
void ParallelForEach(uint64_t begin, uint64_t end, Body&& body,
                     int threads = 0, uint64_t grain = 256) {
  ParallelFor(
      begin, end,
      [&body](uint64_t chunk_begin, uint64_t chunk_end) {
        for (uint64_t i = chunk_begin; i < chunk_end; ++i) body(i);
      },
      threads, grain);
}

/// Parallel *stable* sort: contiguous chunks are stable-sorted in parallel,
/// then merged pairwise with std::inplace_merge (also stable). Because the
/// chunks are contiguous and every merge keeps left-chunk-before-right-chunk
/// order for equal elements, the result is the unique stable-sorted
/// permutation — bit-identical for every thread count and chunk layout.
/// Falls back to std::stable_sort for small inputs.
template <typename RandomIt,
          typename Compare =
              std::less<typename std::iterator_traits<RandomIt>::value_type>>
void ParallelSort(RandomIt first, RandomIt last, Compare comp = Compare(),
                  int threads = 0) {
  const uint64_t total = static_cast<uint64_t>(std::distance(first, last));
  if (threads <= 0) threads = DefaultThreadCount();
  constexpr uint64_t kMinPerChunk = uint64_t{1} << 13;
  uint64_t chunks = std::min<uint64_t>(static_cast<uint64_t>(threads),
                                       std::max<uint64_t>(1, total / kMinPerChunk));
  chunks = std::bit_floor(chunks);  // power of two for the merge tree
  if (chunks <= 1) {
    std::stable_sort(first, last, comp);
    return;
  }
  std::vector<uint64_t> bounds(chunks + 1);
  for (uint64_t c = 0; c <= chunks; ++c) bounds[c] = total * c / chunks;
  ParallelForEach(
      0, chunks,
      [&](uint64_t c) {
        std::stable_sort(first + static_cast<std::ptrdiff_t>(bounds[c]),
                         first + static_cast<std::ptrdiff_t>(bounds[c + 1]),
                         comp);
      },
      threads, /*grain=*/1);
  for (uint64_t width = 1; width < chunks; width *= 2) {
    const uint64_t pairs = chunks / (2 * width);
    ParallelForEach(
        0, pairs,
        [&](uint64_t p) {
          const uint64_t lo = p * 2 * width;
          std::inplace_merge(
              first + static_cast<std::ptrdiff_t>(bounds[lo]),
              first + static_cast<std::ptrdiff_t>(bounds[lo + width]),
              first + static_cast<std::ptrdiff_t>(bounds[lo + 2 * width]),
              comp);
        },
        threads, /*grain=*/1);
  }
}

/// Parallel reduction: `chunk_fn(chunk_begin, chunk_end) -> T` maps each
/// chunk of [begin, end) to a partial, and `combine(acc, partial) -> T`
/// folds the partials together. The chunk grid depends only on the range
/// size (at most 64 chunks of at least `min_per_chunk` items) — never on
/// the thread count — and partials are combined in ascending chunk order,
/// so the result (including floating-point results) is identical for every
/// EDGESHED_THREADS value.
template <typename T, typename ChunkFn, typename CombineFn>
T ParallelReduce(uint64_t begin, uint64_t end, T identity, ChunkFn&& chunk_fn,
                 CombineFn&& combine, int threads = 0,
                 uint64_t min_per_chunk = 1024) {
  if (begin >= end) return identity;
  const uint64_t total = end - begin;
  constexpr uint64_t kMaxChunks = 64;
  const uint64_t chunks = std::clamp<uint64_t>(
      total / std::max<uint64_t>(1, min_per_chunk), 1, kMaxChunks);
  std::vector<T> partials(chunks, identity);
  ParallelForEach(
      0, chunks,
      [&](uint64_t c) {
        partials[c] =
            chunk_fn(begin + total * c / chunks, begin + total * (c + 1) / chunks);
      },
      threads, /*grain=*/1);
  T result = std::move(identity);
  for (uint64_t c = 0; c < chunks; ++c) {
    result = combine(std::move(result), std::move(partials[c]));
  }
  return result;
}

}  // namespace edgeshed

#endif  // EDGESHED_COMMON_PARALLEL_H_
