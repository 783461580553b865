#include "analytics/betweenness.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <optional>
#include <utility>

#include "common/parallel.h"
#include "common/radix_sort.h"
#include "common/random.h"

namespace edgeshed::analytics {

namespace {

// Dense bitmap helpers (one bit per vertex). The visited bitmap keeps the
// hot membership test of the bottom-up sweep inside ~|V|/8 bytes — L1/L2
// resident even when the int32 dist array is not.
inline bool TestBit(const std::vector<uint64_t>& bits, graph::NodeId v) {
  return (bits[v >> 6] >> (v & 63)) & 1u;
}
inline void SetBit(std::vector<uint64_t>& bits, graph::NodeId v) {
  bits[v >> 6] |= uint64_t{1} << (v & 63);
}
inline void ClearBit(std::vector<uint64_t>& bits, graph::NodeId v) {
  bits[v >> 6] &= ~(uint64_t{1} << (v & 63));
}

/// Per-thread state of Brandes source sweeps, reset by every sweep.
struct SweepState {
  std::vector<int32_t> dist;
  std::vector<double> sigma;   // shortest-path counts
  std::vector<double> delta;   // dependency accumulator
  std::vector<double> coeff;   // (1 + delta[w]) / sigma[w], per level
  std::vector<graph::NodeId> order;       // concatenated BFS levels
  std::vector<uint64_t> level_offsets;    // order[level_offsets[l]..[l+1])
  std::vector<uint64_t> level_degrees;    // summed degree per level
  std::vector<graph::NodeId> candidates;  // still-unvisited, ascending
  std::vector<uint64_t> visited_bits;
  std::vector<uint64_t> frontier_bits;
};

/// Dense score accumulators: a source stripe's partial sums (persisting
/// across its sweeps and across adaptive waves), or one sweep's own buffer
/// inside a wave. Allocated lazily on the first sweep, so a stripe
/// cancelled before it starts never pays the O(|V|+|E|) zero-fill. `node`
/// stays empty when node scores are not wanted.
struct Accumulators {
  std::vector<double> node;
  std::vector<double> edge;
  bool allocated = false;

  void Ensure(uint64_t num_nodes, uint64_t num_edges, bool node_scores) {
    if (allocated) return;
    allocated = true;
    edge.assign(num_edges, 0.0);
    if (node_scores) node.assign(num_nodes, 0.0);
  }
};

/// One level-synchronous Brandes sweep from `source`, adding into `acc` at
/// most one term per edge and one per reached vertex. Returns false when
/// the cancellation token tripped (polled once per BFS level, both
/// directions); the accumulators are then garbage and the caller must
/// discard the whole run.
///
/// Canonical ordering contract: every level of the forward BFS is kept
/// sorted by ascending vertex id (top-down levels are rebuilt ascending
/// from a discovery bitmap; bottom-up levels are built ascending by
/// construction), and
/// both directions accumulate sigma — and, in the reverse pass, delta — for
/// a fixed vertex in ascending neighbor order. Every floating-point sum
/// therefore adds the same terms in the same order no matter which
/// direction processed a level, which is what makes the classic and hybrid
/// kernels bit-identical (DESIGN.md §12).
bool BrandesFromSource(const graph::Graph& g, graph::NodeId source,
                       const BetweennessOptions& options,
                       SweepState* scratch, Accumulators* acc) {
  const uint64_t n = g.NumNodes();
  const uint64_t words = (n + 63) / 64;
  const bool hybrid = options.kernel == BetweennessOptions::Kernel::kHybrid;
  auto& dist = scratch->dist;
  auto& sigma = scratch->sigma;
  auto& delta = scratch->delta;
  auto& coeff = scratch->coeff;
  auto& order = scratch->order;
  auto& level_offsets = scratch->level_offsets;
  auto& level_degrees = scratch->level_degrees;
  auto& candidates = scratch->candidates;
  auto& visited = scratch->visited_bits;
  auto& frontier_bits = scratch->frontier_bits;

  dist.assign(n, -1);
  sigma.assign(n, 0.0);
  delta.assign(n, 0.0);
  coeff.resize(n);
  order.clear();
  level_offsets.clear();
  level_degrees.clear();
  candidates.clear();
  visited.assign(words, 0);
  frontier_bits.assign(words, 0);
  bool candidates_valid = false;

  dist[source] = 0;
  sigma[source] = 1.0;
  SetBit(visited, source);
  order.push_back(source);
  level_offsets.push_back(0);
  level_offsets.push_back(1);
  level_degrees.push_back(g.Degree(source));
  uint64_t unvisited_degree = g.TotalDegree() - level_degrees[0];

  // ---- Forward pass: level-synchronous BFS with per-level direction
  // choice. A level's successors are discovered top-down (push from the
  // frontier) or bottom-up (pull over the unvisited candidates), whichever
  // side's summed degree is cheaper to scan. ----
  size_t level = 0;
  while (level_offsets[level] < level_offsets[level + 1]) {
    if (CancellationRequested(options.cancel)) return false;
    const uint64_t begin = level_offsets[level];
    const uint64_t end = level_offsets[level + 1];
    const int32_t next_level = static_cast<int32_t>(level) + 1;
    const bool bottom_up =
        hybrid && static_cast<double>(level_degrees[level]) >
                      options.hybrid_alpha * static_cast<double>(unvisited_degree);
    uint64_t next_degree = 0;
    if (!bottom_up) {
      // Top-down: scan the (sorted) frontier; discover and accumulate sigma
      // in one pass, marking new vertices in a scratch bitmap. The new level
      // is then rebuilt in ascending id order by scanning the bitmap words —
      // O(|V|/64 + level) instead of an O(level log level) sort, and the
      // same canonical order either way.
      for (uint64_t i = begin; i < end; ++i) {
        const graph::NodeId u = order[i];
        const double sigma_u = sigma[u];
        for (graph::NodeId v : g.Neighbors(u)) {
          if (!TestBit(visited, v)) {
            SetBit(visited, v);
            SetBit(frontier_bits, v);
            dist[v] = next_level;
            next_degree += g.Degree(v);
          }
          if (dist[v] == next_level) sigma[v] += sigma_u;
        }
      }
      for (uint64_t word = 0; word < words; ++word) {
        uint64_t bits = frontier_bits[word];
        frontier_bits[word] = 0;
        while (bits != 0) {
          const int bit = std::countr_zero(bits);
          bits &= bits - 1;
          order.push_back(static_cast<graph::NodeId>(word * 64 +
                                                     static_cast<uint64_t>(bit)));
        }
      }
    } else {
      // Bottom-up: every unvisited candidate pulls from the frontier. The
      // frontier membership test runs against a dense bitmap so the inner
      // loop touches |V|/8 bytes instead of the 4-byte-per-vertex dist
      // array; sigma is summed locally in ascending neighbor order.
      for (uint64_t i = begin; i < end; ++i) SetBit(frontier_bits, order[i]);
      if (!candidates_valid) {
        for (graph::NodeId v = 0; v < n; ++v) {
          if (!TestBit(visited, v)) candidates.push_back(v);
        }
        candidates_valid = true;
      }
      size_t keep = 0;
      for (const graph::NodeId v : candidates) {
        if (TestBit(visited, v)) continue;  // discovered by an earlier level
        double s = 0.0;
        bool reached = false;
        for (graph::NodeId u : g.Neighbors(v)) {
          if (TestBit(frontier_bits, u)) {
            s += sigma[u];
            reached = true;
          }
        }
        if (reached) {
          SetBit(visited, v);
          dist[v] = next_level;
          sigma[v] = s;
          order.push_back(v);  // candidates ascend, so the level ascends
          next_degree += g.Degree(v);
        } else {
          candidates[keep++] = v;
        }
      }
      candidates.resize(keep);
      for (uint64_t i = begin; i < end; ++i) {
        ClearBit(frontier_bits, order[i]);
      }
    }
    level_offsets.push_back(order.size());
    level_degrees.push_back(next_degree);
    unvisited_degree -= next_degree;
    ++level;
  }
  // Levels 0..level-1 are non-empty; level_offsets[level+1] closes the last
  // (empty) one.

  // ---- Reverse pass: dependency accumulation, level-synchronous and
  // direction-optimized the same way. For each level l (descending), the
  // per-successor coefficient (1+delta[w])/sigma[w] is computed once into a
  // dense array; pushing from level l and pulling into level l-1 then
  // produce bit-identical sums (same terms, same ascending-w order per
  // target), so the direction choice is purely a cost decision. ----
  for (size_t l = level; l-- > 1;) {
    if (CancellationRequested(options.cancel)) return false;
    const uint64_t w_begin = level_offsets[l];
    const uint64_t w_end = level_offsets[l + 1];
    for (uint64_t i = w_begin; i < w_end; ++i) {
      const graph::NodeId w = order[i];
      coeff[w] = (1.0 + delta[w]) / sigma[w];
    }
    const bool pull = hybrid && level_degrees[l - 1] < level_degrees[l];
    const int32_t succ_level = static_cast<int32_t>(l);
    if (!pull) {
      for (uint64_t i = w_begin; i < w_end; ++i) {
        const graph::NodeId w = order[i];
        const double cw = coeff[w];
        const auto neighbors = g.Neighbors(w);
        const auto incident = g.IncidentEdges(w);
        for (size_t j = 0; j < neighbors.size(); ++j) {
          const graph::NodeId v = neighbors[j];
          if (dist[v] + 1 != succ_level) continue;  // not a predecessor
          const double contribution = sigma[v] * cw;
          delta[v] += contribution;
          acc->edge[incident[j]] += contribution;
        }
      }
    } else {
      for (uint64_t i = level_offsets[l - 1]; i < w_begin; ++i) {
        const graph::NodeId v = order[i];
        const double sigma_v = sigma[v];
        const auto neighbors = g.Neighbors(v);
        const auto incident = g.IncidentEdges(v);
        for (size_t j = 0; j < neighbors.size(); ++j) {
          const graph::NodeId w = neighbors[j];
          if (dist[w] != succ_level) continue;  // not a successor
          const double contribution = sigma_v * coeff[w];
          delta[v] += contribution;
          acc->edge[incident[j]] += contribution;
        }
      }
    }
  }
  if (!acc->node.empty()) {
    for (uint64_t i = 1; i < order.size(); ++i) {  // skip the source itself
      const graph::NodeId w = order[i];
      acc->node[w] += delta[w];
    }
  }
  return true;
}

/// Brandes sweeps of one run, before the striped partials are merged.
struct SweepRun {
  std::vector<Accumulators> partials;
  uint64_t processed = 0;
  uint64_t waves = 0;
  /// Halves the directed double count and applies the sampling rescale.
  double factor = 1.0;
};

/// Calls `emit(e, sum)` for every edge, `sum` being the partials' scores
/// added per index in ascending partition order. Every consumer — the wave
/// stop check, the final scores, the ranking keys — goes through this one
/// merge, so all of them see the same bits. Partials that never ran a sweep
/// are lazily allocated, stay empty and contribute nothing. Each chunk sums
/// a block of edges one partial at a time, so the inner loop vectorizes.
template <typename Emit>
void ForEachMergedEdge(const SweepRun& run, uint64_t m, int threads,
                       Emit&& emit) {
  std::vector<const double*> swept;
  for (const Accumulators& partial : run.partials) {
    if (!partial.edge.empty()) swept.push_back(partial.edge.data());
  }
  ParallelFor(
      0, m,
      [&](uint64_t begin, uint64_t end) {
        constexpr uint64_t kBlock = 512;
        double acc[kBlock];
        for (uint64_t block = begin; block < end; block += kBlock) {
          const uint64_t len = std::min(kBlock, end - block);
          std::fill(acc, acc + len, 0.0);
          for (const double* partial : swept) {
            for (uint64_t i = 0; i < len; ++i) acc[i] += partial[block + i];
          }
          for (uint64_t i = 0; i < len; ++i) emit(block + i, acc[i]);
        }
      },
      threads);
}

/// The key at one position of an ascending order, as SelectKey finds it.
struct KeyCut {
  uint64_t key = 0;
  uint64_t ties = 0;   // keys equal to `key` at or before the position
  uint64_t equal = 0;  // keys equal to `key` in all
};

/// Key at 0-based position `rank` of `keys` sorted ascending, plus how many
/// keys equal to it sort at or before that position — the ties a cut of the
/// first rank+1 keys takes. A radix select over 16-bit digits: each level
/// histograms one digit of the keys still in play and keeps only the bucket
/// that holds the rank, so no comparison sort runs at all. A level that
/// still reads every key counts and gathers per chunk on `threads` threads;
/// the deeper levels read one bucket's keys and stay serial.
KeyCut SelectKey(const std::vector<uint64_t>& keys, uint64_t rank,
                 int threads) {
  constexpr size_t kBuckets = size_t{1} << 16;
  std::vector<uint32_t> per_chunk;  // every level's histograms, reused
  std::vector<uint64_t> pool;  // the keys that share every digit fixed so far
  const uint64_t* begin = keys.data();
  size_t size = keys.size();
  uint64_t prefix = 0;
  for (int shift = 48;; shift -= 16) {
    const size_t chunks =
        begin == keys.data() ? RadixChunkCount(size, kBuckets, threads) : 1;
    auto digit = [shift](uint64_t key) {
      return static_cast<size_t>((key >> shift) & (kBuckets - 1));
    };
    CountDigitsPerChunk(begin, size, chunks, kBuckets, digit, threads,
                        &per_chunk);
    size_t bucket = 0;
    uint64_t in_bucket = 0;
    for (;; ++bucket) {
      in_bucket = per_chunk[bucket];
      for (size_t c = 1; c < chunks; ++c) {
        in_bucket += per_chunk[c * kBuckets + bucket];
      }
      if (rank < in_bucket) break;
      rank -= in_bucket;
    }
    prefix |= uint64_t{bucket} << shift;
    if (shift == 0) return {prefix, rank + 1, in_bucket};
    if (in_bucket == size) continue;  // every key shares this digit
    // Chunk c gathers its keys of the bucket after those of chunks < c.
    std::vector<size_t> at(chunks);
    for (size_t c = 1; c < chunks; ++c) {
      at[c] = at[c - 1] + per_chunk[(c - 1) * kBuckets + bucket];
    }
    std::vector<uint64_t> next(in_bucket);
    ParallelForEach(
        0, chunks,
        [&](uint64_t c) {
          // Locals, not captures: a uint64_t store could alias a captured
          // size_t, which would then be reloaded for every key.
          uint64_t* out = next.data() + at[c];
          const uint64_t* key = begin + RadixChunkBegin(size, chunks, c);
          const uint64_t* end = begin + RadixChunkBegin(size, chunks, c + 1);
          const uint64_t wanted = uint64_t{bucket} << shift;
          const uint64_t mask = uint64_t{kBuckets - 1} << shift;
          for (; key != end; ++key) {
            if ((*key & mask) == wanted) *out++ = *key;
          }
        },
        threads, /*grain=*/1);
    pool.swap(next);
    begin = pool.data();
    size = pool.size();
  }
}

/// Adds each `from` buffer into its `into` partial, in list order per
/// index, and zeroes the buffers for reuse. Blocked so a block of the
/// partial stays in L1 while the buffers stream past it.
struct Fold {
  double* into;
  double* from;
};
void FoldBuffers(const std::vector<Fold>& folds, uint64_t size, int threads) {
  if (folds.empty()) return;
  ParallelFor(
      0, size,
      [&folds](uint64_t begin, uint64_t end) {
        constexpr uint64_t kBlock = 512;
        for (uint64_t block = begin; block < end; block += kBlock) {
          const uint64_t block_end = std::min(end, block + kBlock);
          for (const Fold& fold : folds) {
            for (uint64_t i = block; i < block_end; ++i) {
              fold.into[i] += fold.from[i];
              fold.from[i] = 0.0;
            }
          }
        }
      },
      threads);
}

/// Runs one wave's sweeps side by side, in rounds of up to `threads`
/// sources (DESIGN.md §12, "Sweeps within a wave"). In a round, the first
/// sweep of each stripe adds straight into the stripe's partial and every
/// later one into a dense buffer of its own; after the round the buffers
/// are folded into their partials in source order and zeroed. A sweep adds
/// at most one term per edge and per vertex, so partial + buffer makes
/// exactly the additions the sweep would have made in the partial itself,
/// in the same order, and the zeros it did not write leave the non-negative
/// partial as it was. Isolated sources add nothing and are skipped. Returns
/// false when the cancellation token tripped.
bool SweepWithinWave(const graph::Graph& g, const BetweennessOptions& options,
                     const std::vector<graph::NodeId>& sources,
                     uint64_t wave_begin, uint64_t wave_end,
                     const std::vector<uint64_t>& stripe_of, bool node_scores,
                     int threads, SweepRun* run,
                     std::vector<SweepState>* states,
                     std::vector<Accumulators>* buffers) {
  const uint64_t n = g.NumNodes();
  const uint64_t m = g.NumEdges();
  std::vector<uint64_t> swept;  // positions in `sources`, ascending
  for (uint64_t i = wave_begin; i < wave_end; ++i) {
    run->partials[stripe_of[i]].Ensure(n, m, node_scores);
    if (g.Degree(sources[i]) > 0) swept.push_back(i);
  }
  const uint64_t slots =
      std::min<uint64_t>(swept.size(), static_cast<uint64_t>(threads));
  if (states->size() < slots) states->resize(slots);
  if (buffers->size() < slots) buffers->resize(slots);
  std::vector<Accumulators*> targets(slots);
  std::vector<Fold> edge_folds;
  std::vector<Fold> node_folds;
  for (uint64_t round = 0; round < swept.size(); round += slots) {
    const uint64_t count = std::min<uint64_t>(slots, swept.size() - round);
    for (uint64_t k = 0; k < count; ++k) {
      const uint64_t i = swept[round + k];
      const bool stripe_first =
          k == 0 || stripe_of[swept[round + k - 1]] != stripe_of[i];
      targets[k] =
          stripe_first ? &run->partials[stripe_of[i]] : &(*buffers)[k];
    }
    ParallelForEach(
        0, count,
        [&](uint64_t k) {
          targets[k]->Ensure(n, m, node_scores);
          BrandesFromSource(g, sources[swept[round + k]], options,
                            &(*states)[k], targets[k]);
        },
        threads, /*grain=*/1);
    if (CancellationRequested(options.cancel)) return false;
    edge_folds.clear();
    node_folds.clear();
    for (uint64_t k = 0; k < count; ++k) {
      Accumulators& partial = run->partials[stripe_of[swept[round + k]]];
      if (targets[k] == &partial) continue;
      edge_folds.push_back({partial.edge.data(), targets[k]->edge.data()});
      if (node_scores) {
        node_folds.push_back({partial.node.data(), targets[k]->node.data()});
      }
    }
    FoldBuffers(edge_folds, m, threads);
    FoldBuffers(node_folds, n, threads);
  }
  return true;
}

/// Runs the (possibly wave-scheduled) sweeps. Returns nullopt when the
/// cancellation token tripped; the partials are garbage then. Node scores
/// are accumulated only when `node_scores` is set.
std::optional<SweepRun> RunSweeps(const graph::Graph& g,
                                  const BetweennessOptions& options,
                                  bool node_scores) {
  const uint64_t n = g.NumNodes();
  const uint64_t m = g.NumEdges();
  std::vector<graph::NodeId> sources;
  bool sampled = false;
  if (n <= options.exact_node_threshold || options.sample_sources >= n) {
    sources.resize(n);
    std::iota(sources.begin(), sources.end(), graph::NodeId{0});
  } else {
    Rng rng(options.seed);
    for (uint64_t index : rng.SampleIndices(n, options.sample_sources)) {
      sources.push_back(static_cast<graph::NodeId>(index));
    }
    sampled = true;
  }

  // Striped reduction instead of a global merge mutex: the sources are split
  // into a fixed number of contiguous partitions, each with its own
  // accumulator pair, so sweep threads never contend. The partition count
  // depends only on the source count — never on the thread count — and the
  // partials are summed per index in ascending partition order
  // (ForEachMergedEdge), so the floating-point accumulation order (and
  // therefore every bit of the result) is identical for any
  // EDGESHED_THREADS value.
  constexpr uint64_t kMaxPartials = 16;
  constexpr uint64_t kMinSourcesPerPartial = 4;
  const uint64_t num_partials = std::clamp<uint64_t>(
      sources.size() / kMinSourcesPerPartial, 1, kMaxPartials);
  SweepRun run;
  run.partials.resize(num_partials);

  // Adaptive pivot waves (sampled mode only): the sources are processed in
  // fixed consecutive slices; after each wave the partials are merged
  // deterministically and the run stops once the top-k edge ranking agrees
  // with the previous wave's. The stripe layout is computed from the *full*
  // source count, so an early stop changes how many sources each partial
  // swept but never the accumulation order of the ones it did.
  const uint64_t total = sources.size();
  const uint64_t wave_size =
      (sampled && options.wave_size > 0) ? options.wave_size : total;
  const uint64_t wave_top_k = std::min<uint64_t>(
      m, options.wave_top_k > 0 ? options.wave_top_k
                                : std::max<uint64_t>(256, m / 2));
  std::vector<uint64_t> wave_keys;
  std::vector<uint64_t> top_k;
  std::vector<uint64_t> prev_top_k;

  // A wave smaller than the whole run can sit inside fewer stripes than
  // there are threads (each FastRanking wave of 8 sits inside one stripe
  // of 16); its sweeps then run side by side (SweepWithinWave).
  const int threads =
      options.threads > 0 ? options.threads : DefaultThreadCount();
  std::vector<uint64_t> stripe_of;
  std::vector<SweepState> states(num_partials);
  std::vector<Accumulators> wave_buffers;
  if (wave_size < total) {
    stripe_of.resize(total);
    for (uint64_t part = 0; part < num_partials; ++part) {
      std::fill(stripe_of.begin() + total * part / num_partials,
                stripe_of.begin() + total * (part + 1) / num_partials, part);
    }
  }

  while (run.processed < total) {
    const uint64_t wave_begin = run.processed;
    const uint64_t wave_end = std::min(total, wave_begin + wave_size);
    if (!stripe_of.empty() &&
        stripe_of[wave_end - 1] - stripe_of[wave_begin] + 1 <
            static_cast<uint64_t>(threads)) {
      if (!SweepWithinWave(g, options, sources, wave_begin, wave_end,
                           stripe_of, node_scores, threads, &run, &states,
                           &wave_buffers)) {
        return std::nullopt;
      }
    } else {
      ParallelForEach(
          0, num_partials,
          [&](uint64_t part) {
            Accumulators& partial = run.partials[part];
            const uint64_t stripe_first = total * part / num_partials;
            const uint64_t stripe_last = total * (part + 1) / num_partials;
            const uint64_t first = std::max(stripe_first, wave_begin);
            const uint64_t last = std::min(stripe_last, wave_end);
            if (first >= last) return;
            partial.Ensure(n, m, node_scores);
            for (uint64_t i = first; i < last; ++i) {
              // Cancellation is polled per BFS level inside the sweep; a
              // tripped token abandons the partition and the caller
              // discards the whole run.
              if (!BrandesFromSource(g, sources[i], options, &states[part],
                                     &partial)) {
                return;
              }
            }
          },
          options.threads, /*grain=*/1);
      if (CancellationRequested(options.cancel)) return std::nullopt;
    }
    run.processed = wave_end;
    ++run.waves;
    if (run.processed >= total) break;
    // Stability check against the previous wave's merged ranking: the top-k
    // of the (unscaled) merged scores as an edge bitmap, compared by
    // popcount.
    wave_keys.resize(m);
    ForEachMergedEdge(run, m, options.threads, [&](uint64_t e, double sum) {
      wave_keys[e] = DescendingScoreKey(sum);
    });
    MarkTopKEdges(wave_keys, wave_top_k, &top_k, threads);
    if (!prev_top_k.empty()) {
      uint64_t shared = 0;
      for (size_t w = 0; w < top_k.size(); ++w) {
        shared +=
            static_cast<uint64_t>(std::popcount(top_k[w] & prev_top_k[w]));
      }
      const double overlap =
          static_cast<double>(shared) / static_cast<double>(wave_top_k);
      if (overlap >= options.wave_stability) break;
    }
    prev_top_k.swap(top_k);
  }

  const double rescale =
      sampled ? static_cast<double>(n) / static_cast<double>(run.processed)
              : 1.0;
  run.factor = 0.5 * rescale;
  return run;
}

}  // namespace

uint64_t DescendingScoreKey(double score) {
  // The bits of a non-negative double grow with its value, so their
  // complement shrinks. `+ 0.0` folds -0.0 into +0.0.
  return ~std::bit_cast<uint64_t>(score + 0.0);
}

void MarkTopKEdges(const std::vector<uint64_t>& keys, uint64_t k,
                   std::vector<uint64_t>* top, int threads) {
  const uint64_t m = keys.size();
  top->assign((m + 63) / 64, 0);
  k = std::min(k, m);
  if (k == 0) return;
  // Every key below the threshold is in; the remaining slots go to keys
  // equal to it in ascending id order. Chunks of whole bitmap words scan on
  // the pool: when only some equal keys are in, each chunk first counts its
  // own, and a prefix over those counts hands each chunk its share of the
  // ties.
  const KeyCut cut = SelectKey(keys, k - 1, threads);
  const size_t words = top->size();
  const size_t chunks = RadixChunkCount(m, 1, threads);
  auto first_key = [&](size_t c) {
    return std::min<uint64_t>(64 * RadixChunkBegin(words, chunks, c), m);
  };
  std::vector<uint64_t> share(chunks, cut.equal);
  if (cut.ties < cut.equal) {
    ParallelForEach(
        0, chunks,
        [&](uint64_t c) {
          share[c] = static_cast<uint64_t>(
              std::count(keys.begin() + static_cast<ptrdiff_t>(first_key(c)),
                         keys.begin() + static_cast<ptrdiff_t>(first_key(c + 1)),
                         cut.key));
        },
        threads, /*grain=*/1);
    uint64_t left = cut.ties;
    for (uint64_t& chunk_share : share) {
      chunk_share = std::min(chunk_share, left);
      left -= chunk_share;
    }
  }
  ParallelForEach(
      0, chunks,
      [&](uint64_t c) {
        const uint64_t* key = keys.data();
        const uint64_t threshold = cut.key;
        uint64_t ties = share[c];
        const uint64_t end = first_key(c + 1);
        for (uint64_t base = first_key(c); base < end; base += 64) {
          uint64_t bits = 0;
          const uint64_t stop = std::min<uint64_t>(base + 64, end);
          for (uint64_t e = base; e < stop; ++e) {
            bool take = key[e] < threshold;
            if (key[e] == threshold && ties > 0) {
              take = true;
              --ties;
            }
            bits |= uint64_t{take} << (e - base);
          }
          (*top)[base / 64] = bits;
        }
      },
      threads, /*grain=*/1);
}

BetweennessScores Betweenness(const graph::Graph& g,
                              const BetweennessOptions& options) {
  const uint64_t n = g.NumNodes();
  const uint64_t m = g.NumEdges();
  BetweennessScores scores;
  scores.node.assign(n, 0.0);
  scores.edge.assign(m, 0.0);
  if (n == 0) return scores;
  std::optional<SweepRun> run = RunSweeps(g, options, /*node_scores=*/true);
  if (!run.has_value()) return scores;

  // Range-partitioned merge: each index is owned by exactly one chunk, and
  // partials are added in fixed partition order. Halve the directed double
  // count and apply the sampling rescale in the same pass.
  ParallelFor(
      0, n,
      [&](uint64_t begin, uint64_t end) {
        for (uint64_t u = begin; u < end; ++u) {
          double acc = 0.0;
          for (const Accumulators& partial : run->partials) {
            if (partial.node.empty()) continue;
            acc += partial.node[u];
          }
          scores.node[u] = acc * run->factor;
        }
      },
      options.threads);
  ForEachMergedEdge(*run, m, options.threads, [&](uint64_t e, double sum) {
    scores.edge[e] = sum * run->factor;
  });
  scores.sources_processed = run->processed;
  scores.waves = run->waves;
  return scores;
}

std::vector<graph::EdgeId> EdgeIdsByKey(std::vector<KeyedEdge>* keyed,
                                        int threads) {
  StableRadixSort(
      keyed, [](const KeyedEdge& edge) { return edge.key; }, threads);
  std::vector<graph::EdgeId> ids(keyed->size());
  ParallelFor(
      0, ids.size(),
      [&](uint64_t begin, uint64_t end) {
        for (uint64_t i = begin; i < end; ++i) ids[i] = (*keyed)[i].id;
      },
      threads);
  return ids;
}

std::vector<graph::EdgeId> EdgesByBetweennessDescending(
    const graph::Graph& g, const BetweennessOptions& options) {
  const uint64_t m = g.NumEdges();
  std::optional<SweepRun> run;
  if (g.NumNodes() > 0) run = RunSweeps(g, options, /*node_scores=*/false);
  // No nodes, or cancelled: skip the ranking. A cancelled one is garbage
  // either way and the caller must check the token before trusting it.
  if (!run.has_value() || CancellationRequested(options.cancel)) {
    std::vector<graph::EdgeId> ids(m);
    std::iota(ids.begin(), ids.end(), graph::EdgeId{0});
    return ids;
  }
  // The merge builds the packed keys directly (the scores themselves are
  // never stored), in ascending id order, so the stable radix sort leaves
  // ties by ascending id: the unique (score desc, id asc) order, whatever
  // the thread count.
  std::vector<KeyedEdge> keyed(m);
  ForEachMergedEdge(*run, m, options.threads, [&](uint64_t e, double sum) {
    keyed[e] = KeyedEdge{DescendingScoreKey(sum * run->factor), e};
  });
  run.reset();  // the partials are no longer needed; free them before sorting
  return EdgeIdsByKey(&keyed, options.threads);
}

}  // namespace edgeshed::analytics
