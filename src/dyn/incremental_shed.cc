#include "dyn/incremental_shed.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <unordered_set>

#include "common/check.h"
#include "common/parallel.h"
#include "common/radix_sort.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/crr.h"

namespace edgeshed::dyn {

ShedSession::ShedSession(std::shared_ptr<VersionedGraph> g,
                         DynamicShedOptions options)
    : graph_(std::move(g)), options_(std::move(options)) {
  EDGESHED_CHECK(graph_ != nullptr);
  const Status status = core::ValidatePreservationRatio(options_.p);
  EDGESHED_CHECK(status.ok()) << status.ToString();
}

namespace {

graph::Edge EdgeOfKey(uint64_t key) {
  return graph::Edge{static_cast<graph::NodeId>(key >> 32),
                     static_cast<graph::NodeId>(key & 0xFFFFFFFFull)};
}

}  // namespace

void KeptSet::Reset(std::vector<uint64_t> keys, const DeltaGraph& snap,
                    int threads) {
  RadixSortWords(&keys, threads);
  edges_.resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) edges_[i] = EdgeOfKey(keys[i]);
  ranks_ = snap.BaseRanksOf(edges_, threads);
  base_ = snap.base();
  joined_.clear();
  left_.clear();
}

Status KeptSet::Commit(const DeltaGraph& snap, int threads) {
  const std::shared_ptr<const graph::Graph>& base = snap.base();
  const bool same_base = !base_.owner_before(base) && !base.owner_before(base_);
  if (same_base && joined_.empty() && left_.empty()) return Status::OK();

  // Net the log: every edge whose membership changed, ascending. An edge
  // can join and leave several times in one interval (swap-chain trades).
  ParallelForEach(
      0, 2,
      [&](uint64_t i) { RadixSortWords(i == 0 ? &joined_ : &left_, 1); },
      threads, /*grain=*/1);
  struct Change {
    graph::Edge edge;
    bool joined;
  };
  std::vector<Change> changes;
  std::vector<graph::Edge> joiners;
  changes.reserve(joined_.size() + left_.size());
  joiners.reserve(joined_.size());
  for (size_t j = 0, l = 0; j < joined_.size() || l < left_.size();) {
    const uint64_t key =
        l == left_.size() || (j < joined_.size() && joined_[j] < left_[l])
            ? joined_[j]
            : left_[l];
    int64_t net = 0;
    for (; j < joined_.size() && joined_[j] == key; ++j) ++net;
    for (; l < left_.size() && left_[l] == key; ++l) --net;
    if (net == 0) continue;
    const graph::Edge edge = EdgeOfKey(key);
    if (net != 1 && net != -1) {
      return Status::Internal(
          StrFormat("kept-set log: edge {%u, %u} nets %lld membership changes",
                    edge.u, edge.v, static_cast<long long>(net)));
    }
    changes.push_back({edge, net > 0});
    if (net > 0) joiners.push_back(edge);
  }
  joined_.clear();
  left_.clear();

  const std::vector<uint32_t> joiner_ranks =
      same_base ? snap.BaseRanksOf(joiners, threads)
                : std::vector<uint32_t>(joiners.size());

  // Merge in place, in one forward pass. The entries not yet read are
  // `pending` (a FIFO of entries a joiner displaced) followed by
  // edges_[in, n); `out` never passes `in`, and a write at `out == in`
  // first moves the entry there to `pending`. A leaver is read and
  // dropped. No |E′|-sized array is allocated.
  const size_t n = edges_.size();
  const size_t leavers = changes.size() - joiners.size();
  if (leavers > n) {
    return Status::Internal(
        StrFormat("kept-set log: %zu edges leave a set of %zu", leavers, n));
  }
  const size_t out_size = n - leavers + joiners.size();
  // Exact growth: a doubled capacity would stay with the session.
  edges_.reserve(out_size);
  ranks_.reserve(out_size);
  edges_.resize(std::max(n, out_size));
  ranks_.resize(std::max(n, out_size));
  struct Entry {
    graph::Edge edge;
    uint32_t rank;
  };
  std::vector<Entry> pending(std::bit_ceil(joiners.size() + 1));
  const size_t mask = pending.size() - 1;
  size_t head = 0;
  size_t count = 0;
  size_t in = 0;
  size_t out = 0;
  const auto emit = [&](const graph::Edge& edge, uint32_t rank) {
    if (out == in && in < n) {
      pending[(head + count) & mask] = {edges_[in], ranks_[in]};
      ++count;
      ++in;
    }
    edges_[out] = edge;
    ranks_[out] = rank;
    ++out;
  };
  // Reads the next entry, if it is below `bound`, into the output.
  const auto copy_below = [&](const graph::Edge& bound) {
    for (;;) {
      if (count > 0) {
        const Entry entry = pending[head];
        if (!(entry.edge < bound)) return;
        head = (head + 1) & mask;
        --count;
        emit(entry.edge, entry.rank);
      } else {
        // Nothing pending: the run below `bound` moves down as a block.
        size_t end = in;
        while (end < n && edges_[end] < bound) ++end;
        if (out != in && end != in) {
          std::memmove(&edges_[out], &edges_[in],
                       (end - in) * sizeof(graph::Edge));
          std::memmove(&ranks_[out], &ranks_[in],
                       (end - in) * sizeof(uint32_t));
        }
        out += end - in;
        in = end;
        return;
      }
    }
  };
  size_t next_joiner = 0;
  for (const Change& change : changes) {
    copy_below(change.edge);
    const bool present = count > 0 ? pending[head].edge == change.edge
                                   : in < n && edges_[in] == change.edge;
    if (present == change.joined) {
      return Status::Internal(StrFormat(
          "kept-set log: edge {%u, %u} %s", change.edge.u, change.edge.v,
          change.joined ? "joins but is already kept"
                        : "leaves but is not kept"));
    }
    if (change.joined) {
      emit(change.edge, joiner_ranks[next_joiner++]);
    } else if (count > 0) {
      head = (head + 1) & mask;
      --count;
    } else {
      ++in;
    }
  }
  copy_below(graph::Edge{graph::kInvalidNode, graph::kInvalidNode});
  EDGESHED_DCHECK(out == out_size && count == 0);
  edges_.resize(out_size);
  ranks_.resize(out_size);
  if (!same_base) {
    ranks_ = snap.BaseRanksOf(edges_, threads);
    base_ = base;
  }
  return Status::OK();
}

void ShedSession::SetKept(uint64_t key, bool kept) {
  const graph::Edge e = EdgeOfKey(key);
  if (kept) {
    disc_->AddEdge(e.u, e.v);
  } else {
    disc_->RemoveEdge(e.u, e.v);
  }
  kept_.Log(key, kept);
}

StatusOr<uint64_t> ShedSession::RefineKeptSet(uint64_t target,
                                              uint64_t steps,
                                              uint64_t rng_seed) {
  Rng rng(rng_seed);
  return core::RunSwapChain(
      &order_, target, steps, &rng, /*accept_zero_delta=*/false, &*disc_,
      /*cancel=*/nullptr, [this](RankedEdge& kept, RankedEdge& excluded) {
        // The chain has moved Δ; the kept log follows it.
        kept_.Log(kept.key, false);
        kept_.Log(excluded.key, true);
        // The two edges trade rank slots along with kept membership: each
        // slot keeps its eff (and base score), so "kept set == order_
        // prefix" survives into the next incremental pass. Without this
        // that pass, which reads kept membership off the rank order, would
        // silently undo every refinement swap and regress total delta to
        // the unrefined rank cut.
        std::swap(kept.key, excluded.key);
      });
}

StatusOr<DynamicShedResult> ShedSession::BuildResult(const DeltaGraph& snap) {
  Status committed = kept_.Commit(snap, options_.threads);
  StatusOr<std::vector<graph::EdgeId>> ids =
      committed.ok() ? kept_.Ids(snap, options_.threads)
                     : StatusOr<std::vector<graph::EdgeId>>(committed);
  if (!ids.ok()) {
    have_state_ = false;
    return ids.status();
  }
  EDGESHED_DCHECK(kept_.edges().size() == order_target_);
  DynamicShedResult result;
  result.version = snap.version();
  result.kept = kept_.edges();
  result.kept_ids = std::move(ids).value();
  result.total_delta = disc_->TotalDelta();
  result.average_delta = disc_->AverageDelta();
  return result;
}

StatusOr<DynamicShedResult> ShedSession::FullShed(
    const std::shared_ptr<const DeltaGraph>& snap,
    const CancellationToken* cancel) {
  Stopwatch watch;
  const uint64_t version = snap->version();
  graph::Graph materialized;
  const graph::Graph* g = nullptr;
  if (snap->OverlaySize() == 0) {
    g = snap->base().get();
  } else {
    EDGESHED_ASSIGN_OR_RETURN(materialized, snap->Materialize());
    g = &materialized;
  }

  core::ShedOptions shed_options{.p = options_.p,
                                 .cancel = cancel,
                                 .threads = options_.threads,
                                 .seed = options_.seed};
  if (options_.rank_provider != nullptr) {
    shed_options.rank_provider =
        [this, version](const graph::Graph& ranked_graph,
                        const analytics::BetweennessOptions& betweenness) {
          return options_.rank_provider(ranked_graph, betweenness, version);
        };
  }
  EDGESHED_ASSIGN_OR_RETURN(core::CrrRun run,
                            core::Crr().Run(*g, shed_options));

  // Adopt the run's slot order as the rank order: slot i scores |E| - i,
  // whichever edge Phase 2 left in it, and the first run.target slots are
  // the kept set.
  const uint64_t num_edges = run.slots.size();
  order_.clear();
  order_.reserve(num_edges);
  for (uint64_t i = 0; i < num_edges; ++i) {
    order_.push_back(RankedEdge{static_cast<double>(num_edges - i),
                                graph::EdgeKey(run.slots[i].edge)});
  }
  std::vector<core::CrrSlot>().swap(run.slots);
  base_score_.clear();
  if (options_.decay_half_life > 0.0) {
    for (const RankedEdge& e : order_) base_score_.push_back(e.eff);
  }
  disc_.emplace(std::move(run.discrepancy));
  order_target_ = run.target;
  std::vector<uint64_t> kept_keys(order_target_);
  for (uint64_t i = 0; i < order_target_; ++i) kept_keys[i] = order_[i].key;
  kept_.Reset(std::move(kept_keys), *snap, options_.threads);

  have_state_ = true;
  state_version_ = version;
  EDGESHED_ASSIGN_OR_RETURN(DynamicShedResult result, BuildResult(*snap));
  result.snapshot = snap;
  result.full_rank = true;
  result.seconds = watch.ElapsedSeconds();
  result.stats = {
      {"betweenness_seconds", run.betweenness_seconds},
      {"steps", static_cast<double>(run.steps)},
      {"swaps_accepted", static_cast<double>(run.swaps_accepted)},
  };
  return result;
}

StatusOr<DynamicShedResult> ShedSession::IncrementalShed(
    const std::shared_ptr<const DeltaGraph>& snap,
    const std::vector<graph::MutationBatch>& batches,
    const std::vector<graph::NodeId>& dirty,
    const std::vector<uint64_t>& dirty_bits) {
  Stopwatch watch;
  const uint64_t version = snap->version();
  Stopwatch stage_watch;

  uint64_t mutation_count = 0;
  for (const graph::MutationBatch& batch : batches) {
    mutation_count += batch.size();
  }

  // Dirty-region rank recompute: betweenness on the subgraph induced by
  // the dirty vertices, iterated straight off the overlay view. The
  // global->local id map is a direct-index array — the extraction loop
  // visits every dirty-vertex neighbor and a hash probe per visit is the
  // dominant cost on hub-heavy regions.
  const graph::NodeId kNotLocal = snap->NumNodes();
  std::vector<graph::NodeId> local_of(snap->NumNodes(), kNotLocal);
  for (size_t i = 0; i < dirty.size(); ++i) {
    local_of[dirty[i]] = static_cast<graph::NodeId>(i);
  }
  // The extraction runs on the pool: each chunk of `dirty` lists its
  // vertices' edges to higher dirty neighbors, and the chunks are
  // concatenated in order, so the arrays are the same at any thread count.
  struct Region {
    std::vector<graph::Edge> edges;  // local endpoints
    std::vector<uint64_t> keys;      // aligned with local EdgeIds, ascending
    // keys[begin[i], begin[i + 1]) are dirty[i]'s edges to higher dirty
    // neighbors.
    std::vector<size_t> begin;
  };
  Region region = ParallelReduce(
      0, dirty.size(), Region{},
      [&](uint64_t first, uint64_t last) {
        Region part;
        part.begin.reserve(last - first);
        for (uint64_t i = first; i < last; ++i) {
          const graph::NodeId u = dirty[i];
          part.begin.push_back(part.keys.size());
          snap->ForEachNeighbor(u, [&](graph::NodeId n) {
            if (n <= u) return;
            const graph::NodeId ln = local_of[n];
            if (ln == kNotLocal) return;
            part.edges.push_back(
                graph::Edge{static_cast<graph::NodeId>(i), ln});
            part.keys.push_back(graph::EdgeKey(u, n));
          });
        }
        return part;
      },
      [](Region acc, Region part) {
        const size_t offset = acc.keys.size();
        for (size_t& b : part.begin) b += offset;
        acc.edges.insert(acc.edges.end(), part.edges.begin(),
                         part.edges.end());
        acc.keys.insert(acc.keys.end(), part.keys.begin(), part.keys.end());
        acc.begin.insert(acc.begin.end(), part.begin.begin(),
                         part.begin.end());
        return acc;
      },
      options_.threads, /*min_per_chunk=*/16);
  std::vector<graph::Edge>& local_edges = region.edges;
  const std::vector<uint64_t>& local_keys = region.keys;
  std::vector<size_t>& local_begin = region.begin;
  local_begin.push_back(local_keys.size());
  const uint64_t dirty_edges = local_edges.size();
  EDGESHED_DCHECK(std::is_sorted(local_keys.begin(), local_keys.end()));
  // The local EdgeId of a key with both endpoints dirty, or kNotRegion when
  // that edge is not live.
  constexpr size_t kNotRegion = ~size_t{0};
  const auto region_id = [&](uint64_t key) {
    const graph::NodeId lu = local_of[key >> 32];
    const auto begin = local_keys.begin() + local_begin[lu];
    const auto end = local_keys.begin() + local_begin[lu + 1];
    const auto it = std::lower_bound(begin, end, key);
    return it != end && *it == key
               ? static_cast<size_t>(it - local_keys.begin())
               : kNotRegion;
  };
  // A region edge deleted since state_version_ is back only as a net-new
  // edge: its old rank slot retires.
  std::vector<uint8_t> reinserted(local_keys.size(), 0);
  for (const graph::MutationBatch& batch : batches) {
    for (const graph::Edge& e : batch.deletes) {
      const size_t l = region_id(graph::EdgeKey(e));
      if (l != kNotRegion) reinserted[l] = 1;
    }
  }

  // Classification: one pass over order_, on the pool. An entry with an
  // endpoint outside the dirty set is untouched. An entry with both
  // endpoints dirty was either deleted since state_version_ (it becomes a
  // remove event) or is a live edge of the region (its slot joins the donor
  // pool, which it reaches in rank order). Kept membership is the position
  // against the old cut, recorded per retiring key and per local EdgeId.
  // Each chunk fills its own lists; concatenated in position order they
  // are the same at any thread count.
  const auto is_dirty = [&](graph::NodeId u) {
    return ((dirty_bits[u >> 6] >> (u & 63)) & 1) != 0;
  };
  struct MergeEvent {
    size_t pos;
    enum Kind : uint8_t { kRemove, kReplace } kind;
    uint32_t fresh_index;
  };
  struct Classified {
    std::vector<MergeEvent> events;
    std::vector<double> slots;  // donor scores, the region's slot pool
    std::vector<uint64_t> kept_removed;  // kept slots that retire, by key
  };
  std::vector<uint8_t> region_kept(local_keys.size(), 0);
  Classified classified = ParallelReduce(
      0, order_.size(), Classified{},
      [&](uint64_t first, uint64_t last) {
        Classified part;
        for (size_t p = first; p < last; ++p) {
          const RankedEdge& entry = order_[p];
          if (!(is_dirty(entry.u()) & is_dirty(entry.v()))) continue;
          const bool kept = p < order_target_;
          const size_t l = region_id(entry.key);
          if (l == kNotRegion || reinserted[l] != 0) {
            if (kept) part.kept_removed.push_back(entry.key);
            part.events.push_back({p, MergeEvent::kRemove, 0});
            continue;
          }
          region_kept[l] = kept;
          part.events.push_back({p, MergeEvent::kReplace,
                                 static_cast<uint32_t>(part.slots.size())});
          part.slots.push_back(base_score_.empty() ? entry.eff
                                                   : base_score_[p]);
        }
        return part;
      },
      [](Classified acc, Classified part) {
        const auto offset = static_cast<uint32_t>(acc.slots.size());
        for (MergeEvent& ev : part.events) {
          if (ev.kind == MergeEvent::kReplace) ev.fresh_index += offset;
        }
        acc.events.insert(acc.events.end(), part.events.begin(),
                          part.events.end());
        acc.slots.insert(acc.slots.end(), part.slots.begin(),
                         part.slots.end());
        acc.kept_removed.insert(acc.kept_removed.end(),
                                part.kept_removed.begin(),
                                part.kept_removed.end());
        return acc;
      },
      options_.threads, /*min_per_chunk=*/256);
  const std::vector<MergeEvent>& events = classified.events;
  std::vector<double>& slots = classified.slots;
  std::vector<uint64_t>& kept_removed = classified.kept_removed;
  const size_t found_count = slots.size();
  const double scan_seconds = stage_watch.ElapsedSeconds();

  // A kept edge leaves the reduced graph at its first deletion, in batch
  // order; then only mutated endpoints change their base degree, hence
  // their expected-degree term.
  std::sort(kept_removed.begin(), kept_removed.end());
  std::vector<uint8_t> still_kept(kept_removed.size(), 1);
  std::unordered_set<graph::NodeId> touched;
  touched.reserve(2 * mutation_count);
  for (const graph::MutationBatch& batch : batches) {
    for (const graph::Edge& e : batch.deletes) {
      touched.insert(e.u);
      touched.insert(e.v);
      const uint64_t key = graph::EdgeKey(e);
      const auto it =
          std::lower_bound(kept_removed.begin(), kept_removed.end(), key);
      if (it == kept_removed.end() || *it != key) continue;
      uint8_t& pending = still_kept[it - kept_removed.begin()];
      if (pending != 0) SetKept(key, false);
      pending = 0;
    }
    for (const graph::Edge& e : batch.inserts) {
      touched.insert(e.u);
      touched.insert(e.v);
    }
  }
  for (const graph::NodeId u : touched) {
    disc_->UpdateBaseDegree(u, snap->Degree(u));
  }
  const double region_seconds = stage_watch.ElapsedSeconds();
  double local_rank_seconds = 0.0;
  // The re-scored region in rank order (eff desc, key asc), with each
  // entry's old kept membership. fresh[0..found_count) reuse the donor
  // slots; the rest are net-new extension slots below the region's floor.
  std::vector<RankedEdge> fresh;
  std::vector<uint8_t> fresh_kept;
  if (!local_edges.empty()) {
    // dirty is sorted and ForEachNeighbor ascends, so local_edges is
    // already canonical sorted order: FromEdges assigns EdgeId i to
    // local_edges[i] and local_keys stays aligned.
    StatusOr<graph::Graph> local = graph::Graph::FromEdges(
        static_cast<graph::NodeId>(dirty.size()), local_edges);
    EDGESHED_CHECK(local.ok())
        << "dirty-region subgraph build failed: " << local.status().ToString();
    analytics::BetweennessOptions betweenness = core::CrrOptions{}.betweenness;
    if (options_.threads > 0) betweenness.threads = options_.threads;
    // The local pass exists to undercut a full ranking. Exact Brandes
    // sweeps every region vertex, and uniform edge mutations bias the
    // region toward hubs, so a region well under exact_node_threshold can
    // still out-cost the sampled full pass it replaces. Spend sources in
    // proportion to the region's share of the graph — the source density a
    // sampled full ranking would give the same vertices — with a floor of
    // 64 so small regions keep a usable estimate.
    const uint64_t proportional = std::max<uint64_t>(
        64, static_cast<uint64_t>(std::llround(
                static_cast<double>(betweenness.sample_sources) *
                static_cast<double>(dirty.size()) /
                static_cast<double>(
                    std::max<uint64_t>(1, snap->NumNodes())))));
    betweenness.sample_sources =
        std::min<uint64_t>(betweenness.sample_sources, proportional);
    betweenness.exact_node_threshold = std::min<uint64_t>(
        betweenness.exact_node_threshold, betweenness.sample_sources);
    Stopwatch local_watch;
    const std::vector<graph::EdgeId> ranked_local =
        analytics::EdgesByBetweennessDescending(*local, betweenness);
    local_rank_seconds = local_watch.ElapsedSeconds();
    // Splice: the region's previous global rank slots become a slot pool
    // (extended below its floor for net-new edges), and the fresh local
    // order redistributes the slots. The rest of the ranking is untouched,
    // so one local pass costs O(dirty region), not O(E). Donor effs arrive
    // in descending order; base scores under decay do not.
    if (!base_score_.empty()) {
      std::sort(slots.begin(), slots.end(), std::greater<double>());
    }
    while (slots.size() < local_keys.size()) {
      slots.push_back((slots.empty() ? 0.0 : slots.back()) - 1.0);
    }
    fresh.reserve(ranked_local.size());
    fresh_kept.reserve(ranked_local.size());
    for (size_t i = 0; i < ranked_local.size(); ++i) {
      fresh.push_back(RankedEdge{slots[i], local_keys[ranked_local[i]]});
      fresh_kept.push_back(region_kept[ranked_local[i]]);
    }
  }

  // Merge the re-scored region back into the maintained rank order — no
  // comparison sort, no global betweenness. Untouched edges keep their
  // relative order: between versions every untouched eff is scaled by the
  // same decay factor (1.0 without decay), which is monotone, so the merged
  // order is exactly the (eff desc, key asc) order a full re-sort would
  // produce. Kept membership is diffed in the same pass: an entry's old
  // membership is its old position against the old cut, its new one its
  // output position against the new cut.
  stage_watch.Restart();
  const double half_life = options_.decay_half_life;
  const double decay_factor =
      half_life > 0.0
          ? std::exp2(-static_cast<double>(version - state_version_) /
                      half_life)
          : 1.0;
  const auto ranks_before = [](const RankedEdge& a, const RankedEdge& b) {
    return a.eff != b.eff ? a.eff > b.eff : a.key < b.key;
  };
  EDGESHED_DCHECK(std::is_sorted(
      fresh.begin(), fresh.end(),
      [](const RankedEdge& a, const RankedEdge& b) { return a.eff > b.eff; }));

  const uint64_t live = snap->NumEdges();
  const uint64_t target = core::TargetEdgeCount(live, options_.p);
  std::vector<RankedEdge>& next = merge_scratch_;
  next.resize(live);
  size_t out = 0;
  const auto place = [&](const RankedEdge& e, bool was_kept) {
    const bool now_kept = out < target;
    if (now_kept != was_kept) SetKept(e.key, now_kept);
    EDGESHED_CHECK(out < next.size());
    next[out++] = e;
  };
  if (base_score_.empty()) {
    // Without decay the merged order differs from order_ only at event
    // positions: deleted slots vanish, the dirty region's reused slots keep
    // their positions and swap occupants, and extension slots splice in
    // near the bottom. Above the first slot an extension could precede,
    // the pass memcpys the untouched runs between events and patches kept
    // membership only where a run's constant shift moves entries across
    // the cut. That drops the per-entry emit work — the dominant cost of
    // re-streaming all |E| slots — for the untouched bulk.
    //
    // Eff values are NOT globally unique — an extension slot mints
    // floor-1, floor-2, ... over the dense initial score range — and order_
    // is sorted by eff only, so from that slot on the survivors are
    // streamed one by one, each extension placed before the first survivor
    // it ranks before.
    size_t fe = found_count;
    const size_t tail =
        fe == fresh.size()
            ? order_.size()
            : std::partition_point(order_.begin(), order_.end(),
                                   [&](const RankedEdge& e) {
                                     return e.eff > fresh[fe].eff;
                                   }) -
                  order_.begin();
    size_t src = 0;
    const auto copy_run = [&](size_t end_pos) {
      if (end_pos == src) return;
      // Entries in [src, end_pos) shift by out - src, so membership flips
      // exactly where the shifted position crosses the cut.
      const auto old_cut = static_cast<std::ptrdiff_t>(order_target_);
      const auto new_cut = static_cast<std::ptrdiff_t>(target) -
                           (static_cast<std::ptrdiff_t>(out) -
                            static_cast<std::ptrdiff_t>(src));
      if (new_cut != old_cut) {
        const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(
            std::min(old_cut, new_cut), static_cast<std::ptrdiff_t>(src));
        const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(
            std::max(old_cut, new_cut), static_cast<std::ptrdiff_t>(end_pos));
        for (std::ptrdiff_t p = lo; p < hi; ++p) {
          SetKept(order_[p].key, new_cut > old_cut);
        }
      }
      std::memcpy(next.data() + out, order_.data() + src,
                  (end_pos - src) * sizeof(RankedEdge));
      out += end_pos - src;
      src = end_pos;
    };
    const auto replace = [&](const MergeEvent& ev) {
      if (ev.kind == MergeEvent::kReplace) {
        place(fresh[ev.fresh_index], fresh_kept[ev.fresh_index] != 0);
      }
    };
    size_t ev = 0;
    for (; ev < events.size() && events[ev].pos < tail; ++ev) {
      copy_run(events[ev].pos);
      replace(events[ev]);
      ++src;
    }
    copy_run(tail);
    for (size_t p = tail; p < order_.size(); ++p) {
      if (ev < events.size() && events[ev].pos == p) {
        replace(events[ev++]);
        continue;
      }
      while (fe < fresh.size() && ranks_before(fresh[fe], order_[p])) {
        place(fresh[fe], fresh_kept[fe] != 0);
        ++fe;
      }
      place(order_[p], p < order_target_);
    }
    for (; fe < fresh.size(); ++fe) place(fresh[fe], fresh_kept[fe] != 0);
  } else {
    // Decay rescales every untouched eff, so the whole order is re-streamed
    // against the fresh region, dropping the entries classified above.
    // Untouched entries keep their base scores; a re-scored entry's base is
    // the slot value it was handed.
    std::vector<double>& next_base = base_scratch_;
    next_base.resize(live);
    const auto emit = [&](const RankedEdge& e, bool was_kept, double base) {
      place(e, was_kept);
      next_base[out - 1] = base;
    };
    size_t fi = 0;
    for (size_t oi = 0; oi < order_.size(); ++oi) {
      RankedEdge entry = order_[oi];
      if (is_dirty(entry.u()) && is_dirty(entry.v())) continue;
      entry.eff *= decay_factor;
      while (fi < fresh.size() && ranks_before(fresh[fi], entry)) {
        emit(fresh[fi], fresh_kept[fi] != 0, fresh[fi].eff);
        ++fi;
      }
      emit(entry, oi < order_target_, base_score_[oi]);
    }
    for (; fi < fresh.size(); ++fi) {
      emit(fresh[fi], fresh_kept[fi] != 0, fresh[fi].eff);
    }
    base_score_.swap(next_base);
  }
  EDGESHED_CHECK(out == live)
      << "merged rank order has " << out << " edges, snapshot has " << live;
  order_.swap(next);
  const double merge_seconds = stage_watch.ElapsedSeconds();

  // O(batch)-bounded swap refinement over the fresh baseline.
  const uint64_t steps =
      std::min(core::Crr().StepsFor(live, options_.p),
               kRefineStepsPerMutation * mutation_count);
  const uint64_t rng_seed =
      options_.seed ^ (0x9e3779b97f4a7c15ULL * version);
  stage_watch.Restart();
  EDGESHED_ASSIGN_OR_RETURN(const uint64_t accepted,
                            RefineKeptSet(target, steps, rng_seed));
  const double refine_seconds = stage_watch.ElapsedSeconds();
  order_target_ = target;

  state_version_ = version;
  stage_watch.Restart();
  EDGESHED_ASSIGN_OR_RETURN(DynamicShedResult result, BuildResult(*snap));
  const double result_seconds = stage_watch.ElapsedSeconds();
  result.snapshot = snap;
  result.full_rank = false;
  result.dirty_vertices = dirty.size();
  result.dirty_edges = dirty_edges;
  result.seconds = watch.ElapsedSeconds();
  result.stats = {
      {"mutations", static_cast<double>(mutation_count)},
      {"dirty_vertices", static_cast<double>(dirty.size())},
      {"dirty_edges", static_cast<double>(dirty_edges)},
      {"fresh_edges", static_cast<double>(fresh.size())},
      {"region_seconds", region_seconds},
      {"scan_seconds", scan_seconds},
      {"local_rank_seconds", local_rank_seconds},
      {"merge_seconds", merge_seconds},
      {"refine_seconds", refine_seconds},
      {"result_seconds", result_seconds},
      {"steps", static_cast<double>(steps)},
      {"swaps_accepted", static_cast<double>(accepted)},
  };
  return result;
}

StatusOr<DynamicShedResult> ShedSession::Reshed(
    const CancellationToken* cancel) {
  const std::shared_ptr<const DeltaGraph> snap = graph_->Snapshot();
  if (!have_state_) return FullShed(snap, cancel);
  const std::optional<std::vector<graph::MutationBatch>> batches =
      graph_->BatchesSince(state_version_);
  // History trimmed past this session (or the graph was swapped under it):
  // full restart.
  if (!batches.has_value()) return FullShed(snap, cancel);
  if (batches->empty()) {
    EDGESHED_ASSIGN_OR_RETURN(DynamicShedResult result, BuildResult(*snap));
    result.snapshot = snap;
    result.stats = {{"noop", 1.0}};
    return result;
  }

  // The dirty set as a bit mask over the vertices — |V|/8 bytes — plus the
  // list of its members; the hops grow it breadth-first.
  const uint64_t num_nodes = snap->NumNodes();
  std::vector<uint64_t> dirty_bits((num_nodes + 63) / 64, 0);
  std::vector<graph::NodeId> dirty;
  const auto mark = [&](graph::NodeId u) {
    uint64_t& word = dirty_bits[u >> 6];
    const uint64_t bit = uint64_t{1} << (u & 63);
    if ((word & bit) != 0) return;
    word |= bit;
    dirty.push_back(u);
  };
  for (const graph::MutationBatch& batch : *batches) {
    for (const auto* side : {&batch.inserts, &batch.deletes}) {
      for (const graph::Edge& e : *side) {
        mark(e.u);
        mark(e.v);
      }
    }
  }
  size_t frontier = 0;
  for (uint32_t hop = 0; hop < options_.dirty_hops && frontier < dirty.size();
       ++hop) {
    const size_t frontier_end = dirty.size();
    for (; frontier < frontier_end; ++frontier) {
      snap->ForEachNeighbor(dirty[frontier], mark);
    }
  }
  const double dirty_fraction =
      static_cast<double>(dirty.size()) /
      static_cast<double>(num_nodes == 0 ? 1 : num_nodes);
  if (dirty_fraction > options_.full_rank_dirty_bound) {
    return FullShed(snap, cancel);
  }

  // The incremental pass changes session state from its first stage on and
  // is O(batch)-bounded, so it is polled here only.
  if (CancellationRequested(cancel)) return cancel->ToStatus();
  std::sort(dirty.begin(), dirty.end());
  return IncrementalShed(snap, *batches, dirty, dirty_bits);
}

}  // namespace edgeshed::dyn
