#include "dyn/incremental_shed.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "common/check.h"
#include "common/radix_sort.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/crr.h"

namespace edgeshed::dyn {

ShedSession::ShedSession(std::shared_ptr<VersionedGraph> g,
                         DynamicShedOptions options)
    : graph_(std::move(g)), options_(std::move(options)) {
  EDGESHED_CHECK(graph_ != nullptr);
  const Status status = core::ValidatePreservationRatio(options_.p);
  EDGESHED_CHECK(status.ok()) << status.ToString();
}

StatusOr<uint64_t> ShedSession::RefineKeptSet(uint64_t target,
                                              uint64_t steps,
                                              uint64_t rng_seed) {
  Rng rng(rng_seed);
  return core::RunSwapChain(
      &order_, target, steps, &rng, /*accept_zero_delta=*/false, &*disc_,
      /*cancel=*/nullptr, [this](RankedEdge& kept, RankedEdge& excluded) {
        // The two edges trade rank slots along with kept membership: each
        // slot keeps its eff (and the occupants swap scores), so "kept
        // set == top-round(p·E) by score" survives into the next
        // incremental pass. Without this that pass, which rebuilds its kept
        // baseline from the rank order, would silently undo every
        // refinement swap and regress total delta to the unrefined rank cut.
        kept_keys_.erase(kept.key);
        kept_keys_.insert(excluded.key);
        std::swap(score_[kept.key], score_[excluded.key]);
        std::swap(kept.key, excluded.key);
      });
}

DynamicShedResult ShedSession::BuildResult(uint64_t version) const {
  DynamicShedResult result;
  result.version = version;
  // The kept set is exactly the order_ prefix (kept_keys_ mirrors it for
  // O(1) membership); reading it off the vector beats walking the hash set.
  EDGESHED_DCHECK(kept_keys_.size() == order_target_);
  uint64_t all_bits = 0;
  for (uint64_t i = 0; i < order_target_; ++i) all_bits |= order_[i].key;
  result.kept.reserve(order_target_);
  if ((all_bits & 0xFFFF0000ull) == 0 && (all_bits >> 48) == 0) {
    // Both endpoints fit in 16 bits: sort compact (u,v) ranks instead of
    // the full keys — half the radix passes on half the memory traffic,
    // and the lexicographic order is identical.
    std::vector<uint32_t> ranks;
    ranks.reserve(order_target_);
    for (uint64_t i = 0; i < order_target_; ++i) {
      const uint64_t key = order_[i].key;
      ranks.push_back(
          static_cast<uint32_t>(((key >> 32) << 16) | (key & 0xFFFFull)));
    }
    RadixSortWords(&ranks, options_.threads);
    for (const uint32_t rank : ranks) {
      result.kept.push_back(
          graph::Edge{static_cast<graph::NodeId>(rank >> 16),
                      static_cast<graph::NodeId>(rank & 0xFFFFu)});
    }
  } else {
    std::vector<uint64_t> keys;
    keys.reserve(order_target_);
    for (uint64_t i = 0; i < order_target_; ++i) {
      keys.push_back(order_[i].key);
    }
    RadixSortWords(&keys, options_.threads);
    for (const uint64_t key : keys) {
      result.kept.push_back(
          graph::Edge{static_cast<graph::NodeId>(key >> 32),
                      static_cast<graph::NodeId>(key & 0xFFFFFFFFull)});
    }
  }
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
  // whichever edge Phase 2 left in it. The slots are released before the
  // hash tables grow so the cold start peaks no higher than one |E|-sized
  // slot array plus the tables.
  const uint64_t num_edges = run.slots.size();
  order_.clear();
  order_.reserve(num_edges);
  for (uint64_t i = 0; i < num_edges; ++i) {
    order_.push_back(RankedEdge{static_cast<double>(num_edges - i),
                                graph::EdgeKey(run.slots[i].edge)});
  }
  std::vector<core::CrrSlot>().swap(run.slots);
  score_.clear();
  kept_keys_.clear();
  score_.reserve(num_edges);
  for (uint64_t i = 0; i < num_edges; ++i) {
    score_[order_[i].key] = order_[i].eff;
    if (i < run.target) kept_keys_.insert(order_[i].key);
  }
  disc_.emplace(std::move(run.discrepancy));
  order_target_ = run.target;

  have_state_ = true;
  state_version_ = version;
  DynamicShedResult result = BuildResult(version);
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
    const std::vector<graph::NodeId>& dirty) {
  Stopwatch watch;
  const uint64_t version = snap->version();
  Stopwatch stage_watch;

  // Per-batch state maintenance: drop deleted edges from the score table
  // and the kept set, and collect the endpoints whose base degree changed.
  // `deleted` records each retired rank slot as (eff, key) — the merge pass
  // below locates retired slots in the maintained order by those effs.
  uint64_t mutation_count = 0;
  for (const graph::MutationBatch& batch : batches) {
    mutation_count += batch.size();
  }
  std::unordered_set<graph::NodeId> touched;
  touched.reserve(2 * mutation_count);
  std::vector<RankedEdge> deleted;
  deleted.reserve(mutation_count);
  for (const graph::MutationBatch& batch : batches) {
    for (const graph::Edge& e : batch.deletes) {
      touched.insert(e.u);
      touched.insert(e.v);
      const uint64_t key = graph::EdgeKey(e);
      const auto score_it = score_.find(key);
      if (score_it != score_.end()) {
        deleted.push_back(RankedEdge{score_it->second, key});
        score_.erase(score_it);
      }
      if (kept_keys_.erase(key) != 0) disc_->RemoveEdge(e.u, e.v);
    }
    for (const graph::Edge& e : batch.inserts) {
      touched.insert(e.u);
      touched.insert(e.v);
    }
  }
  // O(touched) discrepancy maintenance: only mutated endpoints change
  // their base degree, hence their expected-degree term.
  for (const graph::NodeId u : touched) {
    disc_->UpdateBaseDegree(u, snap->Degree(u));
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
  std::vector<graph::Edge> local_edges;
  std::vector<uint64_t> local_keys;  // aligned with local EdgeIds
  for (const graph::NodeId u : dirty) {
    const graph::NodeId lu = local_of[u];
    snap->ForEachNeighbor(u, [&](graph::NodeId n) {
      if (n <= u) return;
      const graph::NodeId ln = local_of[n];
      if (ln == kNotLocal) return;
      local_edges.push_back(graph::Edge{lu, ln});
      local_keys.push_back(graph::EdgeKey(u, n));
    });
  }
  const uint64_t dirty_edges = local_edges.size();
  const double region_seconds = stage_watch.ElapsedSeconds();
  double local_rank_seconds = 0.0;
  // The re-scored region in rank order (eff desc, key asc). Filled by the
  // splice below: slot values are globally distinct and handed out in
  // strictly descending order, so no sort is needed. fresh[0..found_count)
  // reuse slots that exist in the maintained order; the rest are net-new
  // extension slots below the region's floor.
  std::vector<RankedEdge> fresh;
  size_t found_count = 0;
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
    // Splice: the region's previous global rank positions become a slot
    // pool (extended below its floor for net-new edges), and the fresh
    // local order redistributes the slots. The rest of the ranking is
    // untouched, so one local pass costs O(dirty region), not O(E).
    std::vector<double> slots;
    slots.reserve(local_keys.size());
    for (const uint64_t key : local_keys) {
      const auto it = score_.find(key);
      if (it != score_.end()) slots.push_back(it->second);
    }
    std::sort(slots.begin(), slots.end(), std::greater<double>());
    found_count = slots.size();
    while (slots.size() < local_keys.size()) {
      slots.push_back((slots.empty() ? 0.0 : slots.back()) - 1.0);
    }
    fresh.reserve(ranked_local.size());
    for (size_t i = 0; i < ranked_local.size(); ++i) {
      const uint64_t key = local_keys[ranked_local[i]];
      score_[key] = slots[i];
      fresh.push_back(RankedEdge{slots[i], key});
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
    if (now_kept != was_kept) {
      if (now_kept) {
        kept_keys_.insert(e.key);
        disc_->AddEdge(e.u(), e.v());
      } else {
        kept_keys_.erase(e.key);
        disc_->RemoveEdge(e.u(), e.v());
      }
    }
    EDGESHED_CHECK(out < next.size());
    next[out++] = e;
  };
  if (decay_factor == 1.0) {
    // Without decay the merged order differs from order_ only at event
    // positions: deleted slots vanish, the dirty region's reused slots keep
    // their positions and swap occupants, and extension slots splice in
    // near the bottom. One pass locates every event; a second pass memcpys
    // the untouched runs between events and patches kept membership only
    // where a run's constant shift moves entries across the cut. That
    // drops the per-entry emit work — the dominant cost of re-streaming
    // all |E| slots — for the untouched bulk.
    //
    // Eff values are NOT globally unique — an extension slot mints
    // floor-1, floor-2, ... over the dense initial score range, so a later
    // re-shed can see the same eff on unrelated edges. Matching is
    // therefore key-aware: a retired slot must match (eff, key), scanning
    // its equal-eff window, and a donor slot is confirmed by region-key
    // membership before it consumes the aligned fresh entry. Donor entries
    // appear in order_ in descending-eff order and their eff multiset is
    // exactly slots[0..found_count), so the fd pointer stays aligned.
    struct MergeEvent {
      size_t pos;
      enum Kind : uint8_t { kRemove, kReplace, kInsert } kind;
      uint32_t fresh_index;
    };
    std::sort(deleted.begin(), deleted.end(), ranks_before);
    std::unordered_set<uint64_t> region_keys(local_keys.begin(),
                                             local_keys.end());
    std::vector<MergeEvent> events;
    events.reserve(deleted.size() + fresh.size());
    size_t di = 0;
    size_t fd = 0;            // donor fresh pointer, fresh[0..found_count)
    size_t fe = found_count;  // extension fresh pointer
    for (size_t p = 0; p < order_.size(); ++p) {
      if (di == deleted.size() && fd == found_count && fe == fresh.size()) {
        break;  // no events left; the rest of the order is one final run
      }
      const RankedEdge& entry = order_[p];
      if (di < deleted.size() && deleted[di].eff == entry.eff) {
        size_t dj = di;
        while (dj < deleted.size() && deleted[dj].eff == entry.eff &&
               deleted[dj].key != entry.key) {
          ++dj;
        }
        if (dj < deleted.size() && deleted[dj].eff == entry.eff) {
          std::swap(deleted[di], deleted[dj]);
          events.push_back({p, MergeEvent::kRemove, 0});
          ++di;
          continue;
        }
      }
      if (fd < found_count && fresh[fd].eff == entry.eff &&
          region_keys.count(entry.key) != 0) {
        events.push_back({p, MergeEvent::kReplace, static_cast<uint32_t>(fd)});
        ++fd;
        continue;
      }
      // Extension inserts compare against survivors only, after the stale
      // checks: every extension eff is strictly below every donor eff, so
      // nothing here can outrank a replacement at this position.
      while (fe < fresh.size() && ranks_before(fresh[fe], entry)) {
        events.push_back({p, MergeEvent::kInsert, static_cast<uint32_t>(fe)});
        ++fe;
      }
    }
    EDGESHED_DCHECK(di == deleted.size());
    EDGESHED_DCHECK(fd == found_count);
    for (; fe < fresh.size(); ++fe) {
      events.push_back(
          {order_.size(), MergeEvent::kInsert, static_cast<uint32_t>(fe)});
    }
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
          const RankedEdge& e = order_[p];
          if (new_cut > old_cut) {
            kept_keys_.insert(e.key);
            disc_->AddEdge(e.u(), e.v());
          } else {
            kept_keys_.erase(e.key);
            disc_->RemoveEdge(e.u(), e.v());
          }
        }
      }
      std::memcpy(next.data() + out, order_.data() + src,
                  (end_pos - src) * sizeof(RankedEdge));
      out += end_pos - src;
      src = end_pos;
    };
    for (const MergeEvent& ev : events) {
      copy_run(ev.pos);
      switch (ev.kind) {
        case MergeEvent::kRemove:
          ++src;
          break;
        case MergeEvent::kReplace:
          place(fresh[ev.fresh_index],
                kept_keys_.count(fresh[ev.fresh_index].key) != 0);
          ++src;
          break;
        case MergeEvent::kInsert:
          place(fresh[ev.fresh_index],
                kept_keys_.count(fresh[ev.fresh_index].key) != 0);
          break;
      }
    }
    copy_run(order_.size());
  } else {
    // Decay rescales every untouched eff, so the whole order has to be
    // re-streamed against the fresh region. `stale` marks every key whose
    // old rank slot is invalid; a stale key has both endpoints dirty, so a
    // bit mask over the dirty vertices — |V|/8 bytes, small enough to sit
    // in L1 — screens out the per-entry hash probe for the untouched bulk.
    std::unordered_set<uint64_t> stale;
    stale.reserve(deleted.size() + local_keys.size());
    for (const RankedEdge& d : deleted) stale.insert(d.key);
    for (const uint64_t key : local_keys) stale.insert(key);
    std::vector<uint64_t> dirty_bits((snap->NumNodes() + 63) / 64, 0);
    for (const graph::NodeId u : dirty) {
      dirty_bits[u >> 6] |= uint64_t{1} << (u & 63);
    }
    const auto is_dirty = [&](graph::NodeId u) {
      return ((dirty_bits[u >> 6] >> (u & 63)) & 1) != 0;
    };
    size_t fi = 0;
    for (size_t oi = 0; oi < order_.size(); ++oi) {
      RankedEdge entry = order_[oi];
      if (is_dirty(entry.u()) && is_dirty(entry.v()) &&
          stale.count(entry.key) != 0) {
        continue;
      }
      entry.eff *= decay_factor;
      while (fi < fresh.size() && ranks_before(fresh[fi], entry)) {
        place(fresh[fi], kept_keys_.count(fresh[fi].key) != 0);
        ++fi;
      }
      place(entry, oi < order_target_);
    }
    for (; fi < fresh.size(); ++fi) {
      place(fresh[fi], kept_keys_.count(fresh[fi].key) != 0);
    }
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
  DynamicShedResult result = BuildResult(version);
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
    DynamicShedResult result = BuildResult(snap->version());
    result.snapshot = snap;
    result.stats = {{"noop", 1.0}};
    return result;
  }

  std::unordered_set<graph::NodeId> dirty_set;
  size_t mutation_total = 0;
  for (const graph::MutationBatch& batch : *batches) {
    mutation_total += batch.size();
  }
  dirty_set.reserve(2 * mutation_total);
  for (const graph::MutationBatch& batch : *batches) {
    for (const auto* side : {&batch.inserts, &batch.deletes}) {
      for (const graph::Edge& e : *side) {
        dirty_set.insert(e.u);
        dirty_set.insert(e.v);
      }
    }
  }
  if (options_.dirty_hops > 0) {
    std::vector<graph::NodeId> frontier(dirty_set.begin(), dirty_set.end());
    for (uint32_t hop = 0; hop < options_.dirty_hops && !frontier.empty();
         ++hop) {
      std::vector<graph::NodeId> next;
      for (const graph::NodeId u : frontier) {
        snap->ForEachNeighbor(u, [&](graph::NodeId n) {
          if (dirty_set.insert(n).second) next.push_back(n);
        });
      }
      frontier = std::move(next);
    }
  }
  const uint64_t num_nodes = snap->NumNodes();
  const double dirty_fraction =
      static_cast<double>(dirty_set.size()) /
      static_cast<double>(num_nodes == 0 ? 1 : num_nodes);
  if (dirty_fraction > options_.full_rank_dirty_bound) {
    return FullShed(snap, cancel);
  }

  // The incremental pass changes session state from its first stage on and
  // is O(batch)-bounded, so it is polled here only.
  if (CancellationRequested(cancel)) return cancel->ToStatus();
  std::vector<graph::NodeId> dirty(dirty_set.begin(), dirty_set.end());
  std::sort(dirty.begin(), dirty.end());
  return IncrementalShed(snap, *batches, dirty);
}

}  // namespace edgeshed::dyn
