#include "dyn/incremental_shed.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <unordered_set>

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
      /*cancel=*/nullptr, [](RankedEdge& kept, RankedEdge& excluded) {
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
  DynamicShedResult result;
  result.version = snap.version();
  // The kept set is exactly the order_ prefix.
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
  auto ids = snap.EdgeIdsOf(result.kept, options_.threads);
  if (!ids.ok()) {
    have_state_ = false;
    return ids.status();
  }
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
  std::vector<graph::Edge> local_edges;
  std::vector<uint64_t> local_keys;  // aligned with local EdgeIds, ascending
  // local_keys[local_begin[i], local_begin[i + 1]) are dirty[i]'s edges to
  // higher dirty neighbors.
  std::vector<size_t> local_begin;
  local_begin.reserve(dirty.size() + 1);
  for (const graph::NodeId u : dirty) {
    local_begin.push_back(local_keys.size());
    const graph::NodeId lu = local_of[u];
    snap->ForEachNeighbor(u, [&](graph::NodeId n) {
      if (n <= u) return;
      const graph::NodeId ln = local_of[n];
      if (ln == kNotLocal) return;
      local_edges.push_back(graph::Edge{lu, ln});
      local_keys.push_back(graph::EdgeKey(u, n));
    });
  }
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

  // Classification: one pass over order_. An entry with an endpoint outside
  // the dirty set is untouched. An entry with both endpoints dirty was
  // either deleted since state_version_ (it becomes a remove event) or is a
  // live edge of the region (its slot joins the donor pool, which it
  // reaches in rank order). Kept membership is the position against the
  // old cut, recorded per retiring key and per local EdgeId.
  const auto is_dirty = [&](graph::NodeId u) {
    return ((dirty_bits[u >> 6] >> (u & 63)) & 1) != 0;
  };
  struct MergeEvent {
    size_t pos;
    enum Kind : uint8_t { kRemove, kReplace } kind;
    uint32_t fresh_index;
  };
  std::vector<MergeEvent> events;
  std::vector<double> slots;  // donor scores, the region's slot pool
  std::vector<uint8_t> region_kept(local_keys.size(), 0);
  std::vector<uint64_t> kept_removed;  // kept slots that retire, by key
  for (size_t p = 0; p < order_.size(); ++p) {
    const RankedEdge& entry = order_[p];
    if (!(is_dirty(entry.u()) & is_dirty(entry.v()))) continue;
    const bool kept = p < order_target_;
    const size_t l = region_id(entry.key);
    if (l == kNotRegion || reinserted[l] != 0) {
      if (kept) kept_removed.push_back(entry.key);
      events.push_back({p, MergeEvent::kRemove, 0});
      continue;
    }
    region_kept[l] = kept;
    events.push_back({p, MergeEvent::kReplace,
                      static_cast<uint32_t>(slots.size())});
    slots.push_back(base_score_.empty() ? entry.eff : base_score_[p]);
  }
  const size_t found_count = slots.size();

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
      if (pending != 0) disc_->RemoveEdge(e.u, e.v);
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
    if (now_kept != was_kept) {
      if (now_kept) {
        disc_->AddEdge(e.u(), e.v());
      } else {
        disc_->RemoveEdge(e.u(), e.v());
      }
    }
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
          const RankedEdge& e = order_[p];
          if (new_cut > old_cut) {
            disc_->AddEdge(e.u(), e.v());
          } else {
            disc_->RemoveEdge(e.u(), e.v());
          }
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
