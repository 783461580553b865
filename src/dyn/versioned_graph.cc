#include "dyn/versioned_graph.h"

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"

namespace edgeshed::dyn {
namespace {

std::string PairName(graph::NodeId u, graph::NodeId v) {
  return "{" + std::to_string(u) + ", " + std::to_string(v) + "}";
}

/// First position in [first, last) whose element is not less than `key`,
/// probing forward from `first` in doubling steps: O(log distance), so a
/// sorted run of keys sweeps a sorted array with one forward cursor.
template <typename It, typename T>
It GallopLowerBound(It first, It last, const T& key) {
  for (ptrdiff_t step = 1; last - first > step; step *= 2) {
    const It probe = first + step;
    if (!(*probe < key)) return std::lower_bound(first, probe, key);
    first = probe + 1;
  }
  return std::lower_bound(first, last, key);
}

/// `prev` with `remove` (sorted, a subset of `prev`) taken out and `add`
/// (sorted, disjoint from `prev`) merged in, in one linear pass.
template <typename T>
std::vector<T> MergeRuns(const std::vector<T>& prev, const std::vector<T>& add,
                         const std::vector<T>& remove) {
  std::vector<T> out;
  out.reserve(prev.size() + add.size() - remove.size());
  size_t ai = 0;
  size_t ri = 0;
  for (const T& x : prev) {
    while (ai < add.size() && add[ai] < x) out.push_back(add[ai++]);
    if (ri < remove.size() && remove[ri] == x) {
      ++ri;
      continue;
    }
    out.push_back(x);
  }
  EDGESHED_CHECK_EQ(ri, remove.size());
  out.insert(out.end(), add.begin() + static_cast<ptrdiff_t>(ai), add.end());
  return out;
}

/// Both directions of every edge of `edges` (canonical sorted), sorted by
/// (u, v). The forward pairs are `edges` itself; only the reversed ones
/// need a sort before the merge.
std::vector<graph::Edge> DirectedPairs(const std::vector<graph::Edge>& edges) {
  std::vector<graph::Edge> reversed;
  reversed.reserve(edges.size());
  for (const graph::Edge& e : edges) reversed.push_back({e.v, e.u});
  std::sort(reversed.begin(), reversed.end());
  std::vector<graph::Edge> pairs(2 * edges.size());
  std::merge(edges.begin(), edges.end(), reversed.begin(), reversed.end(),
             pairs.begin());
  return pairs;
}

}  // namespace

VersionedGraph::VersionedGraph(graph::Graph base, Options options)
    : VersionedGraph(
          std::make_shared<const graph::Graph>(std::move(base)), options) {}

VersionedGraph::VersionedGraph(std::shared_ptr<const graph::Graph> base,
                               Options options)
    : options_(options) {
  EDGESHED_CHECK(base != nullptr);
  std::shared_ptr<DeltaGraph> head(new DeltaGraph());
  head->base_ = std::move(base);
  head->version_ = 0;
  head_ = std::move(head);
}

VersionedGraph::~VersionedGraph() { WaitForCompaction(); }

StatusOr<std::shared_ptr<const DeltaGraph>> VersionedGraph::ApplyToDelta(
    const DeltaGraph& prev, const graph::MutationBatch& batch) {
  const graph::Graph& base = *prev.base_;
  const uint64_t num_nodes = base.NumNodes();
  auto in_range = [&](const graph::Edge& e) {
    return e.u < num_nodes && e.v < num_nodes;
  };

  // Classify the whole batch against `prev` before building anything. Both
  // sides are swept in sorted order, so each overlay array is searched with
  // a forward cursor; base edges are canonical sorted, so the EdgeIds of a
  // sorted edge run ascend too. Every output list comes out sorted.
  std::vector<graph::Edge> deletes = batch.deletes;
  std::vector<graph::Edge> inserts = batch.inserts;
  std::sort(deletes.begin(), deletes.end());
  std::sort(inserts.begin(), inserts.end());
  std::vector<graph::Edge> ins_add;
  std::vector<graph::Edge> ins_remove;
  std::vector<graph::EdgeId> del_add;
  std::vector<graph::EdgeId> del_remove;
  std::vector<graph::Edge> bad_deletes;
  std::vector<graph::Edge> bad_inserts;
  bool rejected = false;
  auto ins_it = prev.inserted_.begin();
  auto del_it = prev.deleted_ids_.begin();
  auto is_inserted = [&](const graph::Edge& e) {
    ins_it = GallopLowerBound(ins_it, prev.inserted_.end(), e);
    return ins_it != prev.inserted_.end() && *ins_it == e;
  };
  auto is_deleted = [&](graph::EdgeId id) {
    del_it = GallopLowerBound(del_it, prev.deleted_ids_.end(), id);
    return del_it != prev.deleted_ids_.end() && *del_it == id;
  };
  for (const graph::Edge& e : deletes) {
    if (!in_range(e)) {
      rejected = true;
    } else if (is_inserted(e)) {
      // Deleting an overlay insert: the edge vanishes from the overlay.
      ins_remove.push_back(e);
    } else if (const graph::EdgeId id = base.FindEdge(e.u, e.v);
               id != graph::kInvalidEdge && !is_deleted(id)) {
      del_add.push_back(id);
    } else {
      bad_deletes.push_back(e);
    }
  }
  ins_it = prev.inserted_.begin();
  del_it = prev.deleted_ids_.begin();
  for (const graph::Edge& e : inserts) {
    if (!in_range(e)) {
      rejected = true;
    } else if (is_inserted(e)) {
      bad_inserts.push_back(e);
    } else if (const graph::EdgeId id = base.FindEdge(e.u, e.v);
               id == graph::kInvalidEdge) {
      ins_add.push_back(e);
    } else if (is_deleted(id)) {
      // Re-inserting a deleted base edge un-deletes it, so inserted_ never
      // collides with the base edge list (the merge invariants rely on it).
      del_remove.push_back(id);
    } else {
      bad_inserts.push_back(e);
    }
  }
  if (rejected || !bad_deletes.empty() || !bad_inserts.empty()) {
    // Name the pair an edge-by-edge application would meet first: deletes,
    // then inserts, each in batch order. No pair is both inserted and
    // deleted in one batch (ValidateAndCanonicalizeBatch), so each entry's
    // verdict depends on `prev` alone.
    for (const graph::Edge& e : batch.deletes) {
      if (!in_range(e)) {
        return Status::InvalidArgument(
            "mutation endpoint out of range in delete " + PairName(e.u, e.v) +
            ": graph has " + std::to_string(num_nodes) + " nodes");
      }
      if (std::binary_search(bad_deletes.begin(), bad_deletes.end(), e)) {
        return Status::InvalidArgument("delete of non-live edge " +
                                       PairName(e.u, e.v));
      }
    }
    for (const graph::Edge& e : batch.inserts) {
      if (!in_range(e)) {
        return Status::InvalidArgument(
            "mutation endpoint out of range in insert " + PairName(e.u, e.v) +
            ": graph has " + std::to_string(num_nodes) +
            " nodes (the node set is fixed at construction)");
      }
      if (std::binary_search(bad_inserts.begin(), bad_inserts.end(), e)) {
        return Status::InvalidArgument("insert of already-live edge " +
                                       PairName(e.u, e.v));
      }
    }
  }

  // Build the next version: one merge per overlay array, previous array
  // plus the sorted batch. The arrays are independent, so they are merged
  // on the worker pool.
  const std::span<const graph::Edge> base_edges = base.edges();
  auto edges_of = [&](const std::vector<graph::EdgeId>& ids) {
    std::vector<graph::Edge> edges;
    edges.reserve(ids.size());
    for (const graph::EdgeId id : ids) edges.push_back(base_edges[id]);
    return edges;
  };
  std::shared_ptr<DeltaGraph> next(new DeltaGraph());
  next->base_ = prev.base_;
  next->version_ = prev.version_ + 1;
  ParallelForEach(
      0, 4,
      [&](uint64_t array) {
        switch (array) {
          case 0:
            next->ins_adj_ = MergeRuns(prev.ins_adj_, DirectedPairs(ins_add),
                                       DirectedPairs(ins_remove));
            next->ins_index_ =
                DeltaGraph::SourceIndex(next->ins_adj_, num_nodes);
            break;
          case 1:
            next->del_adj_ =
                MergeRuns(prev.del_adj_, DirectedPairs(edges_of(del_add)),
                          DirectedPairs(edges_of(del_remove)));
            next->del_index_ =
                DeltaGraph::SourceIndex(next->del_adj_, num_nodes);
            break;
          case 2:
            next->inserted_ = MergeRuns(prev.inserted_, ins_add, ins_remove);
            break;
          default:
            next->deleted_ids_ =
                MergeRuns(prev.deleted_ids_, del_add, del_remove);
        }
      },
      /*threads=*/0, /*grain=*/1);
  return std::shared_ptr<const DeltaGraph>(std::move(next));
}

StatusOr<uint64_t> VersionedGraph::ApplyBatch(graph::MutationBatch batch) {
  EDGESHED_RETURN_IF_ERROR(graph::ValidateAndCanonicalizeBatch(&batch));
  std::unique_lock<std::mutex> lock(mu_);
  StatusOr<std::shared_ptr<const DeltaGraph>> next =
      ApplyToDelta(*head_, batch);
  if (!next.ok()) return next.status();
  head_ = std::move(next).value();
  log_.push_back(LoggedBatch{head_->version(), std::move(batch)});
  while (log_.size() > options_.history_limit &&
         log_.front().version <= base_version_) {
    trimmed_through_ = log_.front().version;
    log_.pop_front();
  }
  const uint64_t version = head_->version();
  MaybeStartCompactionLocked();
  return version;
}

std::shared_ptr<const DeltaGraph> VersionedGraph::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return head_;
}

uint64_t VersionedGraph::CurrentVersion() const {
  std::lock_guard<std::mutex> lock(mu_);
  return head_->version();
}

std::optional<std::vector<graph::MutationBatch>> VersionedGraph::BatchesSince(
    uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (version > head_->version()) return std::nullopt;
  if (version < trimmed_through_) return std::nullopt;
  std::vector<graph::MutationBatch> batches;
  for (const LoggedBatch& entry : log_) {
    if (entry.version > version) batches.push_back(entry.batch);
  }
  return batches;
}

void VersionedGraph::InstallCompactedLocked(
    std::shared_ptr<const graph::Graph> base, uint64_t base_version) {
  if (base_version <= base_version_ && base_version != 0) return;  // stale
  base_version_ = base_version;
  std::shared_ptr<DeltaGraph> fresh(new DeltaGraph());
  fresh->base_ = std::move(base);
  fresh->version_ = base_version;
  std::shared_ptr<const DeltaGraph> head(std::move(fresh));
  for (const LoggedBatch& entry : log_) {
    if (entry.version <= base_version) continue;
    StatusOr<std::shared_ptr<const DeltaGraph>> next =
        ApplyToDelta(*head, entry.batch);
    // The batch was validated when first applied, and replaying it onto a
    // base that materializes the same live edge set cannot newly fail.
    EDGESHED_CHECK(next.ok())
        << "compaction replay failed: " << next.status().ToString();
    head = std::move(next).value();
  }
  head_ = std::move(head);
  while (log_.size() > options_.history_limit &&
         log_.front().version <= base_version_) {
    trimmed_through_ = log_.front().version;
    log_.pop_front();
  }
}

void VersionedGraph::MaybeStartCompactionLocked() {
  if (!options_.auto_compact || compacting_) return;
  if (head_->OverlaySize() == 0 ||
      head_->DeltaRatio() <= options_.compact_ratio) {
    return;
  }
  if (compactor_joinable_) {
    // A previous compaction finished (compacting_ is false); its thread no
    // longer touches any shared state, so joining under mu_ cannot block on
    // anything that needs mu_.
    compactor_.join();
    compactor_joinable_ = false;
  }
  compacting_ = true;
  std::shared_ptr<const DeltaGraph> snap = head_;
  compactor_ = std::thread([this, snap] {
    StatusOr<graph::Graph> materialized = snap->Materialize();
    std::lock_guard<std::mutex> lock(mu_);
    if (materialized.ok()) {
      InstallCompactedLocked(std::make_shared<const graph::Graph>(
                                 std::move(materialized).value()),
                             snap->version());
    }
    compacting_ = false;
    compact_cv_.notify_all();
  });
  compactor_joinable_ = true;
}

Status VersionedGraph::Compact() {
  WaitForCompaction();
  std::shared_ptr<const DeltaGraph> snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (head_->OverlaySize() == 0) return Status::OK();
    snap = head_;
  }
  StatusOr<graph::Graph> materialized = snap->Materialize();
  if (!materialized.ok()) return materialized.status();
  std::lock_guard<std::mutex> lock(mu_);
  InstallCompactedLocked(std::make_shared<const graph::Graph>(
                             std::move(materialized).value()),
                         snap->version());
  return Status::OK();
}

void VersionedGraph::WaitForCompaction() {
  std::unique_lock<std::mutex> lock(mu_);
  compact_cv_.wait(lock, [this] { return !compacting_; });
  if (compactor_joinable_) {
    compactor_.join();
    compactor_joinable_ = false;
  }
}

bool VersionedGraph::CompactionInProgress() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compacting_;
}

}  // namespace edgeshed::dyn
