#ifndef EDGESHED_SERVICE_JOB_SCHEDULER_H_
#define EDGESHED_SERVICE_JOB_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/statusor.h"
#include "core/shedding.h"
#include "dyn/incremental_shed.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "service/graph_store.h"
#include "service/rank_cache.h"

namespace edgeshed::service {

/// Lifecycle of a shedding job. Terminal states are kDone, kFailed,
/// kCancelled.
enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
};

std::string_view JobStateToString(JobState state);

/// How (if at all) load-adaptive degradation changed what a job answered
/// with. Numeric values match net::DegradeKind (the wire mirror); the
/// service layer stays free of net dependencies.
enum class DegradeKind : uint8_t {
  kNone = 0,
  kCheaperTier = 1,     // method stepped down core::ShedderCostLadder
  kCachedCoarserP = 2,  // served a cached result at p' <= requested p
};

/// Per-tenant scheduling parameters (fair-share weight + inflight quota).
struct TenantConfig {
  /// Relative fair-share weight (deficit-round-robin quantum). Minimum 1;
  /// a tenant with weight 4 gets ~4x the dispatch slots of a weight-1
  /// tenant while both have queued work.
  uint32_t weight = 1;
  /// Max jobs from this tenant executing concurrently; 0 = unlimited. A
  /// tenant at its quota is skipped by the dispatcher (other tenants run)
  /// until one of its jobs finishes.
  size_t max_running = 0;
};

/// Load-adaptive degradation policy (DESIGN.md §13). When enabled and a
/// submission opts in (`JobSpec::allow_degrade`), pressure — the max of the
/// caller's hint and queue_depth/queue_capacity — picks how many tiers to
/// step the method down core::ShedderCostLadder instead of queueing the
/// expensive variant; a cached result at a coarser `p` for the *requested*
/// method is preferred over re-tiering. The applied tier is always recorded
/// on the job (never silent).
struct DegradePolicy {
  bool enabled = false;
  /// Pressure thresholds for stepping 1 / 2 / 3 tiers down the cost ladder.
  double tier1_pressure = 0.75;
  double tier2_pressure = 1.0;
  double tier3_pressure = 1.5;
  /// Past tier1_pressure, serve a cached result for the same
  /// dataset/method/seed at p' <= requested p (within max_p_gap) instead of
  /// computing anything.
  bool serve_cached_coarser_p = true;
  double max_p_gap = 0.25;
};

/// Configuration for JobScheduler.
struct JobSchedulerOptions {
  /// Worker threads; 0 uses DefaultThreadCount().
  int workers = 0;
  /// Max jobs queued (excluding running/coalesced/cached submissions).
  size_t queue_capacity = 256;
  /// Pre-configured tenants; tenants not listed here are created on first
  /// use with `default_tenant`. The unnamed tenant ("") always exists, so a
  /// deployment with no tenant names behaves exactly like the old single
  /// FIFO (one queue, weight 1, no quota).
  std::map<std::string, TenantConfig> tenants;
  TenantConfig default_tenant;
  DegradePolicy degrade;
  bool enable_result_cache = true;
  /// Retention bounds for terminal job records. A terminal job is garbage-
  /// collected once more than `max_retained_jobs` terminal records exist
  /// (oldest-finished first) or its age since finishing exceeds
  /// `job_retention` (0 = no age limit). GetStatus/Wait on a collected id
  /// return NotFound. Jobs someone is Wait()ing on are never collected.
  size_t max_retained_jobs = 1024;
  std::chrono::milliseconds job_retention{600000};  // 10 minutes
  /// Byte budget for the result cache (approximate accounting); least-
  /// recently-used entries are evicted once the budget is exceeded.
  uint64_t result_cache_byte_budget = 64ull << 20;  // 64 MiB
  /// Share Phase-1 betweenness rankings across jobs on the same dataset
  /// (RankCache, DESIGN.md §12). Job results are unchanged either way; this
  /// only removes redundant ranking passes.
  bool enable_rank_cache = true;
  /// Byte budget for the rank cache (|E| edge ids per cached ranking).
  uint64_t rank_cache_byte_budget = 128ull << 20;  // 128 MiB
};

/// One shedding request: reduce `dataset` with `method` at ratio `p`.
struct JobSpec {
  /// GraphStore dataset name the job runs against.
  std::string dataset;
  /// Shedder name accepted by core::MakeShedderByName.
  std::string method = "crr";
  double p = 0.5;
  uint64_t seed = 42;
  /// Wall-clock budget measured from submission; zero means none. A job
  /// still queued when its deadline passes is cancelled (DeadlineExceeded)
  /// instead of run; a *running* job carries a CancellationToken armed with
  /// the deadline, so the kernel itself stops at its next cooperative poll
  /// and the job finishes kCancelled with DeadlineExceeded.
  std::chrono::milliseconds deadline{0};
  /// When non-empty, the kept subgraph G' = (V, E') is written to this path
  /// as a v3 binary snapshot after a successful shed (a write failure fails
  /// the job with the writer's status). Part of the dedup key: two specs
  /// differing only in output_path are distinct jobs, so a cached result
  /// never skips a snapshot the caller asked for.
  std::string output_path;
  /// Fair-share tenant this job is accounted to ("" = the default tenant).
  /// Part of the dedup key: identical work from *different* tenants is
  /// never coalesced or served from another tenant's cached results — QoS
  /// isolation beats cross-tenant dedup (a queued job must not jump the
  /// fair queue by riding another tenant's submission).
  std::string tenant;
  /// Dispatch from the priority lane: ahead of every tenant's normal-lane
  /// work (fairness between tenants still applies within the lane).
  /// Deliberately NOT part of the dedup key — a priority duplicate instead
  /// boosts the already-queued primary into the priority lane.
  bool priority = false;
  /// Opt this submission into the degradation ladder (DegradePolicy).
  bool allow_degrade = false;
  /// Admission-layer load hint in [0, inf): e.g. the RPC server's
  /// inflight / max_inflight ratio. Combined (max) with the scheduler's own
  /// queue fraction to compute degradation pressure.
  double pressure = 0.0;
};

using JobId = uint64_t;
/// Shared so cached results can be handed to many callers without copies.
using JobResult = std::shared_ptr<const core::SheddingResult>;

/// Point-in-time view of one job, returned by JobScheduler::GetStatus.
struct JobStatus {
  JobId id = 0;
  JobState state = JobState::kQueued;
  /// Failure/cancellation reason; OK while non-terminal or done.
  Status status;
  /// True when the result came from the result cache or was coalesced onto
  /// an identical in-flight job rather than executed by this job.
  bool deduplicated = false;
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
  std::string tenant;
  /// What the caller asked for vs. what the scheduler answered with. Equal
  /// (and degrade_kind == 0) unless load-adaptive degradation applied; the
  /// requested spec is never silently rewritten — the delta is recorded
  /// here and travels back over the wire (net::DegradeKind).
  std::string requested_method;
  std::string applied_method;
  double requested_p = 0.0;
  double applied_p = 0.0;
  uint8_t degrade_kind = 0;
};

/// Fixed-pool asynchronous executor for shedding jobs.
///
/// Architecture (DESIGN.md "Service layer" + §13):
///  * `Options::workers` threads (default common/parallel.h's
///    DefaultThreadCount) pull JobIds from per-tenant weighted fair queues
///    (deficit round robin across tenants; a priority lane drained before
///    any normal-lane work; per-tenant running quotas). With no tenant
///    names in play everything lands in the default tenant's normal lane —
///    exactly the old single bounded FIFO. Submit fails with
///    ResourceExhausted when the global queue is full rather than blocking
///    the caller.
///  * Results are cached under the key `(dataset, method, p, seed)` — every
///    shedder is deterministic given its seed, so identical requests must
///    produce identical results. A Submit that matches a cached result
///    completes immediately (`scheduler.result_cache_hit`); one that matches
///    a *queued or running* job is coalesced onto it (`scheduler.coalesced`)
///    and shares its outcome, whatever that turns out to be.
///  * Cancellation is cooperative: Cancel on a queued job takes effect
///    immediately; Cancel on a running job trips the job's
///    CancellationToken, which the shedding kernels poll at coarse grain —
///    the reduction aborts within a poll interval instead of running to
///    completion. Terminal jobs cannot be cancelled. Cancelling a primary
///    never drags its coalesced followers down: the first live follower is
///    promoted to primary and re-queued, and the rest ride along with it.
///  * Shutdown (also run by the destructor) stops intake, cancels all
///    still-queued jobs, lets running jobs finish, and joins the pool.
///
/// All public methods are thread-safe. Terminal job records are retained
/// only within Options::max_retained_jobs / job_retention, and the result
/// cache is an LRU bounded by Options::result_cache_byte_budget —
/// GetStatus/Wait on a garbage-collected id return NotFound.
///
/// Tracing (when a tracer is supplied): every submission gets a trace id;
/// one job yields one coherent trace — a root `job` span covering
/// submit→finish, a `queued` child covering submit→dispatch, a `run` child
/// on the worker thread (under which GraphStore records `store.load`), and
/// synthesized `phase<N>` children derived from the shedder's
/// `phase<N>_seconds` stats. Export via Tracer::TraceEventJson. With a null
/// tracer every hook is a no-op.
class JobScheduler {
 public:
  using Options = JobSchedulerOptions;

  /// `store` must outlive the scheduler; `metrics` and `tracer` may be null.
  JobScheduler(GraphStore* store, obs::MetricsRegistry* metrics,
               JobSchedulerOptions options = {},
               obs::Tracer* tracer = nullptr);
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Validates the spec, then enqueues (or dedupes) it. Errors:
  /// InvalidArgument (bad p / unknown method), ResourceExhausted (queue
  /// full), FailedPrecondition (after Shutdown).
  StatusOr<JobId> Submit(const JobSpec& spec);

  /// Blocks until `id` reaches a terminal state. Returns the result for
  /// kDone, the failure status for kFailed/kCancelled, NotFound for unknown
  /// (or already garbage-collected) ids. A job being waited on is pinned
  /// against retention GC until the wait returns.
  StatusOr<JobResult> Wait(JobId id);

  /// Requests cancellation. OK if the request was recorded; a running job's
  /// token is tripped so the kernel stops at its next cooperative poll.
  /// FailedPrecondition when the job is already terminal; NotFound for
  /// unknown ids.
  Status Cancel(JobId id);

  StatusOr<JobStatus> GetStatus(JobId id) const;

  /// Jobs queued and not yet picked up (excludes running).
  size_t QueueDepth() const;

  /// Job records currently tracked (live + retained terminal).
  size_t TrackedJobs() const;

  int workers() const { return static_cast<int>(workers_.size()); }

  /// The cross-job ranking cache; null when Options disabled it.
  /// Introspection / test hook — jobs use it automatically.
  RankCache* rank_cache() { return rank_cache_.get(); }

  /// Stops intake, cancels queued jobs, drains running ones, joins workers.
  /// Idempotent.
  void Shutdown();

 private:
  /// Lanes within each tenant's queue; priority drains first.
  static constexpr int kPriorityLane = 0;
  static constexpr int kNormalLane = 1;
  static constexpr int kNumLanes = 2;

  struct Job {
    JobId id = 0;
    /// The spec as executed: `method` is the *applied* method (rewritten
    /// when tier-degraded; `requested_method` keeps the original), `p` is
    /// always the requested ratio.
    JobSpec spec;
    std::string requested_method;
    /// Preservation ratio actually answered (== spec.p unless a cached
    /// coarser-p result was served).
    double applied_p = 0.0;
    uint8_t degrade_kind = 0;  // net::DegradeKind numeric value
    /// Which lane this job queues in; a priority follower boosts a queued
    /// normal-lane primary by re-pushing it here with lane flipped (the
    /// stale normal-lane entry is pruned by the lane check on pop).
    int lane = kNormalLane;
    std::string cache_key;
    /// cache_key minus p — this job's bucket in cache_families_.
    std::string family_key;
    JobState state = JobState::kQueued;
    Status status;
    JobResult result;
    bool deduplicated = false;
    bool cancel_requested = false;
    /// Non-zero when this job was coalesced onto an identical in-flight job
    /// and never entered the queue itself.
    JobId primary = 0;
    /// Jobs coalesced onto this one; resolved when this job finishes.
    std::vector<JobId> followers;
    /// Armed at dispatch from `deadline`; tripped by Cancel while running.
    /// Shared with the executing worker so Cancel never races destruction.
    std::shared_ptr<CancellationToken> token;
    std::chrono::steady_clock::time_point submit_time;
    std::chrono::steady_clock::time_point deadline;  // max() = none
    std::chrono::steady_clock::time_point finish_time;
    /// Wait() calls currently blocked on this job; pins it against GC.
    int waiters = 0;
    double queue_seconds = 0.0;
    double run_seconds = 0.0;
    /// Tracing bookkeeping; all zero when no tracer is attached. The root
    /// `job` span is synthesized when the job reaches a terminal state.
    uint64_t trace_id = 0;
    uint64_t root_span_id = 0;
    int64_t submit_ns = 0;
    uint64_t run_span_id = 0;
    int64_t run_start_ns = 0;
  };

  /// Result-cache entry with approximate byte accounting for LRU eviction.
  struct CacheEntry {
    JobResult result;
    uint64_t bytes = 0;
    std::list<std::string>::iterator lru_pos;
    /// Membership in cache_families_ (for coarser-p lookup), kept so
    /// eviction can unindex without re-deriving the family from the key.
    std::string family;
    double p = 0.0;
  };

  /// One tenant's scheduling state: two FIFO lanes, a DRR credit balance,
  /// live queue/running counts, and lazily resolved per-tenant instruments.
  struct TenantQueue {
    uint32_t weight = 1;
    size_t max_running = 0;  // 0 = unlimited
    std::deque<JobId> lanes[kNumLanes];
    /// Deficit-round-robin balance, in dispatch slots. Replenished by
    /// `weight` when no eligible tenant can afford a slot; reset when the
    /// tenant's queue drains so idle tenants cannot hoard bursts.
    double credit = 0.0;
    size_t queued = 0;   // live queued jobs across both lanes
    size_t running = 0;  // jobs currently executing
    obs::Counter* submitted = nullptr;
    obs::Counter* done = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Gauge* queued_gauge = nullptr;
    obs::Gauge* running_gauge = nullptr;
  };

  static std::string CacheKey(const JobSpec& spec, uint64_t generation);
  /// CacheKey minus `p` — the index bucket for coarser-p degradation.
  static std::string FamilyKey(const JobSpec& spec, uint64_t generation);
  static bool IsTerminal(JobState state) { return state >= JobState::kDone; }
  static uint64_t ApproxResultBytes(const core::SheddingResult& result);

  /// Find-or-create the tenant's queue (config from Options::tenants or
  /// default_tenant; instruments resolved on creation). Caller holds mu_.
  TenantQueue& TenantLocked(const std::string& name);
  /// Drops stale front entries (terminal / already-dispatched / re-laned
  /// jobs) so emptiness checks see live work only. Caller holds mu_.
  void PruneLaneFrontLocked(TenantQueue& tq, int lane);
  static bool UnderQuota(const TenantQueue& tq) {
    return tq.max_running == 0 || tq.running < tq.max_running;
  }
  /// True when some tenant has a live queued job and is under quota.
  /// Prunes as it scans. Caller holds mu_.
  bool HasDispatchableLocked();
  /// Deficit-round-robin pop: priority lane first across all tenants, then
  /// the normal lane; within a lane, the next tenant (ring order) with
  /// credit >= 1 and quota headroom wins; credits replenish by weight when
  /// no eligible tenant can afford a slot. Returns 0 when nothing is
  /// dispatchable. Caller holds mu_.
  JobId PopDispatchableLocked(TenantQueue** out_tenant);
  /// Pressure-based degradation decision for one submission; may rewrite
  /// `job`'s method down the cost ladder (recording requested_method /
  /// degrade_kind) or return a cached coarser-p result to serve directly.
  /// Caller holds mu_.
  JobResult MaybeDegradeLocked(Job& job, uint64_t generation);

  void WorkerLoop();
  /// Runs `job`'s reduction with no scheduler lock held; returns the
  /// outcome. `job` fields other than `spec` must not be touched here.
  /// `cancel` (may be null) is polled by the kernels.
  StatusOr<core::SheddingResult> Execute(const JobSpec& spec,
                                         const CancellationToken* cancel,
                                         double* run_seconds);
  /// Execute for the stateful incremental method "crr-inc": resolves (or
  /// creates) the (dataset, p, seed) ShedSession over the dataset's
  /// VersionedGraph and re-sheds against the current version. The kept set
  /// is returned as EdgeIds of the result version's canonical edge order —
  /// the same ids a from-scratch job on the materialized graph would
  /// answer with. `cancel` (Cancel() or the job's deadline) stops the
  /// session's cold-start ranking mid-run, and an incremental pass before
  /// it starts; a cancelled job leaves the session unchanged.
  StatusOr<core::SheddingResult> ExecuteIncremental(
      const JobSpec& spec, const CancellationToken* cancel,
      double* run_seconds);
  /// Moves `job` to `state`, resolves followers and the result cache,
  /// updates metrics, wakes waiters. A cancelled primary promotes its first
  /// live follower to primary and re-queues it. Caller holds mu_.
  void FinishLocked(Job& job, JobState state, Status status,
                    JobResult result);
  /// Stamps `job` terminal bookkeeping (finish_time, retention order).
  /// Caller holds mu_.
  void RecordTerminalLocked(Job& job,
                            std::chrono::steady_clock::time_point now);
  /// Erases terminal records beyond the retention bounds. Caller holds mu_.
  void GcRetainedJobsLocked(std::chrono::steady_clock::time_point now);
  /// Inserts into the LRU result cache (and the coarser-p family index)
  /// and evicts past the byte budget (never the just-inserted entry).
  /// Caller holds mu_.
  void InsertResultCacheLocked(const std::string& key,
                               const std::string& family, double p,
                               const JobResult& result);
  void PublishQueueDepthLocked();
  void PublishTenantGaugesLocked(TenantQueue& tq);
  /// Bumps the per-terminal-state counter (global + tenant) for one
  /// finished job.
  void CountTerminalLocked(const Job& job, JobState state);
  /// Synthesizes the root `job` span (and, for executed jobs, the per-phase
  /// children) once a job is terminal. Caller holds mu_.
  void EmitJobTraceLocked(const Job& job, JobState state,
                          const JobResult& result);

  /// Typed instrument handles, resolved once at construction. All null when
  /// no registry is attached. The per-phase `scheduler.<stat>_seconds`
  /// series are dynamic (the set of stats depends on the shedder), so those
  /// still go through the registry's string shim via `metrics_`.
  struct Instruments {
    obs::Counter* submitted = nullptr;
    obs::Counter* result_cache_hit = nullptr;
    obs::Counter* coalesced = nullptr;
    obs::Counter* rejected_queue_full = nullptr;
    obs::Counter* jobs_done = nullptr;
    obs::Counter* jobs_failed = nullptr;
    obs::Counter* jobs_cancelled = nullptr;
    obs::Counter* deadline_expired = nullptr;
    obs::Counter* cancelled_while_running = nullptr;
    obs::Counter* follower_promoted = nullptr;
    obs::Counter* jobs_gc = nullptr;
    obs::Counter* result_cache_evicted = nullptr;
    obs::Counter* degraded_tier = nullptr;
    obs::Counter* degraded_cached_p = nullptr;
    obs::Counter* priority_boosted = nullptr;
    obs::Gauge* workers = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* jobs_tracked = nullptr;
    obs::Gauge* result_cache_bytes = nullptr;
    obs::LatencySeries* queue_seconds = nullptr;
    obs::LatencySeries* run_seconds = nullptr;
  };

  GraphStore* const store_;
  obs::MetricsRegistry* const metrics_;  // may be null
  obs::Tracer* const tracer_;      // may be null
  Instruments instruments_;
  const JobSchedulerOptions options_;
  /// Cross-job Phase-1 ranking cache; null when disabled. Internally
  /// synchronized — accessed by workers outside mu_.
  std::unique_ptr<RankCache> rank_cache_;

  /// Incremental re-shed sessions for method "crr-inc", one per
  /// (dataset, p, seed). Sessions are stateful and not thread-safe, so
  /// each carries its own mutex — concurrent crr-inc jobs on the *same*
  /// session serialize (the second answers the version the first left
  /// behind or newer), while distinct sessions run in parallel. When the
  /// store hands out a different VersionedGraph for a dataset (Replace
  /// landed), every session of that dataset is discarded, so none keeps
  /// the replaced graph alive.
  struct DynSession {
    std::mutex mu;
    std::unique_ptr<dyn::ShedSession> session;
  };
  /// One dataset's sessions, all over `graph`, keyed by (p, seed).
  struct DynDatasetSessions {
    std::shared_ptr<dyn::VersionedGraph> graph;
    std::map<std::pair<double, uint64_t>, std::shared_ptr<DynSession>>
        by_key;
  };
  std::mutex dyn_mu_;  // guards dyn_sessions_ (never held across Reshed)
  std::map<std::string, DynDatasetSessions> dyn_sessions_;

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable job_terminal_;
  std::map<JobId, Job> jobs_;  // stable nodes: worker holds refs across ops
  /// Per-tenant fair queues (stable nodes: workers hold TenantQueue*
  /// across the Execute unlock) and the DRR scan ring over their names.
  std::map<std::string, TenantQueue> tenants_;
  std::vector<std::string> tenant_ring_;  // creation order
  size_t ring_pos_ = 0;
  size_t live_queued_ = 0;  // live queued jobs across all tenants/lanes
  std::unordered_map<std::string, JobId> inflight_;
  std::unordered_map<std::string, CacheEntry> result_cache_;
  std::list<std::string> cache_lru_;  // front = most recently used
  /// family key -> (p -> full cache key), the coarser-p degradation index
  /// over result_cache_. Maintained by insert/evict.
  std::map<std::string, std::map<double, std::string>> cache_families_;
  uint64_t cache_bytes_ = 0;
  /// Terminal jobs in finish order (front = oldest) — the GC scan order.
  std::deque<JobId> terminal_order_;
  JobId next_id_ = 1;
  bool shutdown_ = false;

  /// Serializes Shutdown callers (join must happen exactly once).
  std::mutex shutdown_mu_;
  std::vector<std::thread> workers_;
};

}  // namespace edgeshed::service

#endif  // EDGESHED_SERVICE_JOB_SCHEDULER_H_
