#include "service/job_scheduler.h"

#include <algorithm>
#include <utility>

#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/shedder_factory.h"
#include "graph/binary_io.h"

namespace edgeshed::service {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The stateful incremental re-shed method (dyn::ShedSession), dispatched
/// by the scheduler itself rather than core::MakeShedderByName. Not on the
/// degradation cost ladder: degrading a stateful session to a stateless
/// method would silently discard its incremental state.
constexpr std::string_view kIncrementalMethod = "crr-inc";

}  // namespace

std::string_view JobStateToString(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

JobScheduler::JobScheduler(GraphStore* store, obs::MetricsRegistry* metrics,
                           JobSchedulerOptions options, obs::Tracer* tracer)
    : store_(store), metrics_(metrics), tracer_(tracer), options_(options) {
  if (metrics_ != nullptr) {
    // Resolve every fixed-name instrument once; per-event updates through
    // these handles are lock-free and never touch the registry map again.
    instruments_.submitted = metrics_->GetCounter("scheduler.submitted");
    instruments_.result_cache_hit =
        metrics_->GetCounter("scheduler.result_cache_hit");
    instruments_.coalesced = metrics_->GetCounter("scheduler.coalesced");
    instruments_.rejected_queue_full =
        metrics_->GetCounter("scheduler.rejected_queue_full");
    instruments_.jobs_done = metrics_->GetCounter("scheduler.jobs_done");
    instruments_.jobs_failed = metrics_->GetCounter("scheduler.jobs_failed");
    instruments_.jobs_cancelled =
        metrics_->GetCounter("scheduler.jobs_cancelled");
    instruments_.deadline_expired =
        metrics_->GetCounter("scheduler.deadline_expired");
    instruments_.cancelled_while_running =
        metrics_->GetCounter("scheduler.cancelled_while_running");
    instruments_.follower_promoted =
        metrics_->GetCounter("scheduler.follower_promoted");
    instruments_.jobs_gc = metrics_->GetCounter("scheduler.jobs_gc");
    instruments_.result_cache_evicted =
        metrics_->GetCounter("scheduler.result_cache_evicted");
    instruments_.degraded_tier =
        metrics_->GetCounter("scheduler.degraded_tier");
    instruments_.degraded_cached_p =
        metrics_->GetCounter("scheduler.degraded_cached_p");
    instruments_.priority_boosted =
        metrics_->GetCounter("scheduler.priority_boosted");
    instruments_.workers = metrics_->GetGauge("scheduler.workers");
    instruments_.queue_depth = metrics_->GetGauge("scheduler.queue_depth");
    instruments_.jobs_tracked = metrics_->GetGauge("scheduler.jobs_tracked");
    instruments_.result_cache_bytes =
        metrics_->GetGauge("scheduler.result_cache_bytes");
    instruments_.queue_seconds =
        metrics_->GetLatency("scheduler.queue_seconds");
    instruments_.run_seconds = metrics_->GetLatency("scheduler.run_seconds");
  }
  if (options_.enable_rank_cache) {
    RankCacheOptions rank_options;
    rank_options.byte_budget = options_.rank_cache_byte_budget;
    rank_cache_ =
        std::make_unique<RankCache>(rank_options, metrics_, tracer_);
  }
  int workers = options_.workers > 0 ? options_.workers : DefaultThreadCount();
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (instruments_.workers != nullptr) {
    instruments_.workers->Set(workers);
    instruments_.queue_depth->Set(0);
  }
}

JobScheduler::~JobScheduler() { Shutdown(); }

std::string JobScheduler::CacheKey(const JobSpec& spec, uint64_t generation) {
  // %a renders the exact bits of p, so 0.1 and 0.1000000001 never collide.
  // The dataset generation (bumped by GraphStore::Replace) is part of the
  // key so a replaced dataset can never serve results computed against its
  // predecessor from the result cache, nor coalesce onto its jobs.
  //
  // Dedup-key audit vs. the wire's ShedRequest fields (every field a client
  // retry resends must either be in the key or provably result-neutral):
  //   dataset, method, p, seed, output -> in the key;
  //   tenant -> in the key (QoS isolation: no cross-tenant coalescing or
  //     cache sharing);
  //   deadline_ms -> excluded: the result is deadline-independent, and a
  //     retry coalescing onto the original submission is exactly the
  //     double-submit protection this key exists for;
  //   wait -> excluded: client-side delivery mode only;
  //   priority -> excluded: lane choice, result-independent — a priority
  //     duplicate boosts the queued primary instead of forking the work.
  return StrFormat("%s|g%llu|%s|%a|%llu|%s|%s", spec.dataset.c_str(),
                   static_cast<unsigned long long>(generation),
                   spec.method.c_str(), spec.p,
                   static_cast<unsigned long long>(spec.seed),
                   spec.output_path.c_str(), spec.tenant.c_str());
}

std::string JobScheduler::FamilyKey(const JobSpec& spec, uint64_t generation) {
  return StrFormat("%s|g%llu|%s|%llu|%s|%s", spec.dataset.c_str(),
                   static_cast<unsigned long long>(generation),
                   spec.method.c_str(),
                   static_cast<unsigned long long>(spec.seed),
                   spec.output_path.c_str(), spec.tenant.c_str());
}

JobScheduler::TenantQueue& JobScheduler::TenantLocked(
    const std::string& name) {
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return it->second;
  TenantQueue tq;
  TenantConfig config = options_.default_tenant;
  auto configured = options_.tenants.find(name);
  if (configured != options_.tenants.end()) config = configured->second;
  tq.weight = std::max<uint32_t>(1, config.weight);
  tq.max_running = config.max_running;
  if (metrics_ != nullptr) {
    // Per-tenant series are dynamic by nature; resolve the handles once at
    // tenant creation so per-event updates stay lock-free.
    const std::string label = name.empty() ? "default" : name;
    tq.submitted =
        metrics_->GetCounter("scheduler.tenant_submitted." + label);
    tq.done = metrics_->GetCounter("scheduler.tenant_done." + label);
    tq.rejected =
        metrics_->GetCounter("scheduler.tenant_rejected." + label);
    tq.queued_gauge =
        metrics_->GetGauge("scheduler.tenant_queued." + label);
    tq.running_gauge =
        metrics_->GetGauge("scheduler.tenant_running." + label);
  }
  auto [inserted, ok] = tenants_.emplace(name, std::move(tq));
  tenant_ring_.push_back(name);
  return inserted->second;
}

void JobScheduler::PruneLaneFrontLocked(TenantQueue& tq, int lane) {
  std::deque<JobId>& q = tq.lanes[lane];
  while (!q.empty()) {
    auto it = jobs_.find(q.front());
    if (it == jobs_.end()) {  // record already retired by retention GC
      q.pop_front();
      continue;
    }
    const Job& job = it->second;
    // Stale entries: terminal (cancelled while queued), already dispatched,
    // coalesced onto a primary, or re-laned by a priority boost (the live
    // entry is in job.lane; this one is the leftover).
    if (job.state != JobState::kQueued || job.primary != 0 ||
        job.lane != lane) {
      q.pop_front();
      continue;
    }
    break;
  }
}

bool JobScheduler::HasDispatchableLocked() {
  for (int lane = 0; lane < kNumLanes; ++lane) {
    for (const std::string& name : tenant_ring_) {
      TenantQueue& tq = tenants_.at(name);
      PruneLaneFrontLocked(tq, lane);
      if (!tq.lanes[lane].empty() && UnderQuota(tq)) return true;
    }
  }
  return false;
}

JobId JobScheduler::PopDispatchableLocked(TenantQueue** out_tenant) {
  for (int lane = 0; lane < kNumLanes; ++lane) {
    // Two rounds: one with existing credit, one after a replenish. Weights
    // are >= 1, so every eligible tenant can afford a slot after one
    // replenish — the second round always pops if anyone is eligible.
    for (int round = 0; round < 2; ++round) {
      bool any_eligible = false;
      const size_t ring_size = tenant_ring_.size();
      for (size_t i = 0; i < ring_size; ++i) {
        const size_t idx = (ring_pos_ + i) % ring_size;
        TenantQueue& tq = tenants_.at(tenant_ring_[idx]);
        PruneLaneFrontLocked(tq, lane);
        if (tq.lanes[lane].empty() || !UnderQuota(tq)) continue;
        any_eligible = true;
        if (tq.credit < 1.0) continue;
        tq.credit -= 1.0;
        const JobId id = tq.lanes[lane].front();
        tq.lanes[lane].pop_front();
        // Advance past this tenant so equal-credit tenants interleave
        // instead of the lowest ring index winning every scan.
        ring_pos_ = (idx + 1) % ring_size;
        *out_tenant = &tq;
        return id;
      }
      if (!any_eligible) break;  // this lane has nothing dispatchable
      for (const std::string& name : tenant_ring_) {
        TenantQueue& tq = tenants_.at(name);
        if (!tq.lanes[lane].empty() && UnderQuota(tq)) {
          // Cap the balance at one full quantum above a slot so a tenant
          // alone on the system does not bank unbounded credit to spend
          // the moment a competitor shows up.
          tq.credit = std::min(tq.credit + tq.weight,
                               static_cast<double>(tq.weight) + 1.0);
        }
      }
    }
  }
  return 0;
}

StatusOr<JobId> JobScheduler::Submit(const JobSpec& spec) {
  EDGESHED_RETURN_IF_ERROR(core::ValidatePreservationRatio(spec.p));
  if (spec.dataset.empty()) {
    return Status::InvalidArgument("job spec needs a dataset name");
  }
  const auto known = core::KnownShedderNames();
  if (spec.method != kIncrementalMethod &&
      std::find(known.begin(), known.end(), spec.method) == known.end()) {
    return Status::InvalidArgument(
        StrFormat("unknown shedding method '%s'", spec.method.c_str()));
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("scheduler is shut down");
  }
  const auto now = Clock::now();
  TenantQueue& tenant = TenantLocked(spec.tenant);
  Job job;
  job.id = next_id_;
  job.spec = spec;
  job.requested_method = spec.method;
  job.applied_p = spec.p;
  job.lane = spec.priority ? kPriorityLane : kNormalLane;
  job.submit_time = now;
  job.deadline = spec.deadline.count() > 0 ? now + spec.deadline
                                           : Clock::time_point::max();
  if (tracer_ != nullptr) {
    job.trace_id = tracer_->NewTraceId();
    job.root_span_id = tracer_->NewTraceId();
    job.submit_ns = tracer_->NowNs();
  }

  const uint64_t generation = store_->Generation(spec.dataset);
  // Degradation first: it may rewrite job.spec.method (and therefore the
  // dedup key) or hand back a cached coarser-p result to serve outright.
  JobResult coarser = MaybeDegradeLocked(job, generation);
  job.cache_key = CacheKey(job.spec, generation);
  job.family_key = FamilyKey(job.spec, generation);

  if (tenant.submitted != nullptr) tenant.submitted->Increment();

  if (coarser != nullptr) {
    job.state = JobState::kDone;
    job.result = std::move(coarser);
    job.deduplicated = true;
    if (instruments_.submitted != nullptr) {
      instruments_.submitted->Increment();
      instruments_.result_cache_hit->Increment();
      instruments_.jobs_done->Increment();
    }
    if (tenant.done != nullptr) tenant.done->Increment();
    const JobId id = next_id_++;
    job.id = id;
    auto [it, inserted] = jobs_.emplace(id, std::move(job));
    EmitJobTraceLocked(it->second, JobState::kDone, it->second.result);
    RecordTerminalLocked(it->second, now);
    GcRetainedJobsLocked(now);
    return id;
  }

  if (options_.enable_result_cache) {
    auto cached = result_cache_.find(job.cache_key);
    if (cached != result_cache_.end()) {
      cache_lru_.splice(cache_lru_.begin(), cache_lru_,
                        cached->second.lru_pos);
      job.state = JobState::kDone;
      job.result = cached->second.result;
      job.deduplicated = true;
      if (instruments_.submitted != nullptr) {
        instruments_.submitted->Increment();
        instruments_.result_cache_hit->Increment();
        instruments_.jobs_done->Increment();
      }
      if (tenant.done != nullptr) tenant.done->Increment();
      const JobId id = next_id_++;
      job.id = id;
      auto [it, inserted] = jobs_.emplace(id, std::move(job));
      EmitJobTraceLocked(it->second, JobState::kDone, it->second.result);
      RecordTerminalLocked(it->second, now);
      GcRetainedJobsLocked(now);
      return id;
    }
  }

  auto inflight = inflight_.find(job.cache_key);
  if (inflight != inflight_.end()) {
    // An identical job is queued or running: ride along instead of doing the
    // same work twice. The follower shares the primary's outcome. A
    // priority follower boosts a still-queued normal-lane primary into the
    // priority lane (re-pushed there; the old entry is pruned on pop), so
    // priority semantics survive dedup.
    job.primary = inflight->second;
    job.deduplicated = true;
    const JobId id = next_id_++;
    Job& primary = jobs_.at(job.primary);
    primary.followers.push_back(id);
    if (spec.priority && primary.state == JobState::kQueued &&
        primary.primary == 0 && primary.lane == kNormalLane) {
      primary.lane = kPriorityLane;
      TenantLocked(primary.spec.tenant)
          .lanes[kPriorityLane]
          .push_back(primary.id);
      if (instruments_.priority_boosted != nullptr) {
        instruments_.priority_boosted->Increment();
      }
      work_available_.notify_one();
    }
    jobs_.emplace(id, std::move(job));
    if (instruments_.submitted != nullptr) {
      instruments_.submitted->Increment();
      instruments_.coalesced->Increment();
    }
    return id;
  }

  if (live_queued_ >= options_.queue_capacity) {
    if (instruments_.rejected_queue_full != nullptr) {
      instruments_.rejected_queue_full->Increment();
    }
    if (tenant.rejected != nullptr) tenant.rejected->Increment();
    return Status::ResourceExhausted(
        StrFormat("submission queue is full (%zu jobs)",
                  options_.queue_capacity));
  }

  const JobId id = next_id_++;
  job.id = id;
  const int lane = job.lane;
  inflight_[job.cache_key] = id;
  jobs_.emplace(id, std::move(job));
  tenant.lanes[lane].push_back(id);
  ++tenant.queued;
  ++live_queued_;
  PublishQueueDepthLocked();
  PublishTenantGaugesLocked(tenant);
  if (instruments_.submitted != nullptr) instruments_.submitted->Increment();
  GcRetainedJobsLocked(now);
  work_available_.notify_one();
  return id;
}

JobResult JobScheduler::MaybeDegradeLocked(Job& job, uint64_t generation) {
  const DegradePolicy& policy = options_.degrade;
  if (!policy.enabled || !job.spec.allow_degrade) return nullptr;
  const double queue_fraction =
      options_.queue_capacity == 0
          ? 0.0
          : static_cast<double>(live_queued_) /
                static_cast<double>(options_.queue_capacity);
  const double pressure = std::max(job.spec.pressure, queue_fraction);
  int steps = 0;
  if (pressure >= policy.tier3_pressure) {
    steps = 3;
  } else if (pressure >= policy.tier2_pressure) {
    steps = 2;
  } else if (pressure >= policy.tier1_pressure) {
    steps = 1;
  }
  if (steps == 0) return nullptr;

  if (options_.enable_result_cache) {
    // A cached exact answer for the requested spec beats any degradation —
    // let the normal cache-hit path serve it.
    if (result_cache_.count(CacheKey(job.spec, generation)) > 0) {
      return nullptr;
    }
    if (policy.serve_cached_coarser_p) {
      // Next best: an already-computed result for the *requested* method at
      // a coarser p' < p (within the policy gap). Costs nothing and keeps
      // the method the caller asked for.
      auto family = cache_families_.find(FamilyKey(job.spec, generation));
      if (family != cache_families_.end() && !family->second.empty()) {
        auto candidate = family->second.lower_bound(job.spec.p);
        if (candidate != family->second.begin()) {
          --candidate;  // largest cached p' strictly below the requested p
          if (job.spec.p - candidate->first <= policy.max_p_gap) {
            auto entry = result_cache_.find(candidate->second);
            if (entry != result_cache_.end()) {
              cache_lru_.splice(cache_lru_.begin(), cache_lru_,
                                entry->second.lru_pos);
              job.applied_p = candidate->first;
              job.degrade_kind =
                  static_cast<uint8_t>(DegradeKind::kCachedCoarserP);
              if (instruments_.degraded_cached_p != nullptr) {
                instruments_.degraded_cached_p->Increment();
              }
              return entry->second.result;
            }
          }
        }
      }
    }
  }

  const std::string applied =
      core::DegradeShedderMethod(job.spec.method, steps);
  if (applied != job.spec.method) {
    job.spec.method = applied;
    job.degrade_kind = static_cast<uint8_t>(DegradeKind::kCheaperTier);
    if (instruments_.degraded_tier != nullptr) {
      instruments_.degraded_tier->Increment();
    }
  }
  return nullptr;
}

StatusOr<JobResult> JobScheduler::Wait(JobId id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound(StrFormat(
        "unknown job id %llu", static_cast<unsigned long long>(id)));
  }
  Job& job = it->second;
  // Pin the record against retention GC while blocked: the map node (and
  // this reference) must stay valid across the wait.
  ++job.waiters;
  job_terminal_.wait(lock, [&job] { return IsTerminal(job.state); });
  --job.waiters;
  if (job.state == JobState::kDone) return job.result;
  return job.status;
}

Status JobScheduler::Cancel(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound(StrFormat(
        "unknown job id %llu", static_cast<unsigned long long>(id)));
  }
  Job& job = it->second;
  if (IsTerminal(job.state)) {
    return Status::FailedPrecondition(
        StrFormat("job %llu is already %s",
                  static_cast<unsigned long long>(id),
                  std::string(JobStateToString(job.state)).c_str()));
  }
  job.cancel_requested = true;
  if (job.state == JobState::kQueued) {
    // Queued (or coalesced) jobs cancel immediately; their id stays in its
    // tenant lane and is pruned by the dispatcher that reaches it.
    if (job.primary == 0) {
      --live_queued_;
      TenantQueue& tenant = TenantLocked(job.spec.tenant);
      if (tenant.queued > 0) --tenant.queued;
      PublishQueueDepthLocked();
      PublishTenantGaugesLocked(tenant);
    }
    FinishLocked(job, JobState::kCancelled,
                 Status::Cancelled("cancelled by caller"), nullptr);
  } else if (job.state == JobState::kRunning && job.token != nullptr) {
    // Trip the running kernel's token: the reduction aborts at its next
    // cooperative poll instead of running to completion.
    job.token->Cancel();
  }
  return Status::OK();
}

StatusOr<JobStatus> JobScheduler::GetStatus(JobId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound(StrFormat(
        "unknown job id %llu", static_cast<unsigned long long>(id)));
  }
  const Job& job = it->second;
  JobStatus status;
  status.id = job.id;
  status.state = job.state;
  status.status = job.status;
  status.deduplicated = job.deduplicated;
  status.queue_seconds = job.queue_seconds;
  status.run_seconds = job.run_seconds;
  status.tenant = job.spec.tenant;
  status.requested_method = job.requested_method;
  status.applied_method = job.spec.method;
  status.requested_p = job.spec.p;
  status.applied_p = job.applied_p;
  status.degrade_kind = job.degrade_kind;
  return status;
}

size_t JobScheduler::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_queued_;
}

size_t JobScheduler::TrackedJobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_.size();
}

void JobScheduler::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    for (auto& [name, tenant] : tenants_) {
      for (int lane = 0; lane < kNumLanes; ++lane) {
        for (JobId id : tenant.lanes[lane]) {
          auto it = jobs_.find(id);
          if (it == jobs_.end()) continue;  // cancelled entry already GC'd
          Job& job = it->second;
          if (IsTerminal(job.state)) continue;
          FinishLocked(job, JobState::kCancelled,
                       Status::Cancelled("scheduler shutdown"), nullptr);
        }
        tenant.lanes[lane].clear();
      }
      tenant.queued = 0;
      PublishTenantGaugesLocked(tenant);
    }
    live_queued_ = 0;
    PublishQueueDepthLocked();
    work_available_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void JobScheduler::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_available_.wait(lock,
                         [&] { return shutdown_ || HasDispatchableLocked(); });
    if (shutdown_) return;
    TenantQueue* tenant = nullptr;
    const JobId id = PopDispatchableLocked(&tenant);
    if (id == 0) continue;  // raced another worker for the last job
    // PopDispatchableLocked only returns live kQueued primaries.
    Job& job = jobs_.at(id);  // map nodes are stable across the unlock below
    --live_queued_;
    if (tenant->queued > 0) --tenant->queued;
    if (tenant->queued == 0) {
      // Classic DRR: an emptied queue forfeits its deficit, so an idle
      // tenant cannot bank credit while nobody competes with it.
      tenant->credit = 0.0;
    }
    PublishQueueDepthLocked();
    const auto picked_up = Clock::now();
    job.queue_seconds = SecondsBetween(job.submit_time, picked_up);
    if (job.cancel_requested) {
      FinishLocked(job, JobState::kCancelled,
                   Status::Cancelled("cancelled by caller"), nullptr);
      continue;
    }
    if (picked_up > job.deadline) {
      if (instruments_.deadline_expired != nullptr) {
        instruments_.deadline_expired->Increment();
      }
      FinishLocked(job, JobState::kCancelled,
                   Status::DeadlineExceeded(
                       "deadline passed before the job was dispatched"),
                   nullptr);
      continue;
    }
    job.state = JobState::kRunning;
    ++tenant->running;
    PublishTenantGaugesLocked(*tenant);
    // Arm the cooperative token with the job's deadline; Cancel() trips it.
    // Shared with this worker so a concurrent GC/erase can never leave the
    // kernel polling freed memory.
    job.token = std::make_shared<CancellationToken>(job.deadline);
    const std::shared_ptr<CancellationToken> token = job.token;
    const JobSpec spec = job.spec;  // worker's copy; run with no lock held
    const uint64_t trace_id = job.trace_id;
    const uint64_t root_span_id = job.root_span_id;
    if (tracer_ != nullptr) {
      // The queue wait was observed as two timestamps, not a scope; commit
      // it as a synthesized span now that it is over.
      obs::SpanRecord queued;
      queued.trace_id = trace_id;
      queued.span_id = tracer_->NewTraceId();
      queued.parent_id = root_span_id;
      queued.name = "queued";
      queued.start_ns = job.submit_ns;
      queued.duration_ns = tracer_->NowNs() - job.submit_ns;
      queued.tid = obs::Tracer::ThreadIndex();
      tracer_->Record(std::move(queued));
    }
    lock.unlock();
    double run_seconds = 0.0;
    uint64_t run_span_id = 0;
    int64_t run_start_ns = 0;
    StatusOr<core::SheddingResult> outcome =
        Status::Internal("job never executed");
    {
      // While this RAII span is alive it is the worker's ambient span, so
      // GraphStore's `store.load` (and anything else traced inside Execute)
      // nests under it.
      obs::Span run_span =
          obs::Tracer::StartSpanInTrace(tracer_, "run", trace_id, root_span_id);
      run_span.Annotate("dataset", spec.dataset);
      run_span.Annotate("method", spec.method);
      run_span.Annotate("p", StrFormat("%g", spec.p));
      run_span_id = run_span.span_id();
      run_start_ns = tracer_ != nullptr ? tracer_->NowNs() : 0;
      outcome = Execute(spec, token.get(), &run_seconds);
      run_span.Annotate("ok", outcome.ok() ? "true" : "false");
    }
    lock.lock();
    if (tenant->running > 0) --tenant->running;
    PublishTenantGaugesLocked(*tenant);
    if (tenant->max_running != 0) {
      // A quota slot opened up; another worker may now be able to dispatch
      // this tenant's queued work even though no new job arrived.
      work_available_.notify_one();
    }
    job.run_seconds = run_seconds;
    job.run_span_id = run_span_id;
    job.run_start_ns = run_start_ns;
    job.token.reset();
    const bool kernel_deadline =
        !outcome.ok() &&
        outcome.status().code() == StatusCode::kDeadlineExceeded;
    const bool kernel_cancelled =
        !outcome.ok() &&
        (outcome.status().code() == StatusCode::kCancelled || kernel_deadline);
    if (job.cancel_requested || kernel_cancelled) {
      if (job.cancel_requested &&
          instruments_.cancelled_while_running != nullptr) {
        instruments_.cancelled_while_running->Increment();
      }
      if (kernel_deadline && instruments_.deadline_expired != nullptr) {
        instruments_.deadline_expired->Increment();
      }
      // A caller Cancel beats the kernel's own deadline report; otherwise
      // surface exactly what the kernel returned.
      Status why = job.cancel_requested
                       ? Status::Cancelled("cancelled while running")
                       : outcome.status();
      FinishLocked(job, JobState::kCancelled, std::move(why), nullptr);
    } else if (!outcome.ok()) {
      FinishLocked(job, JobState::kFailed, outcome.status(), nullptr);
    } else {
      FinishLocked(job, JobState::kDone, Status::OK(),
                   std::make_shared<const core::SheddingResult>(
                       std::move(outcome).value()));
    }
  }
}

StatusOr<core::SheddingResult> JobScheduler::Execute(
    const JobSpec& spec, const CancellationToken* cancel,
    double* run_seconds) {
  if (spec.method == kIncrementalMethod) {
    return ExecuteIncremental(spec, cancel, run_seconds);
  }
  Stopwatch watch;
  // The graph load itself is not interruptible (it may be shared with other
  // jobs via the store); check before and after instead.
  if (CancellationRequested(cancel)) {
    *run_seconds = watch.ElapsedSeconds();
    return cancel->ToStatus();
  }
  uint64_t generation = 0;
  auto graph = store_->Get(spec.dataset, &generation);
  if (!graph.ok()) {
    *run_seconds = watch.ElapsedSeconds();
    return graph.status();
  }
  auto shedder = core::MakeShedderByName(spec.method, spec.seed);
  if (!shedder.ok()) {
    *run_seconds = watch.ElapsedSeconds();
    return shedder.status();
  }
  core::ShedOptions shed_options;
  shed_options.p = spec.p;
  shed_options.cancel = cancel;
  shed_options.seed = spec.seed;
  if (rank_cache_ != nullptr) {
    // Route the shedder's Phase-1 ranking through the cross-job cache,
    // keyed by the generation observed with the graph lease above so a
    // ranking is never paired with a replaced dataset. Methods that do not
    // rank by betweenness simply never invoke the provider.
    RankCache* cache = rank_cache_.get();
    const std::string dataset = spec.dataset;
    shed_options.rank_provider =
        [cache, dataset, generation](
            const graph::Graph& g,
            const analytics::BetweennessOptions& betweenness) {
          return cache->GetOrCompute(dataset, generation, g, betweenness);
        };
  }
  StatusOr<core::SheddingResult> result =
      (*shedder)->Shed(**graph, shed_options);
  if (result.ok() && !spec.output_path.empty()) {
    // Materialize G' and snapshot it for out-of-band consumers. The write
    // is part of the job: a caller that asked for a snapshot must not see
    // kDone without one existing on disk.
    Stopwatch write_watch;
    graph::Graph reduced = result->BuildReducedGraph(**graph);
    // v3 (mmap-ready) so any later load of the output is zero-copy.
    if (Status saved = graph::SaveBinaryGraph(reduced, spec.output_path,
                                              graph::SnapshotOptions{});
        !saved.ok()) {
      *run_seconds = watch.ElapsedSeconds();
      return saved;
    }
    result->stats.emplace_back("output_write_seconds",
                               write_watch.ElapsedSeconds());
  }
  *run_seconds = watch.ElapsedSeconds();
  return result;
}

StatusOr<core::SheddingResult> JobScheduler::ExecuteIncremental(
    const JobSpec& spec, const CancellationToken* cancel,
    double* run_seconds) {
  Stopwatch watch;
  auto dyn_graph = store_->DynGraph(spec.dataset);
  if (!dyn_graph.ok()) {
    *run_seconds = watch.ElapsedSeconds();
    return dyn_graph.status();
  }
  std::shared_ptr<DynSession> slot;
  {
    std::lock_guard<std::mutex> lock(dyn_mu_);
    DynDatasetSessions& sessions = dyn_sessions_[spec.dataset];
    if (sessions.graph != *dyn_graph) {
      // First crr-inc job on this dataset, or Replace swapped its dynamic
      // graph: drop every session over the old graph so none pins it.
      sessions.graph = *dyn_graph;
      sessions.by_key.clear();
    }
    std::shared_ptr<DynSession>& entry = sessions.by_key[{spec.p, spec.seed}];
    if (entry == nullptr) entry = std::make_shared<DynSession>();
    slot = entry;
  }
  std::lock_guard<std::mutex> session_lock(slot->mu);
  if (slot->session == nullptr) {
    dyn::DynamicShedOptions options;
    options.p = spec.p;
    options.seed = spec.seed;
    if (rank_cache_ != nullptr) {
      // Full ranking passes share the cross-job cache, keyed by the graph
      // version in place of the store generation. The "#dyn" suffix keeps
      // version and generation numberings from colliding among one
      // dataset's cache entries.
      RankCache* cache = rank_cache_.get();
      const std::string key = spec.dataset + "#dyn";
      options.rank_provider =
          [cache, key](const graph::Graph& g,
                       const analytics::BetweennessOptions& betweenness,
                       uint64_t version) {
            return cache->GetOrCompute(key, version, g, betweenness);
          };
    }
    slot->session = std::make_unique<dyn::ShedSession>(*dyn_graph, options);
  }
  auto reshed = slot->session->Reshed(cancel);
  if (!reshed.ok()) {
    *run_seconds = watch.ElapsedSeconds();
    return reshed.status();
  }

  // Map the kept pairs onto EdgeIds in the result version's canonical
  // order — both lists are sorted, so one merge pass suffices — making the
  // answer shape-identical to a from-scratch job on the materialized graph.
  core::SheddingResult result;
  result.kept_edges.reserve(reshed->kept.size());
  {
    size_t next = 0;
    graph::EdgeId id = 0;
    reshed->snapshot->ForEachLiveEdge([&](const graph::Edge& e) {
      if (next < reshed->kept.size() && e == reshed->kept[next]) {
        result.kept_edges.push_back(id);
        ++next;
      }
      ++id;
    });
    if (next != reshed->kept.size()) {
      *run_seconds = watch.ElapsedSeconds();
      return Status::Internal(
          "incremental re-shed kept an edge not in its own snapshot");
    }
  }
  result.total_delta = reshed->total_delta;
  result.average_delta = reshed->average_delta;
  result.reduction_seconds = reshed->seconds;
  result.stats = std::move(reshed->stats);
  result.stats.emplace_back("version", static_cast<double>(reshed->version));
  result.stats.emplace_back("full_rank", reshed->full_rank ? 1.0 : 0.0);
  result.stats.emplace_back("dirty_vertices",
                            static_cast<double>(reshed->dirty_vertices));
  if (!spec.output_path.empty()) {
    // G' straight from the kept pairs: they are canonical, sorted and
    // unique, and the mapping pass above proved each one live, so this
    // equals the kept subgraph of the materialized snapshot.
    Stopwatch write_watch;
    EDGESHED_ASSIGN_OR_RETURN(
        graph::Graph reduced,
        graph::Graph::FromEdges(
            static_cast<graph::NodeId>(reshed->snapshot->NumNodes()),
            std::move(reshed->kept)));
    if (Status saved = graph::SaveBinaryGraph(reduced, spec.output_path,
                                              graph::SnapshotOptions{});
        !saved.ok()) {
      *run_seconds = watch.ElapsedSeconds();
      return saved;
    }
    result.stats.emplace_back("output_write_seconds",
                              write_watch.ElapsedSeconds());
  }
  *run_seconds = watch.ElapsedSeconds();
  return result;
}

void JobScheduler::FinishLocked(Job& job, JobState state, Status status,
                                JobResult result) {
  const auto now = Clock::now();
  job.state = state;
  job.status = std::move(status);
  job.result = result;
  if (job.queue_seconds == 0.0) {
    job.queue_seconds = SecondsBetween(job.submit_time, now);
  }
  // A cancelled primary must not drag its coalesced followers down with it:
  // they asked for the same result, not for this job's fate. Promote the
  // first still-live follower to primary and re-queue it; the remaining
  // live followers ride along with the promoted job. (Not during shutdown,
  // where everything is being cancelled anyway.)
  if (state == JobState::kCancelled && !shutdown_ && !job.followers.empty()) {
    JobId promoted_id = 0;
    size_t promoted_index = 0;
    for (size_t i = 0; i < job.followers.size(); ++i) {
      auto it = jobs_.find(job.followers[i]);
      if (it != jobs_.end() && !IsTerminal(it->second.state)) {
        promoted_id = job.followers[i];
        promoted_index = i;
        break;
      }
    }
    if (promoted_id != 0) {
      Job& promoted = jobs_.at(promoted_id);
      promoted.primary = 0;
      promoted.deduplicated = false;
      for (size_t i = promoted_index + 1; i < job.followers.size(); ++i) {
        auto it = jobs_.find(job.followers[i]);
        if (it == jobs_.end() || IsTerminal(it->second.state)) continue;
        it->second.primary = promoted_id;
        promoted.followers.push_back(job.followers[i]);
      }
      job.followers.clear();
      inflight_[job.cache_key] = promoted_id;
      promoted.lane =
          promoted.spec.priority ? kPriorityLane : kNormalLane;
      TenantQueue& promoted_tenant = TenantLocked(promoted.spec.tenant);
      promoted_tenant.lanes[promoted.lane].push_back(promoted_id);
      ++promoted_tenant.queued;
      ++live_queued_;
      PublishQueueDepthLocked();
      PublishTenantGaugesLocked(promoted_tenant);
      if (instruments_.follower_promoted != nullptr) {
        instruments_.follower_promoted->Increment();
      }
      work_available_.notify_one();
    }
  }
  if (!job.cache_key.empty()) {
    auto inflight = inflight_.find(job.cache_key);
    if (inflight != inflight_.end() && inflight->second == job.id) {
      inflight_.erase(inflight);
    }
  }
  if (state == JobState::kDone && options_.enable_result_cache) {
    InsertResultCacheLocked(job.cache_key, job.family_key, job.spec.p,
                            result);
  }
  CountTerminalLocked(job, state);
  if (instruments_.queue_seconds != nullptr) {
    instruments_.queue_seconds->Record(job.queue_seconds);
    if (job.run_seconds > 0.0) {
      instruments_.run_seconds->Record(job.run_seconds);
    }
  }
  if (metrics_ != nullptr && state == JobState::kDone && result != nullptr) {
    // Publish per-phase shedding timings (phase1_seconds/phase2_seconds
    // and any other *_seconds counter the shedder reports) as latency
    // series. Done here — on the executing job only — so coalesced
    // followers sharing this result do not double-count the work. The stat
    // set varies by shedder, so these go through the string-keyed shim.
    constexpr std::string_view kSecondsSuffix = "_seconds";
    for (const auto& [key, value] : result->stats) {
      if (key.size() > kSecondsSuffix.size() &&
          key.compare(key.size() - kSecondsSuffix.size(),
                      kSecondsSuffix.size(), kSecondsSuffix) == 0) {
        metrics_->RecordLatency("scheduler." + key, value);
      }
    }
  }
  EmitJobTraceLocked(job, state, result);
  RecordTerminalLocked(job, now);
  for (JobId follower_id : job.followers) {
    auto follower_it = jobs_.find(follower_id);
    if (follower_it == jobs_.end()) continue;  // already retired by GC
    Job& follower = follower_it->second;
    if (IsTerminal(follower.state)) continue;  // cancelled individually
    follower.state = state;
    follower.status = job.status;
    follower.result = result;
    follower.queue_seconds = SecondsBetween(follower.submit_time, now);
    // Degradation applied to the primary is shared by its followers (they
    // coalesced on the *applied* key, so their requested method matches).
    follower.applied_p = job.applied_p;
    follower.degrade_kind = job.degrade_kind;
    EmitJobTraceLocked(follower, state, nullptr);
    RecordTerminalLocked(follower, now);
    CountTerminalLocked(follower, state);
  }
  job.followers.clear();
  GcRetainedJobsLocked(now);
  job_terminal_.notify_all();
}

void JobScheduler::CountTerminalLocked(const Job& job, JobState state) {
  obs::Counter* counter = nullptr;
  switch (state) {
    case JobState::kDone:
      counter = instruments_.jobs_done;
      break;
    case JobState::kFailed:
      counter = instruments_.jobs_failed;
      break;
    case JobState::kCancelled:
      counter = instruments_.jobs_cancelled;
      break;
    default:
      break;
  }
  if (counter != nullptr) counter->Increment();
  if (state == JobState::kDone) {
    TenantQueue& tenant = TenantLocked(job.spec.tenant);
    if (tenant.done != nullptr) tenant.done->Increment();
  }
}

void JobScheduler::EmitJobTraceLocked(const Job& job, JobState state,
                                      const JobResult& result) {
  if (tracer_ == nullptr || job.trace_id == 0) return;
  const int64_t now_ns = tracer_->NowNs();
  // Per-phase children: the kernels report phase durations as stats rather
  // than scopes (core/ stays free of obs dependencies), so lay the
  // `phase<N>_seconds` stats out sequentially from the run start. Other
  // `*_seconds` stats were already exported as latency series above.
  if (result != nullptr && job.run_span_id != 0) {
    int64_t cursor_ns = job.run_start_ns;
    for (const auto& [key, value] : result->stats) {
      if (key.size() < 8 || key.compare(0, 5, "phase") != 0) continue;
      const size_t digits = key.find_first_not_of("0123456789", 5);
      if (digits == 5 || digits == std::string::npos ||
          key.compare(digits, std::string::npos, "_seconds") != 0) {
        continue;
      }
      obs::SpanRecord phase;
      phase.trace_id = job.trace_id;
      phase.span_id = tracer_->NewTraceId();
      phase.parent_id = job.run_span_id;
      phase.name = key.substr(0, digits);
      phase.start_ns = cursor_ns;
      phase.duration_ns = static_cast<int64_t>(value * 1e9);
      phase.tid = obs::Tracer::ThreadIndex();
      cursor_ns += phase.duration_ns;
      tracer_->Record(std::move(phase));
    }
  }
  obs::SpanRecord root;
  root.trace_id = job.trace_id;
  root.span_id = job.root_span_id;
  root.parent_id = 0;
  root.name = "job";
  root.start_ns = job.submit_ns;
  root.duration_ns = now_ns - job.submit_ns;
  root.tid = obs::Tracer::ThreadIndex();
  root.annotations.emplace_back(
      "id", StrFormat("%llu", static_cast<unsigned long long>(job.id)));
  root.annotations.emplace_back("dataset", job.spec.dataset);
  root.annotations.emplace_back("method", job.spec.method);
  root.annotations.emplace_back("p", StrFormat("%g", job.spec.p));
  root.annotations.emplace_back("state",
                                std::string(JobStateToString(state)));
  root.annotations.emplace_back("deduplicated",
                                job.deduplicated ? "true" : "false");
  tracer_->Record(std::move(root));
}

void JobScheduler::RecordTerminalLocked(Job& job, Clock::time_point now) {
  job.finish_time = now;
  terminal_order_.push_back(job.id);
}

void JobScheduler::GcRetainedJobsLocked(Clock::time_point now) {
  // Scan from the oldest finish; each record is visited at most once per
  // call, so a run of pinned (waited-on) jobs cannot spin this loop.
  const size_t scan_limit = terminal_order_.size();
  for (size_t scanned = 0;
       scanned < scan_limit && !terminal_order_.empty(); ++scanned) {
    const JobId id = terminal_order_.front();
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {  // stale entry (shouldn't happen; be safe)
      terminal_order_.pop_front();
      continue;
    }
    Job& job = it->second;
    const bool over_count = terminal_order_.size() > options_.max_retained_jobs;
    const bool expired = options_.job_retention.count() > 0 &&
                         now - job.finish_time >= options_.job_retention;
    if (!over_count && !expired) break;  // front is oldest: rest are newer
    terminal_order_.pop_front();
    if (job.waiters > 0) {
      // A Wait() holds a reference into the map; requeue and retry later.
      terminal_order_.push_back(id);
      continue;
    }
    jobs_.erase(it);
    if (instruments_.jobs_gc != nullptr) instruments_.jobs_gc->Increment();
  }
  if (instruments_.jobs_tracked != nullptr) {
    instruments_.jobs_tracked->Set(static_cast<int64_t>(jobs_.size()));
  }
}

uint64_t JobScheduler::ApproxResultBytes(const core::SheddingResult& result) {
  uint64_t bytes = sizeof(core::SheddingResult);
  bytes += result.kept_edges.capacity() * sizeof(graph::EdgeId);
  for (const auto& [key, value] : result.stats) {
    (void)value;
    bytes += key.capacity() + sizeof(double) + 2 * sizeof(void*);
  }
  return bytes;
}

void JobScheduler::InsertResultCacheLocked(const std::string& key,
                                           const std::string& family,
                                           double p,
                                           const JobResult& result) {
  // Keeps the coarser-p family index (family key -> p -> full key) in
  // lockstep with the cache map on replace, insert, and eviction.
  const auto unindex = [this](const CacheEntry& entry,
                              const std::string& full_key) {
    auto fam = cache_families_.find(entry.family);
    if (fam == cache_families_.end()) return;
    auto at_p = fam->second.find(entry.p);
    if (at_p != fam->second.end() && at_p->second == full_key) {
      fam->second.erase(at_p);
    }
    if (fam->second.empty()) cache_families_.erase(fam);
  };
  auto existing = result_cache_.find(key);
  if (existing != result_cache_.end()) {
    cache_bytes_ -= existing->second.bytes;
    cache_lru_.erase(existing->second.lru_pos);
    unindex(existing->second, key);
    result_cache_.erase(existing);
  }
  cache_lru_.push_front(key);
  CacheEntry entry{result, ApproxResultBytes(*result), cache_lru_.begin(),
                   family, p};
  cache_bytes_ += entry.bytes;
  result_cache_.emplace(key, std::move(entry));
  cache_families_[family][p] = key;
  // Evict least-recently-used entries past the budget — but never the entry
  // just inserted, so an oversized single result still gets cached once.
  while (cache_bytes_ > options_.result_cache_byte_budget &&
         cache_lru_.size() > 1) {
    auto victim = result_cache_.find(cache_lru_.back());
    cache_bytes_ -= victim->second.bytes;
    unindex(victim->second, victim->first);
    result_cache_.erase(victim);
    cache_lru_.pop_back();
    if (instruments_.result_cache_evicted != nullptr) {
      instruments_.result_cache_evicted->Increment();
    }
  }
  if (instruments_.result_cache_bytes != nullptr) {
    instruments_.result_cache_bytes->Set(static_cast<int64_t>(cache_bytes_));
  }
}

void JobScheduler::PublishQueueDepthLocked() {
  if (instruments_.queue_depth != nullptr) {
    instruments_.queue_depth->Set(static_cast<int64_t>(live_queued_));
  }
}

void JobScheduler::PublishTenantGaugesLocked(TenantQueue& tq) {
  if (tq.queued_gauge != nullptr) {
    tq.queued_gauge->Set(static_cast<int64_t>(tq.queued));
    tq.running_gauge->Set(static_cast<int64_t>(tq.running));
  }
}

}  // namespace edgeshed::service
