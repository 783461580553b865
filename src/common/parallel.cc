#include "common/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <system_error>
#include <thread>

#include <pthread.h>
#if defined(__linux__)
#include <sched.h>
#endif

namespace edgeshed {

int DefaultThreadCount() {
  // Re-read the environment on every call (a getenv is cheap next to a
  // parallel region) so tests and long-lived services can change
  // EDGESHED_THREADS at runtime.
  const char* env = std::getenv("EDGESHED_THREADS");
  if (env != nullptr) {
    int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace internal {
namespace {

/// The process-wide worker pool behind ParallelFor (DESIGN.md §8,
/// "Threading model"). Workers are started lazily, up to the largest helper
/// count any region asked for and at most one fewer than the hardware
/// threads (the caller is the last one), and live until the process exits.
/// A region is a queue entry that idle workers join until it has the
/// helpers it asked for; its caller runs it too and, once done, withdraws
/// the entry and waits only for the workers that did join.
class WorkerPool {
 public:
  WorkerPool() {
    const unsigned hw = std::thread::hardware_concurrency();
    max_workers_ = hw > 1 ? hw - 1 : 1;
#if defined(__linux__)
    // The CPUs the workers are spread over: the process's allowed set,
    // starting after the CPU of the thread that first needed the pool.
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
      }
    }
    const auto home = std::find(cpus_.begin(), cpus_.end(), sched_getcpu());
    if (home != cpus_.end()) {
      first_cpu_ = static_cast<size_t>(home - cpus_.begin()) + 1;
    }
#endif
  }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void Run(uint64_t helpers, void (*run)(void*), void* context) {
    Region region;
    region.run = run;
    region.context = context;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Grow(std::min<uint64_t>(helpers, max_workers_));
      region.wanted = std::min<uint64_t>(helpers, workers_.size());
      if (region.wanted > 0) {
        open_.push_back(&region);
        for (uint64_t i = 0; i < region.wanted; ++i) work_.notify_one();
      }
    }
    run(context);
    std::unique_lock<std::mutex> lock(mu_);
    if (region.wanted > 0) {
      open_.erase(std::find(open_.begin(), open_.end(), &region));
      region.wanted = 0;
    }
    region.done.wait(lock, [&region] { return region.active == 0; });
  }

 private:
  struct Region {
    void (*run)(void*) = nullptr;
    void* context = nullptr;
    uint64_t wanted = 0;  // helpers still to enlist
    uint64_t active = 0;  // helpers inside run()
    std::condition_variable done;
  };

  /// Starts workers until there are `count`. Caller holds mu_. A worker
  /// that cannot be started just leaves the pool smaller: every region
  /// still completes on its caller.
  void Grow(uint64_t count) {
    while (workers_.size() < count) {
      try {
        workers_.emplace_back([this, index = workers_.size()] { Work(index); });
      } catch (const std::system_error&) {
        max_workers_ = workers_.size();
        return;
      }
    }
  }

  void Work(size_t index) {
    Place(index);
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_.wait(lock, [this] { return !open_.empty(); });
      Region* region = open_.front();
      if (--region->wanted == 0) open_.pop_front();
      ++region->active;
      lock.unlock();
      region->run(region->context);
      lock.lock();
      // Notified under the lock: the caller cannot return (and free the
      // region) before this worker lets go of mu_.
      if (--region->active == 0) region->done.notify_one();
    }
  }

  /// Moves worker `index` onto its own CPU once, then restores the affinity
  /// it inherited: a fresh thread otherwise starts on its creator's CPU, and
  /// in some processes the workers stay stacked there region after region,
  /// which then run serially (DESIGN.md §8). The worker is not pinned; the
  /// scheduler may move it later.
  void Place(size_t index) {
#if defined(__linux__)
    if (cpus_.size() < 2) return;
    cpu_set_t inherited;
    if (pthread_getaffinity_np(pthread_self(), sizeof(inherited), &inherited) !=
        0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[(first_cpu_ + index) % cpus_.size()], &one);
    if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) != 0) return;
    sched_yield();
    pthread_setaffinity_np(pthread_self(), sizeof(inherited), &inherited);
#else
    (void)index;
#endif
  }

  std::mutex mu_;
  // Guarded by mu_.
  std::condition_variable work_;
  std::deque<Region*> open_;          // regions still enlisting helpers
  std::vector<std::thread> workers_;  // never joined: the pool is immortal
  uint64_t max_workers_ = 1;
#if defined(__linux__)
  std::vector<int> cpus_;
  size_t first_cpu_ = 0;
#endif
};

// Leaked on purpose: workers may still wait on the pool during exit.
WorkerPool* pool_instance = nullptr;
// A forked child's copy of its parent's pool, kept reachable.
WorkerPool* abandoned_pool = nullptr;

WorkerPool& Pool() {
  static const bool started = [] {
    pool_instance = new WorkerPool();
    // A forked child has none of the parent's workers. It abandons its copy
    // of the parent's pool, whatever state that copy is in, and starts an
    // empty one that grows like the parent's did: a child that runs
    // parallel regions (bench_ingest times each op in one) gets its own
    // workers.
    pthread_atfork(nullptr, nullptr, [] {
      abandoned_pool = pool_instance;
      pool_instance = new WorkerPool();
    });
    return true;
  }();
  (void)started;
  return *pool_instance;
}

}  // namespace

void RunOnPool(uint64_t helpers, void (*run)(void*), void* context) {
  Pool().Run(helpers, run, context);
}

}  // namespace internal
}  // namespace edgeshed
