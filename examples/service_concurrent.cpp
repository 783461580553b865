// Service layer demo: many tenants sharing one shedding server.
//
// Spins up the src/service/ stack — a GraphStore with a deliberately tiny
// byte budget (so evictions happen), a JobScheduler worker pool, and a
// MetricsRegistry — then hammers it from several client threads submitting
// overlapping job batches. Shows result-cache dedup, LRU eviction with
// transparent reload, a deadline expiring in the queue, and the final
// metrics snapshot.
//
// Usage:
//   service_concurrent [--clients=4] [--workers=2] [--budget_kb=256]
//                      [--scale=0.3]

#include <cstdio>
#include <iostream>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "eval/flags.h"
#include "obs/metrics.h"
#include "service/dataset_registry.h"
#include "service/graph_store.h"
#include "service/job_scheduler.h"

using namespace edgeshed;

int main(int argc, char** argv) {
  static constexpr eval::FlagSpec kFlags[] = {
      {"clients", eval::FlagType::kInt},
      {"scale", eval::FlagType::kDouble},
      {"budget_kb", eval::FlagType::kInt},
      {"workers", eval::FlagType::kInt}};
  const eval::Flags flags = eval::ParseFlagsOrExit(argc, argv, kFlags);
  const int clients = static_cast<int>(flags.GetInt("clients", 4));
  const double scale = flags.GetDouble("scale", 0.3);

  obs::MetricsRegistry metrics;

  // A budget this small cannot hold both surrogates at once: serving the
  // batches below forces LRU evictions and transparent reloads.
  service::GraphStoreOptions store_options;
  store_options.byte_budget =
      static_cast<uint64_t>(flags.GetInt("budget_kb", 256)) << 10;
  service::GraphStore store(store_options, &metrics);
  graph::DatasetOptions dataset_options;
  dataset_options.scale = scale;
  if (Status s = service::RegisterSurrogateDatasets(store, dataset_options);
      !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }

  service::JobSchedulerOptions scheduler_options;
  scheduler_options.workers = static_cast<int>(flags.GetInt("workers", 2));
  service::JobScheduler scheduler(&store, &metrics, scheduler_options);

  // Every client submits the same sweep — methods x p x two datasets — so
  // all but the first submission of each spec dedups against the result
  // cache or coalesces onto the in-flight job.
  std::vector<std::thread> client_threads;
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&scheduler, c] {
      std::vector<service::JobId> ids;
      for (const char* dataset : {"grqc", "hepph"}) {
        for (const char* method : {"crr", "bm2"}) {
          for (double p : {0.3, 0.6}) {
            auto id = scheduler.Submit({dataset, method, p, /*seed=*/7});
            if (id.ok()) ids.push_back(*id);
          }
        }
      }
      size_t done = 0;
      for (service::JobId id : ids) {
        if (scheduler.Wait(id).ok()) ++done;
      }
      std::printf("client %d: %zu/%zu jobs done\n", c, done, ids.size());
    });
  }
  for (std::thread& t : client_threads) t.join();

  // A job whose deadline already passed is cancelled at dispatch instead of
  // occupying a worker.
  service::JobSpec stale{"enron", "crr", 0.5, 42,
                         std::chrono::milliseconds(1)};
  auto stale_id = scheduler.Submit(stale);
  if (stale_id.ok()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    auto outcome = scheduler.Wait(*stale_id);
    std::printf("stale-deadline job: %s\n",
                outcome.ok() ? "completed (dispatched before expiry)"
                             : outcome.status().ToString().c_str());
  }

  scheduler.Shutdown();
  std::printf("\n--- metrics snapshot ---\n%s",
              metrics.TextSnapshot().c_str());
  return 0;
}
