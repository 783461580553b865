// Shed benchmark binary: runs one workload against an in-process
// GraphStore + JobScheduler + RpcServer over one RpcClient connection and
// prints its results, the last line being one JSON object.
//
//   shedbench --workload cold_shed|warm_shed|mutate_shed --seed N
//             --seconds S --trace 0|1 [--min-ops N] [--setup-reps N]
//             [--out-dir DIR]
//
// --trace 0 prints the raw samples of one end-to-end segment, which run.py
// pools over several processes into the end-to-end metrics. --trace 1
// prints the per-layer metrics.
// Set EDGESHED_THREADS to fix the library's default thread count
// (run.py sets 2). See README.md for the metric definitions.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: shedbench --workload cold_shed|warm_shed|mutate_shed "
               "--seed N --seconds S --trace 0|1 [--min-ops N] "
               "[--setup-reps N] [--out-dir DIR]\n");
}

}  // namespace

int main(int argc, char** argv) {
  shedbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--min-ops") {
      args.min_ops = std::atoi(value.c_str());
    } else if (flag == "--setup-reps") {
      args.setup_reps = std::atoi(value.c_str());
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  const shedbench::Workload* workload = shedbench::FindWorkload(args.workload);
  if (workload == nullptr || args.seconds <= 0 || args.setup_reps < 1 ||
      args.min_ops < 1) {
    Usage();
    return 2;
  }

  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  args.work_dir = args.out_dir + "/work-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  auto result = shedbench::RunWorkload(*workload, args);
  std::filesystem::remove_all(args.work_dir, ec);
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(),
                 result.status().ToString().c_str());
    return 1;
  }
  for (const std::string& note : result->notes) {
    std::printf("# note: %s\n", note.c_str());
  }
  if (!args.trace) {
    std::printf("%s\n", result->segment
                             .Json(result->attempted, result->failed,
                                   result->notes)
                             .c_str());
    return 0;
  }
  const bool correct = result->failed == 0;
  if (edgeshed::Status s = result->report.WriteJson(
          stem + ".json", args.workload, args.seed, args.trace, correct,
          result->attempted, result->failed, result->notes);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
  }
  if (!result->trace_json.empty()) {
    std::ofstream(stem + "-spans.json", std::ios::trunc) << result->trace_json;
  }
  result->report.Print(args.workload, correct, result->attempted,
                       result->failed);
  return 0;
}
