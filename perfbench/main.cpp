// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench <workload> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: nav_gateway, explore_local, nav_three_tier, fleet_nav,
// fleet_ladder (see README.md). Output: `provenance`, `note` and `metric`
// detail lines, then a `RESULT {...}` JSON line that run.py turns into the
// final result line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/simd.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench "
               "<nav_gateway|explore_local|nav_three_tier|fleet_nav|fleet_ladder> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  RunArgs args;
  args.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(key, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 0);
    } else if (std::strcmp(key, "--seconds") == 0) {
      args.seconds = std::atof(value);
    } else if (std::strcmp(key, "--trace") == 0) {
      args.trace = std::atoi(value) != 0;
    } else {
      return usage();
    }
  }
  const bool mission = is_mission_workload(args.workload);
  if (!mission && !is_fleet_workload(args.workload)) return usage();
  if (args.seconds <= 0.0) return usage();

  std::printf("provenance build_type=%s compiler=%s simd=%s nproc=%u pool_threads=%d "
              "workload=%s seed=%llu seconds=%g mode=%s\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              lgv::simd::level_name(lgv::simd::active_level()),
              std::thread::hardware_concurrency(), kPoolThreads, args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? "traced(telemetry on+off, replay)" : "timed(telemetry on)");
  std::fflush(stdout);

  const RunResult r = mission ? run_mission_workload(args) : run_fleet_workload(args);
  for (const std::string& n : r.notes) std::printf("note %s\n", n.c_str());
  print_detail("metric", r.metrics);
  std::printf("RESULT %s\n", result_json(r.correct, r.attempted, r.failed, r.metrics).c_str());
  return 0;
}
