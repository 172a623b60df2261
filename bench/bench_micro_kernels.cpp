// Wall-clock microbenchmarks (google-benchmark) of the real kernels backing
// the reproduction: scan matching, costmap updates, trajectory scoring,
// message serialization and the thread pool. These measure HOST performance —
// the paper-facing numbers (Figs. 9/10) use the platform cost models instead;
// this suite exists to keep the actual implementations honest (no
// accidentally quadratic kernels) and to profile optimization work.
//
// `--wallclock-json` switches to a self-contained A/B harness that times the
// two hand-vectorized kernels (scanMatch score, trajectory-rollout scoring)
// scalar-vs-SIMD with median-of-N steady-clock runs and writes
// BENCH_kernel_wallclock.json (validated and gated by
// tools/check_bench_regression; tools/run_kernel_bench.sh runs it locally).
// Without the flag it is a normal google-benchmark binary.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "bench_util.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "control/trajectory_rollout.h"
#include "msg/messages.h"
#include "perception/amcl.h"
#include "perception/costmap2d.h"
#include "perception/gmapping.h"
#include "perception/likelihood_field.h"
#include "perception/scan_matcher.h"
#include "planning/grid_search.h"
#include "ref_scan_scorer.h"
#include "sim/lidar.h"
#include "sim/scenario.h"

using namespace lgv;

namespace {

struct Fixture {
  sim::Scenario scenario = sim::make_lab_scenario();
  sim::Lidar lidar{sim::LidarConfig{}, 7};
  msg::LaserScan scan;
  perception::OccupancyGrid map;
  perception::Costmap2D costmap;
  msg::PathMsg path;

  Fixture()
      : map(perception::OccupancyGrid::from_binary(scenario.world.frame(),
                                                   scenario.world.grid())),
        costmap(scenario.world.frame().origin, scenario.world.width_m(),
                scenario.world.height_m()) {
    scan = lidar.scan(scenario.world, scenario.start, 0.0);
    costmap.set_static_map(map.to_msg(0.0));
    costmap.inflate();
    for (double t = 0.0; t <= 3.0; t += 0.25) {
      path.poses.emplace_back(scenario.start.x + t, scenario.start.y + 0.3 * t, 0.2);
    }
  }
};

Fixture& fixture() {
  static Fixture fx;
  return fx;
}

// BM_ScanMatchScore and BM_ScanMatchRefine time the brute-force reference
// scorer (tests/perception/ref_scan_scorer.h); their …Cached twins time the
// likelihood-field path missions run. The gate compares each pair's ratio.
void BM_ScanMatchScore(benchmark::State& state) {
  Fixture& fx = fixture();
  const perception::RefScanMatcher matcher;
  size_t evals = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        matcher.score(fx.map, fx.scenario.start, fx.scan, &evals));
  }
  state.SetItemsProcessed(static_cast<int64_t>(evals));
}
BENCHMARK(BM_ScanMatchScore);

void BM_ScanMatchScoreCached(benchmark::State& state) {
  Fixture& fx = fixture();
  perception::ScanMatcher matcher;
  perception::LikelihoodField field;
  field.sync(fx.map);
  const perception::PrecomputedScan pre = perception::precompute_scan(
      fx.scan, matcher.config().beam_stride, fx.map.frame().resolution);
  size_t evals = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        matcher.score(field, fx.scenario.start, pre, &evals));
  }
  state.SetItemsProcessed(static_cast<int64_t>(evals));
}
BENCHMARK(BM_ScanMatchScoreCached);

void BM_ScanMatchRefine(benchmark::State& state) {
  Fixture& fx = fixture();
  const perception::RefScanMatcher matcher;
  const Pose2D perturbed{fx.scenario.start.x + 0.08, fx.scenario.start.y - 0.05,
                         fx.scenario.start.theta + 0.04};
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.match(fx.map, perturbed, fx.scan));
  }
}
BENCHMARK(BM_ScanMatchRefine);

void BM_ScanMatchRefineCached(benchmark::State& state) {
  Fixture& fx = fixture();
  perception::ScanMatcher matcher;
  perception::LikelihoodField field;
  field.sync(fx.map);
  const Pose2D perturbed{fx.scenario.start.x + 0.08, fx.scenario.start.y - 0.05,
                         fx.scenario.start.theta + 0.04};
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.match(field, perturbed, fx.scan));
  }
}
BENCHMARK(BM_ScanMatchRefineCached);

void BM_LikelihoodFieldFullBuild(benchmark::State& state) {
  Fixture& fx = fixture();
  for (auto _ : state) {
    perception::LikelihoodField field;
    benchmark::DoNotOptimize(field.sync(fx.map));
  }
}
BENCHMARK(BM_LikelihoodFieldFullBuild);

// One SLAM-style cycle along a lab tour: integrate the next scan into a
// fresh-at-tour-start 0.1 m map, then catch the field up through the
// changelog. Only the sync is timed; each pass of the tour starts from an
// empty map so every scan flips real cells.
void BM_LikelihoodFieldIncrementalSync(benchmark::State& state) {
  Fixture& fx = fixture();
  const auto log = sim::record_scan_log(fx.scenario, 0.4, 0.2, 40);
  const auto fresh_map = [&] {
    return perception::OccupancyGrid(fx.scenario.world.frame().origin,
                                     fx.scenario.world.width_m(),
                                     fx.scenario.world.height_m());
  };
  perception::OccupancyGrid map = fresh_map();
  perception::LikelihoodField field;
  size_t rebuilt = 0;
  size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    if (i % log.size() == 0) {
      map = fresh_map();
      field = perception::LikelihoodField();
      field.sync(map);
    }
    const sim::ScanLogEntry& e = log[i++ % log.size()];
    map.integrate_scan(e.true_pose, e.scan);
    state.ResumeTiming();
    rebuilt += field.sync(map);
  }
  state.counters["cells_rebuilt"] =
      benchmark::Counter(static_cast<double>(rebuilt),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LikelihoodFieldIncrementalSync);

void BM_CostmapUpdate(benchmark::State& state) {
  Fixture& fx = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.costmap.update(fx.scenario.start, fx.scan));
  }
}
BENCHMARK(BM_CostmapUpdate);

// The exploration map → costmap edge: integrate one scan of a lab tour into a
// 0.1 m SLAM-style map, then load the map's message into the static layer.
// Only set_static_map is timed.
void BM_CostmapStaticMap(benchmark::State& state) {
  Fixture& fx = fixture();
  const auto log = sim::record_scan_log(fx.scenario, 0.4, 0.2, 40);
  perception::OccupancyGrid map(fx.scenario.world.frame().origin, fx.scenario.world.width_m(),
                                fx.scenario.world.height_m());
  perception::Costmap2D costmap(fx.scenario.world.frame().origin, fx.scenario.world.width_m(),
                                fx.scenario.world.height_m());
  size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const sim::ScanLogEntry& e = log[i++ % log.size()];
    map.integrate_scan(e.true_pose, e.scan);
    const msg::OccupancyGridMsg m = map.to_msg(0.0);
    state.ResumeTiming();
    costmap.set_static_map(m);
    benchmark::DoNotOptimize(costmap.static_layer().data().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CostmapStaticMap);

// Inflation alone: one full inflate() over the lab's static layer.
void BM_CostmapInflate(benchmark::State& state) {
  Fixture& fx = fixture();
  size_t processed = 0;
  for (auto _ : state) processed += fx.costmap.inflate();
  state.counters["cells"] = benchmark::Counter(static_cast<double>(processed),
                                               benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CostmapInflate);

void BM_TrajectoryRollout(benchmark::State& state) {
  Fixture& fx = fixture();
  control::RolloutConfig cfg;
  cfg.samples = static_cast<int>(state.range(0));
  control::TrajectoryRollout rollout(cfg);
  platform::ExecutionContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rollout.compute(fx.costmap, fx.path, fx.scenario.start,
                                             {0.2, 0.0}, 0.6, ctx));
    ctx.reset();
  }
}
BENCHMARK(BM_TrajectoryRollout)->Arg(200)->Arg(2000);

void BM_TrajectoryRolloutPooled(benchmark::State& state) {
  Fixture& fx = fixture();
  control::RolloutConfig cfg;
  cfg.samples = 2000;
  control::TrajectoryRollout rollout(cfg);
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  platform::ExecutionContext ctx(&pool, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rollout.compute(fx.costmap, fx.path, fx.scenario.start,
                                             {0.2, 0.0}, 0.6, ctx));
    ctx.reset();
  }
}
BENCHMARK(BM_TrajectoryRolloutPooled)->Arg(2)->Arg(4);

void BM_AStarPlan(benchmark::State& state) {
  Fixture& fx = fixture();
  const CellIndex start = fx.costmap.frame().world_to_cell(fx.scenario.start.position());
  const CellIndex goal = fx.costmap.frame().world_to_cell(fx.scenario.goal.position());
  for (auto _ : state) {
    benchmark::DoNotOptimize(planning::plan_on_costmap(fx.costmap, start, goal));
  }
}
BENCHMARK(BM_AStarPlan);

// Steady-state SLAM: one filter, warmed up on the first scans of a lab tour
// outside the timed loop; each iteration is one process() call on the rest
// of the tour. When the tour runs out the filter restarts from its warmed-up
// copy (untimed).
void BM_GmappingUpdate(benchmark::State& state) {
  perception::GmappingConfig cfg;
  cfg.particles = static_cast<int>(state.range(0));
  const auto log = sim::record_scan_log(fixture().scenario, 0.4, 0.2, 120);
  const size_t warmup = log.size() / 3;
  perception::Gmapping slam(cfg, {0, 0}, 12.0, 10.0, 3);
  slam.initialize(log[0].odom_pose);
  platform::ExecutionContext ctx;
  const auto process = [&](const sim::ScanLogEntry& e) {
    msg::Odometry odom;
    odom.pose = e.odom_pose;
    slam.process(odom, e.scan, ctx);
    ctx.reset();
  };
  for (size_t i = 0; i < warmup; ++i) process(log[i]);
  const perception::Gmapping warm = slam;
  size_t i = warmup;
  for (auto _ : state) {
    if (i == log.size()) {
      state.PauseTiming();
      slam = warm;
      i = warmup;
      state.ResumeTiming();
    }
    process(log[i++]);
    benchmark::DoNotOptimize(slam.best_pose());
  }
  state.counters["scans"] = static_cast<double>(log.size() - warmup);
}
BENCHMARK(BM_GmappingUpdate)->Arg(10)->Arg(30);

void BM_SerializeLaserScan(benchmark::State& state) {
  Fixture& fx = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(serialize_to_bytes(fx.scan));
  }
}
BENCHMARK(BM_SerializeLaserScan);

void BM_DeserializeLaserScan(benchmark::State& state) {
  const auto bytes = serialize_to_bytes(fixture().scan);
  for (auto _ : state) {
    benchmark::DoNotOptimize(deserialize_from_bytes<msg::LaserScan>(bytes));
  }
}
BENCHMARK(BM_DeserializeLaserScan);

void BM_ThreadPoolDispatch(benchmark::State& state) {
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    pool.parallel_for(256, [](size_t i) { benchmark::DoNotOptimize(i * i); });
  }
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(4);

// ---- wall-clock A/B harness (--wallclock-json) -----------------------------

struct WallKernelResult {
  std::string name;
  int iters = 0;
  double scalar_ns = 0.0;  ///< per call
  double simd_ns = 0.0;    ///< per call
  double speedup = 0.0;
  double rel_err = 0.0;    ///< |scalar − simd| / max(1, |scalar|) of a checksum
  bool agree = false;
};

/// Pins the dispatch level for one scope (one leg of an A/B timing).
struct ForcedLevel {
  explicit ForcedLevel(simd::Level level) { simd::force_level(level); }
  ~ForcedLevel() { simd::clear_forced_level(); }
};

/// scanMatch score loop: scalar reference vs the staged SIMD pipeline, pinned
/// via simd::force_level. The projection contract makes the two bit-identical,
/// so the checksum must match exactly.
WallKernelResult wallclock_scan_match(int runs, int iters) {
  Fixture& fx = fixture();
  perception::ScanMatcher matcher;
  perception::LikelihoodField field;
  field.sync(fx.map);
  const perception::PrecomputedScan pre = perception::precompute_scan(
      fx.scan, matcher.config().beam_stride, fx.map.frame().resolution);
  // A small deterministic pose orbit so branch history is realistic (the
  // refine loop never scores one pose repeatedly).
  const auto pose_at = [&](int i) {
    return Pose2D{fx.scenario.start.x + 0.01 * (i % 7),
                  fx.scenario.start.y - 0.008 * (i % 5),
                  fx.scenario.start.theta + 0.005 * (i % 9)};
  };
  const auto leg = [&](simd::Level level, double* checksum) {
    const ForcedLevel pin(level);
    const double s = lgv::bench::time_median(runs, [&] {
      double sum = 0.0;
      for (int i = 0; i < iters; ++i) {
        sum += matcher.score(field, pose_at(i), pre, nullptr);
      }
      benchmark::DoNotOptimize(sum);
      *checksum = sum;
    });
    return s * 1e9 / iters;
  };
  WallKernelResult r;
  r.name = "scan_match_score";
  r.iters = iters;
  double scalar_sum = 0.0, simd_sum = 0.0;
  r.scalar_ns = leg(simd::Level::kScalar, &scalar_sum);
  r.simd_ns = leg(simd::detected_level(), &simd_sum);
  r.speedup = r.simd_ns > 0.0 ? r.scalar_ns / r.simd_ns : 0.0;
  r.rel_err = std::abs(scalar_sum - simd_sum) / std::max(1.0, std::abs(scalar_sum));
  r.agree = r.rel_err <= 1e-9;
  return r;
}

/// Trajectory-rollout scoring: the scalar per-candidate loop vs the
/// vectorized forward simulation, pinned via simd::force_level. Positions
/// agree to rounding only (rotation recurrence), so the decision checksum
/// gets an epsilon.
WallKernelResult wallclock_score_trajectory(int runs, int iters) {
  Fixture& fx = fixture();
  control::RolloutConfig cfg;
  cfg.samples = 2000;
  const auto leg = [&](simd::Level level, double* checksum) {
    const ForcedLevel pin(level);
    control::TrajectoryRollout rollout(cfg);
    platform::ExecutionContext ctx;
    const double s = lgv::bench::time_median(runs, [&] {
      double sum = 0.0;
      for (int i = 0; i < iters; ++i) {
        const control::RolloutDecision d = rollout.compute(
            fx.costmap, fx.path, fx.scenario.start, {0.2, 0.0}, 0.6, ctx);
        ctx.reset();
        sum += d.stats.best_score + d.command.linear + d.command.angular;
      }
      benchmark::DoNotOptimize(sum);
      *checksum = sum;
    });
    return s * 1e9 / iters;
  };
  WallKernelResult r;
  r.name = "score_trajectory";
  r.iters = iters;
  double scalar_sum = 0.0, simd_sum = 0.0;
  r.scalar_ns = leg(simd::Level::kScalar, &scalar_sum);
  r.simd_ns = leg(simd::detected_level(), &simd_sum);
  r.speedup = r.simd_ns > 0.0 ? r.scalar_ns / r.simd_ns : 0.0;
  r.rel_err = std::abs(scalar_sum - simd_sum) / std::max(1.0, std::abs(scalar_sum));
  r.agree = r.rel_err <= 1e-6;
  return r;
}

int run_wallclock_json(int runs, bool smoke) {
  lgv::bench::print_title("Kernel wall-clock: scalar vs SIMD (median of runs)");
  const simd::Level level = simd::detected_level();
  std::printf("simd level: %s, runs per leg: %d%s\n", simd::level_name(level), runs,
              smoke ? " (smoke)" : "");
  if (level == simd::Level::kScalar) {
    std::printf("no vector unit in this build/CPU; nothing to compare\n");
  }

  std::vector<WallKernelResult> results;
  results.push_back(wallclock_scan_match(runs, smoke ? 400 : 4000));
  results.push_back(wallclock_score_trajectory(runs, smoke ? 4 : 24));

  std::printf("\n%-22s %12s %12s %9s %10s %7s\n", "kernel", "scalar", "simd",
              "speedup", "rel_err", "agree");
  for (const WallKernelResult& r : results) {
    std::printf("%-22s %10.0fns %10.0fns %8.2fx %10.1e %7s\n", r.name.c_str(),
                r.scalar_ns, r.simd_ns, r.speedup, r.rel_err,
                r.agree ? "yes" : "NO");
  }

  const char* json_path = "BENCH_kernel_wallclock.json";
  {
    std::ofstream f(json_path);
    f << "{\n  \"bench\": \"kernel_wallclock\",\n";
    f << "  \"simd_level\": \"" << simd::level_name(level) << "\",\n";
    f << "  \"runs\": " << runs << ",\n";
    f << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
    f << "  \"kernels\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      const WallKernelResult& r = results[i];
      f << "    {\"name\": \"" << r.name << "\", \"iters\": " << r.iters
        << ", \"scalar_ns_per_call\": " << r.scalar_ns
        << ", \"simd_ns_per_call\": " << r.simd_ns
        << ", \"speedup\": " << r.speedup << ", \"rel_err\": " << r.rel_err
        << ", \"agree\": " << (r.agree ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
  }
  std::printf("\nwrote %s\n", json_path);

  bool ok = true;
  for (const WallKernelResult& r : results) ok = ok && r.agree;
  if (!ok) std::printf("SCALAR/SIMD DISAGREEMENT\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool wallclock = false, smoke = false;
  int runs = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--wallclock-json") == 0) wallclock = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--wallclock-runs=", 17) == 0) {
      runs = std::max(1, std::atoi(argv[i] + 17));
    }
  }
  if (wallclock) return run_wallclock_json(runs, smoke);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
