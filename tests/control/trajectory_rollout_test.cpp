#include "control/trajectory_rollout.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "perception/occupancy_grid.h"
#include "sim/world.h"

namespace lgv::control {
namespace {

/// Pins the dispatch level for one scope (the scalar leg of an A/B check).
struct ForcedLevel {
  explicit ForcedLevel(simd::Level level) { simd::force_level(level); }
  ~ForcedLevel() { simd::clear_forced_level(); }
};

perception::Costmap2D open_costmap(double size = 10.0) {
  sim::World w(size, size);
  perception::Costmap2D cm({0, 0}, size, size);
  cm.set_static_map(perception::OccupancyGrid::from_binary(w.frame(), w.grid()).to_msg(0.0));
  cm.inflate();
  return cm;
}

msg::PathMsg straight_path(double y, double x0, double x1) {
  msg::PathMsg p;
  for (double x = x0; x <= x1; x += 0.25) p.poses.emplace_back(x, y, 0.0);
  return p;
}

TEST(Rollout, DrivesTowardGoalInOpenSpace) {
  perception::Costmap2D cm = open_costmap();
  TrajectoryRollout rollout;
  platform::ExecutionContext ctx;
  const RolloutDecision d = rollout.compute(cm, straight_path(5.0, 1.0, 9.0),
                                            {1.0, 5.0, 0.0}, {0.2, 0.0}, 0.8, ctx);
  ASSERT_TRUE(d.feasible);
  EXPECT_GT(d.command.linear, 0.1);
  EXPECT_NEAR(d.command.angular, 0.0, 0.5);
}

TEST(Rollout, RespectsVelocityCap) {
  perception::Costmap2D cm = open_costmap();
  TrajectoryRollout rollout;
  platform::ExecutionContext ctx;
  for (double cap : {0.1, 0.3, 0.6}) {
    const RolloutDecision d = rollout.compute(cm, straight_path(5.0, 1.0, 9.0),
                                              {1.0, 5.0, 0.0}, {cap, 0.0}, cap, ctx);
    ASSERT_TRUE(d.feasible);
    EXPECT_LE(d.command.linear, cap + 1e-9) << "cap " << cap;
    ctx.reset();
  }
}

TEST(Rollout, AvoidsObstacleAhead) {
  sim::World w(10.0, 10.0);
  w.add_box({3.0, 4.4}, {3.6, 5.6});  // block directly ahead
  perception::Costmap2D cm({0, 0}, 10.0, 10.0);
  cm.set_static_map(perception::OccupancyGrid::from_binary(w.frame(), w.grid()).to_msg(0.0));
  cm.inflate();
  TrajectoryRollout rollout;
  platform::ExecutionContext ctx;
  const RolloutDecision d = rollout.compute(cm, straight_path(5.0, 1.0, 9.0),
                                            {2.2, 5.0, 0.0}, {0.4, 0.0}, 0.6, ctx);
  ASSERT_TRUE(d.feasible);
  // Must steer, not plow straight at 0 angular velocity.
  EXPECT_GT(std::abs(d.command.angular), 0.05);
}

TEST(Rollout, InfeasibleWhenBoxedIn) {
  sim::World w(10.0, 10.0);
  // A tight cell around the robot: ~0.3 m of free interior, so any forward
  // simulation at the dynamic window's minimum speed collides.
  w.add_box({4.5, 4.5}, {5.5, 4.85});
  w.add_box({4.5, 5.15}, {5.5, 5.5});
  w.add_box({4.5, 4.5}, {4.85, 5.5});
  w.add_box({5.15, 4.5}, {5.5, 5.5});
  perception::Costmap2D cm({0, 0}, 10.0, 10.0);
  cm.set_static_map(perception::OccupancyGrid::from_binary(w.frame(), w.grid()).to_msg(0.0));
  cm.inflate();
  TrajectoryRollout rollout;
  platform::ExecutionContext ctx;
  const RolloutDecision d = rollout.compute(cm, straight_path(5.0, 1.0, 9.0),
                                            {5.0, 5.0, 0.0}, {0.3, 0.0}, 0.6, ctx);
  EXPECT_FALSE(d.feasible);
  EXPECT_DOUBLE_EQ(d.command.linear, 0.0);  // recovery rotation
  EXPECT_GT(d.stats.discarded, 0u);
}

TEST(Rollout, SampleCountControlsWork) {
  perception::Costmap2D cm = open_costmap();
  const msg::PathMsg path = straight_path(5.0, 1.0, 9.0);
  auto cycles_for = [&](int samples) {
    RolloutConfig cfg;
    cfg.samples = samples;
    TrajectoryRollout r(cfg);
    platform::ExecutionContext ctx;
    r.compute(cm, path, {1.0, 5.0, 0.0}, {0.2, 0.0}, 0.6, ctx);
    return ctx.profile().total_cycles();
  };
  const double c200 = cycles_for(200);
  const double c2000 = cycles_for(2000);
  // Work scales roughly linearly with the number of trajectories (Fig. 10).
  EXPECT_GT(c2000, 6.0 * c200);
  EXPECT_LT(c2000, 14.0 * c200);
}

TEST(Rollout, ParallelMatchesSerialDecision) {
  perception::Costmap2D cm = open_costmap();
  const msg::PathMsg path = straight_path(5.0, 1.0, 9.0);
  ThreadPool pool(4);
  TrajectoryRollout serial_r, parallel_r;
  platform::ExecutionContext ser(nullptr, 1);
  platform::ExecutionContext par(&pool, 4);
  const RolloutDecision a =
      serial_r.compute(cm, path, {1.0, 5.0, 0.0}, {0.2, 0.0}, 0.6, ser);
  const RolloutDecision b =
      parallel_r.compute(cm, path, {1.0, 5.0, 0.0}, {0.2, 0.0}, 0.6, par);
  // Fig. 5's parallelization is a pure scheduling change.
  EXPECT_DOUBLE_EQ(a.command.linear, b.command.linear);
  EXPECT_DOUBLE_EQ(a.command.angular, b.command.angular);
  EXPECT_EQ(a.stats.trajectories, b.stats.trajectories);
  EXPECT_DOUBLE_EQ(ser.profile().total_cycles(), par.profile().total_cycles());
}

TEST(Rollout, EmptyPathGivesNoCommand) {
  perception::Costmap2D cm = open_costmap();
  TrajectoryRollout rollout;
  platform::ExecutionContext ctx;
  const RolloutDecision d =
      rollout.compute(cm, msg::PathMsg{}, {1.0, 5.0, 0.0}, {0.2, 0.0}, 0.6, ctx);
  EXPECT_FALSE(d.feasible);
  EXPECT_DOUBLE_EQ(d.command.linear, 0.0);
}

TEST(Rollout, StatsCountTrajectoriesAndSteps) {
  perception::Costmap2D cm = open_costmap();
  RolloutConfig cfg;
  cfg.samples = 100;
  TrajectoryRollout rollout(cfg);
  platform::ExecutionContext ctx;
  const RolloutDecision d = rollout.compute(cm, straight_path(5.0, 1.0, 9.0),
                                            {1.0, 5.0, 0.0}, {0.2, 0.0}, 0.6, ctx);
  EXPECT_EQ(d.stats.trajectories, 100u);
  EXPECT_GT(d.stats.simulated_steps, 500u);
}

TEST(Rollout, DynamicScheduleMatchesStaticDecision) {
  perception::Costmap2D cm = open_costmap();
  const msg::PathMsg path = straight_path(5.0, 1.0, 9.0);
  ThreadPool pool(4);
  RolloutConfig static_cfg;
  static_cfg.dynamic_schedule = false;
  RolloutConfig dynamic_cfg;
  dynamic_cfg.dynamic_schedule = true;
  TrajectoryRollout static_r(static_cfg), dynamic_r(dynamic_cfg);
  platform::ExecutionContext sctx(&pool, 4);
  platform::ExecutionContext dctx(&pool, 4);
  const RolloutDecision a =
      static_r.compute(cm, path, {1.0, 5.0, 0.0}, {0.2, 0.0}, 0.6, sctx);
  const RolloutDecision b =
      dynamic_r.compute(cm, path, {1.0, 5.0, 0.0}, {0.2, 0.0}, 0.6, dctx);
  // Scheduling never changes the decision, only how chunks map to threads.
  EXPECT_DOUBLE_EQ(a.command.linear, b.command.linear);
  EXPECT_DOUBLE_EQ(a.command.angular, b.command.angular);
  EXPECT_DOUBLE_EQ(a.stats.best_score, b.stats.best_score);
  EXPECT_EQ(a.stats.trajectories, b.stats.trajectories);
}

TEST(Rollout, ReportsChunkImbalance) {
  // Obstacle ahead: early-exit trajectories make chunk costs uneven, which is
  // exactly what the imbalance stat measures.
  sim::World w(10.0, 10.0);
  w.add_box({3.0, 4.4}, {3.6, 5.6});
  perception::Costmap2D cm({0, 0}, 10.0, 10.0);
  cm.set_static_map(perception::OccupancyGrid::from_binary(w.frame(), w.grid()).to_msg(0.0));
  cm.inflate();
  ThreadPool pool(4);
  for (const bool dynamic : {false, true}) {
    RolloutConfig cfg;
    cfg.dynamic_schedule = dynamic;
    TrajectoryRollout rollout(cfg);
    platform::ExecutionContext ctx(&pool, 4);
    const RolloutDecision d = rollout.compute(cm, straight_path(5.0, 1.0, 9.0),
                                              {2.2, 5.0, 0.0}, {0.4, 0.0}, 0.6, ctx);
    EXPECT_GE(d.stats.chunk_imbalance, 1.0) << "dynamic=" << dynamic;
    EXPECT_TRUE(ctx.profile().regions.back().dynamic == dynamic);
  }
}

TEST(Rollout, SimdMatchesScalarReferenceDecision) {
  if (simd::active_level() == simd::Level::kScalar) {
    GTEST_SKIP() << "no vector unit active; both paths are the scalar one";
  }
  // Open space and an obstacle scene: the vectorized kernel must pick the
  // same trajectory as the scalar reference, with scores diverging only by
  // rounding (vectorized rotation recurrence vs per-step libm trig).
  sim::World obstacle_world(10.0, 10.0);
  obstacle_world.add_box({3.0, 4.4}, {3.6, 5.6});
  perception::Costmap2D obstacle_cm({0, 0}, 10.0, 10.0);
  obstacle_cm.set_static_map(perception::OccupancyGrid::from_binary(
                                 obstacle_world.frame(), obstacle_world.grid())
                                 .to_msg(0.0));
  obstacle_cm.inflate();
  const perception::Costmap2D open_cm = open_costmap();
  const msg::PathMsg path = straight_path(5.0, 1.0, 9.0);

  const perception::Costmap2D* scenes[] = {&open_cm, &obstacle_cm};
  for (const perception::Costmap2D* cm : scenes) {
    TrajectoryRollout scalar_r, simd_r;
    platform::ExecutionContext sctx, vctx;
    RolloutDecision a;
    {
      const ForcedLevel pin(simd::Level::kScalar);
      a = scalar_r.compute(*cm, path, {2.2, 5.0, 0.0}, {0.4, 0.0}, 0.6, sctx);
    }
    const RolloutDecision b =
        simd_r.compute(*cm, path, {2.2, 5.0, 0.0}, {0.4, 0.0}, 0.6, vctx);
    EXPECT_EQ(a.feasible, b.feasible);
    // Same winning candidate → its (v, w) are generated identically.
    EXPECT_DOUBLE_EQ(a.command.linear, b.command.linear);
    EXPECT_DOUBLE_EQ(a.command.angular, b.command.angular);
    EXPECT_NEAR(a.stats.best_score, b.stats.best_score,
                std::abs(a.stats.best_score) * 1e-9 + 1e-9);
    EXPECT_EQ(a.stats.trajectories, b.stats.trajectories);
    // The modeled cost is identical: the SIMD level changes machine time only.
    EXPECT_DOUBLE_EQ(sctx.profile().total_cycles(), vctx.profile().total_cycles());
  }
}

TEST(Rollout, SimdDecisionInvariantAcrossSchedules) {
  if (simd::active_level() == simd::Level::kScalar) {
    GTEST_SKIP() << "no vector unit active";
  }
  // Within the vectorized mode, threading and chunking must not change even
  // the last bit: block tails are padded and dead lanes frozen so per-item
  // results are independent of where the block boundaries fall.
  perception::Costmap2D cm = open_costmap();
  const msg::PathMsg path = straight_path(5.0, 1.0, 9.0);
  ThreadPool pool(4);
  RolloutDecision reference;
  bool have_reference = false;
  for (const bool dynamic : {false, true}) {
    for (const int threads : {1, 2, 4}) {
      RolloutConfig cfg;
      cfg.dynamic_schedule = dynamic;
      TrajectoryRollout rollout(cfg);
      platform::ExecutionContext ctx(threads > 1 ? &pool : nullptr, threads);
      const RolloutDecision d =
          rollout.compute(cm, path, {1.0, 5.0, 0.0}, {0.2, 0.0}, 0.6, ctx);
      if (!have_reference) {
        reference = d;
        have_reference = true;
        continue;
      }
      EXPECT_DOUBLE_EQ(d.command.linear, reference.command.linear)
          << "dynamic=" << dynamic << " threads=" << threads;
      EXPECT_DOUBLE_EQ(d.command.angular, reference.command.angular);
      EXPECT_DOUBLE_EQ(d.stats.best_score, reference.stats.best_score);
      EXPECT_EQ(d.stats.simulated_steps, reference.stats.simulated_steps);
      EXPECT_EQ(d.stats.discarded, reference.stats.discarded);
    }
  }
}

}  // namespace
}  // namespace lgv::control
