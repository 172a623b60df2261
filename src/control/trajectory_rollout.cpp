#include "control/trajectory_rollout.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/arena.h"
#include "common/simd.h"
#include "common/soa.h"
#include "control/rollout_kernels.h"
#include "platform/calibration.h"

namespace lgv::control {

namespace calib = platform::calib;

std::vector<TrajectoryRollout::Candidate> TrajectoryRollout::sample_window(
    const Velocity2D& current, double max_linear) const {
  // Dynamic window: velocities reachable within one control period.
  const double v_lo = std::max(config_.min_linear,
                               current.linear - config_.max_linear_accel * config_.sim_dt * 4);
  const double v_hi = std::min(max_linear,
                               current.linear + config_.max_linear_accel * config_.sim_dt * 4);
  const double w_cap = std::min(config_.max_angular, angular_limit_);
  const double w_lo = std::max(-w_cap,
                               current.angular - config_.max_angular_accel * config_.sim_dt * 4);
  const double w_hi = std::min(w_cap,
                               current.angular + config_.max_angular_accel * config_.sim_dt * 4);

  // Arrange `samples` candidates on a v×w grid, denser in ω.
  const int n = std::max(1, config_.samples);
  int n_w = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n) * 2.0)));
  int n_v = std::max(1, n / std::max(1, n_w));
  while (n_v * n_w < n) ++n_w;

  std::vector<Candidate> out;
  out.reserve(static_cast<size_t>(n));
  for (int iv = 0; iv < n_v && static_cast<int>(out.size()) < n; ++iv) {
    const double v = n_v == 1 ? std::max(v_lo, std::min(v_hi, max_linear))
                              : v_lo + (v_hi - v_lo) * iv / (n_v - 1);
    for (int iw = 0; iw < n_w && static_cast<int>(out.size()) < n; ++iw) {
      const double w = n_w == 1 ? 0.0 : w_lo + (w_hi - w_lo) * iw / (n_w - 1);
      out.push_back({std::max(0.0, v), w});
    }
  }
  return out;
}

RolloutDecision TrajectoryRollout::compute(const perception::Costmap2D& costmap,
                                           const msg::PathMsg& path, const Pose2D& pose,
                                           const Velocity2D& current, double max_linear,
                                           platform::ExecutionContext& ctx) {
  RolloutDecision out;
  if (path.poses.empty()) return out;

  // Prune the path to the segment ahead of the robot and pick the carrot:
  // the waypoint ~lookahead_m further along. Scoring chases the carrot, not
  // the global goal — the goal may sit behind a wall the path routes around.
  size_t nearest = 0;
  double nearest_d = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < path.poses.size(); ++i) {
    const double d = distance(path.poses[i].position(), pose.position());
    if (d < nearest_d) {
      nearest_d = d;
      nearest = i;
    }
  }
  size_t carrot_idx = nearest;
  double along = 0.0;
  while (carrot_idx + 1 < path.poses.size() && along < config_.lookahead_m) {
    along += distance(path.poses[carrot_idx].position(),
                      path.poses[carrot_idx + 1].position());
    ++carrot_idx;
  }
  const Point2D goal = path.poses[carrot_idx].position();
  // Window of waypoints for the path-proximity term.
  std::vector<Point2D> window;
  double window_len = 0.0;
  for (size_t i = nearest; i < path.poses.size(); ++i) {
    window.push_back(path.poses[i].position());
    if (i > nearest) window_len += distance(window[window.size() - 2], window.back());
    if (window_len > config_.path_window_m) break;
  }

  const std::vector<Candidate> candidates = sample_window(current, max_linear);
  out.stats.trajectories = candidates.size();

  const int steps = std::max(1, static_cast<int>(config_.sim_time / config_.sim_dt));
  std::vector<double> scores(candidates.size(),
                             -std::numeric_limits<double>::infinity());
  std::atomic<size_t> total_steps{0};
  std::atomic<size_t> discarded{0};

  // Scoring epilogue shared by the scalar and vectorized paths: everything
  // after the forward simulation (path/goal/heading/oscillation terms) from
  // the candidate's final pose and accumulated obstacle cost.
  const auto score_of = [&](const Candidate& c, const Pose2D& p,
                            double obstacle_cost, int executed) -> double {
    // Proximity to the upcoming stretch of the global path.
    double path_dist = std::numeric_limits<double>::infinity();
    for (const Point2D& wp : window) {
      path_dist = std::min(path_dist, distance(wp, p.position()));
    }
    const double goal_dist = distance(goal, p.position());
    const double bearing = std::atan2(goal.y - p.y, goal.x - p.x);
    const double heading_err = std::abs(angle_diff(bearing, p.theta));
    const double oscillation =
        std::abs(c.w - last_command_.angular) + (c.v < 1e-3 ? 0.2 : 0.0);
    const double mean_obstacle =
        obstacle_cost / static_cast<double>(std::max(1, executed));
    return -config_.w_goal * goal_dist - config_.w_path * path_dist -
           config_.w_obstacle * mean_obstacle - config_.w_heading * heading_err -
           config_.w_oscillation * oscillation +
           0.05 * c.v;  // slight preference for progress
  };

  const platform::Schedule schedule = config_.dynamic_schedule
                                          ? platform::Schedule::kDynamic
                                          : platform::Schedule::kStatic;
  // The vectorized forward simulation runs whenever a SIMD level is active
  // (see common/simd.h); the scalar loop runs in builds without the kernel
  // TUs, under LGV_SIMD=scalar or simd::force_level(kScalar). Positions agree
  // with the scalar loop to rounding only (the kernel advances heading by a
  // rotation recurrence), but per-candidate results never depend on how the
  // candidate range is blocked or scheduled.
  const simd::Level level = simd::active_level();
  const bool vectorized = level != simd::Level::kScalar && !candidates.empty();

  // ---- Fig. 5: parallel scoreTrajectory over the candidate set.
  const size_t regions_before = ctx.profile().regions.size();
  if (vectorized) {
    // SoA candidate arrays for the kernel's contiguous lane loads.
    const size_t n = candidates.size();
    aligned_vector<double> cand_v(n), cand_w(n);
    for (size_t i = 0; i < n; ++i) {
      cand_v[i] = candidates[i].v;
      cand_w[i] = candidates[i].w;
    }
    const GridFrame& cframe = costmap.frame();
    CostmapView view;
    view.cells = costmap.master().data().data();
    view.width = costmap.width();
    view.height = costmap.height();
    view.origin_x = cframe.origin.x;
    view.origin_y = cframe.origin.y;
    view.resolution = cframe.resolution;
    view.out_of_bounds = perception::kCostLethal;

    ctx.parallel_kernel_blocks(n, [&](size_t begin, size_t end) -> double {
      const size_t m = end - begin;
      Arena& arena = thread_scratch();
      const Arena::Scope scope(arena);
      RolloutSimArgs args;
      args.cand_v = cand_v.data();
      args.cand_w = cand_w.data();
      args.pose_x = pose.x;
      args.pose_y = pose.y;
      args.pose_theta = pose.theta;
      args.dt = config_.sim_dt;
      args.steps = steps;
      args.collision_cost = perception::kCostInscribed;
      args.costmap = view;
      args.out_x = arena.alloc_array<double>(m);
      args.out_y = arena.alloc_array<double>(m);
      args.out_theta = arena.alloc_array<double>(m);
      args.out_obstacle = arena.alloc_array<double>(m);
      args.out_executed = arena.alloc_array<int32_t>(m);
      args.out_illegal = arena.alloc_array<uint8_t>(m);
      rollout_simulate(level, args, begin, end);

      double cycles = 0.0;
      size_t block_steps = 0, block_discarded = 0;
      for (size_t k = 0; k < m; ++k) {
        const int executed = static_cast<int>(args.out_executed[k]);
        cycles += static_cast<double>(executed) * calib::kRolloutCyclesPerStep +
                  calib::kRolloutCyclesPerTrajectory;
        block_steps += static_cast<size_t>(executed);
        if (args.out_illegal[k] != 0) {
          ++block_discarded;
          continue;
        }
        const Pose2D p{args.out_x[k], args.out_y[k], args.out_theta[k]};
        scores[begin + k] =
            score_of(candidates[begin + k], p, args.out_obstacle[k], executed);
      }
      total_steps.fetch_add(block_steps, std::memory_order_relaxed);
      discarded.fetch_add(block_discarded, std::memory_order_relaxed);
      return cycles;
    },
    schedule);
  } else {
    ctx.parallel_kernel(candidates.size(), [&](size_t i) -> double {
      const Candidate c = candidates[i];
      Pose2D p = pose;
      double obstacle_cost = 0.0;
      bool illegal = false;
      int executed = 0;
      for (int s = 0; s < steps; ++s) {
        ++executed;
        // Unicycle forward simulation.
        p.x += c.v * std::cos(p.theta) * config_.sim_dt;
        p.y += c.v * std::sin(p.theta) * config_.sim_dt;
        p.theta = normalize_angle(p.theta + c.w * config_.sim_dt);
        const uint8_t cost = costmap.cost_at_world(p.position());
        if (cost >= perception::kCostInscribed) {  // lethal or unknown footprint
          illegal = true;
          break;
        }
        obstacle_cost += static_cast<double>(cost);
      }
      total_steps.fetch_add(static_cast<size_t>(executed), std::memory_order_relaxed);

      if (illegal) {
        discarded.fetch_add(1, std::memory_order_relaxed);
      } else {
        scores[i] = score_of(c, p, obstacle_cost, executed);
      }
      return static_cast<double>(executed) * calib::kRolloutCyclesPerStep +
             calib::kRolloutCyclesPerTrajectory;
    },
    schedule);
  }

  out.stats.simulated_steps = total_steps.load();
  out.stats.discarded = discarded.load();
  if (ctx.profile().regions.size() > regions_before) {
    out.stats.chunk_imbalance = ctx.profile().regions.back().imbalance();
  }

  // Sequential argmax (cheap).
  size_t best = candidates.size();
  double best_score = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (scores[i] > best_score) {
      best_score = scores[i];
      best = i;
    }
  }
  if (best == candidates.size() ||
      best_score == -std::numeric_limits<double>::infinity()) {
    // Everything collided: rotate in place toward the path.
    out.command = {0.0, 0.6};
    out.feasible = false;
    return out;
  }
  out.command = {candidates[best].v, candidates[best].w};
  out.feasible = true;
  out.stats.best_score = best_score;
  last_command_ = out.command;
  return out;
}

}  // namespace lgv::control
