// Path Tracking: Trajectory Rollout / Dynamic Window local planner [48], [49]
// with the paper's Fig. 5 parallelization. The node samples M candidate
// (v, ω) commands inside the dynamic window, forward-simulates each into a
// trajectory, scores it against the costmap and the global path, discards
// colliding ones, and outputs the velocity of the best trajectory. M (the
// `samples` knob) is the Fig. 10 sweep parameter; scoring is embarrassingly
// parallel over trajectories and runs through ExecutionContext.
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "common/geometry.h"
#include "msg/messages.h"
#include "perception/costmap2d.h"
#include "platform/execution_context.h"

namespace lgv::control {

struct RolloutConfig {
  int samples = 200;          ///< number of simulated trajectories (Fig. 10 knob)
  double sim_time = 1.6;      ///< forward-simulation horizon (s)
  double sim_dt = 0.1;        ///< integration step (s)
  double max_angular = 1.8;   ///< rad/s sampling bound
  double max_linear_accel = 0.5;   ///< dynamic-window accel bound (m/s²)
  double max_angular_accel = 3.0;  ///< rad/s²
  double min_linear = 0.0;
  /// Carrot distance along the (pruned) global path the local planner chases.
  /// Chasing the global goal directly would pull the base into walls the
  /// path routes around.
  double lookahead_m = 1.2;
  /// Length of the pruned path window used for the path-proximity term.
  double path_window_m = 2.5;

  // Cost-function weights (proximity to goal / global path / obstacles, plus
  // oscillation suppression — §V's scoring characteristics). The obstacle
  // term uses the MEAN costmap cell cost along the trajectory so clearance
  // trades off against progress instead of vetoing all motion near inflation.
  double w_goal = 1.0;
  double w_path = 0.6;
  double w_obstacle = 0.008;
  double w_heading = 0.3;
  double w_oscillation = 0.15;

  /// Score candidates under dynamic scheduling (Schedule::kDynamic).
  /// Colliding trajectories early-exit the forward simulation, so the static
  /// Fig. 5 partition strands workers whose chunk happens to hold the cheap
  /// candidates; dynamic grabbing rebalances them. Scores are written
  /// per-candidate either way — the decision is schedule-independent. False
  /// selects the static reference partition.
  bool dynamic_schedule = true;
};

struct RolloutStats {
  size_t simulated_steps = 0;   ///< total forward-simulation steps
  size_t trajectories = 0;
  size_t discarded = 0;         ///< collided / illegal trajectories
  double best_score = 0.0;
  /// Per-chunk cycle imbalance of the scoring region (longest chunk over the
  /// even-split ideal; 1.0 = balanced). Compares the schedules: static
  /// partitions inherit the candidate grid's collision pattern, dynamic
  /// grabbing flattens it.
  double chunk_imbalance = 1.0;
};

struct RolloutDecision {
  Velocity2D command;
  bool feasible = false;  ///< false when every trajectory collided
  RolloutStats stats;
};

class TrajectoryRollout {
 public:
  explicit TrajectoryRollout(RolloutConfig config = {}) : config_(config) {}

  const RolloutConfig& config() const { return config_; }
  void set_samples(int samples) { config_.samples = samples; }
  /// Runtime angular-rate bound from the Controller (see
  /// Controller::angular_cap); clamped to the configured mechanical limit.
  void set_angular_limit(double max_angular) {
    angular_limit_ = std::min(max_angular, config_.max_angular);
  }

  /// Pick the best velocity toward the path/goal under `max_linear` — the
  /// cap the Controller derives from Eq. 2c.
  RolloutDecision compute(const perception::Costmap2D& costmap,
                          const msg::PathMsg& path, const Pose2D& pose,
                          const Velocity2D& current, double max_linear,
                          platform::ExecutionContext& ctx);

 private:
  struct Candidate {
    double v;
    double w;
  };
  std::vector<Candidate> sample_window(const Velocity2D& current, double max_linear) const;

  RolloutConfig config_;
  double angular_limit_ = std::numeric_limits<double>::infinity();
  Velocity2D last_command_;
};

}  // namespace lgv::control
