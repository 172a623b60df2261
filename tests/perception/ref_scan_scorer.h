// The brute-force scan scorers the likelihood-field path replaced, kept as
// the oracle of the equivalence tests and as the reference leg of
// bench_micro_kernels' BM_ScanMatchScore / BM_ScanMatchRefine: per beam, the
// endpoint's trig and a probe of its 3×3 occupancy neighborhood, for both
// GMapping's scan matcher (score + hill climb) and AMCL's measurement model.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>

#include "common/geometry.h"
#include "msg/messages.h"
#include "perception/amcl.h"
#include "perception/occupancy_grid.h"
#include "perception/scan_matcher.h"

namespace lgv::perception {

class RefScanMatcher {
 public:
  explicit RefScanMatcher(ScanMatcherConfig config = {}) : config_(config) {}

  /// Score of `pose` against `map`; higher is better. Increments
  /// *evaluations by the number of beams scored.
  double score(const OccupancyGrid& map, const Pose2D& pose, const msg::LaserScan& scan,
               size_t* evaluations) const {
    double total = 0.0;
    size_t evals = 0;
    const double res = map.frame().resolution;
    for (size_t i = 0; i < scan.ranges.size(); i += static_cast<size_t>(config_.beam_stride)) {
      const double r = static_cast<double>(scan.ranges[i]);
      if (r > scan.range_max || r < scan.range_min) continue;
      ++evals;
      const double angle = pose.theta + scan.angle_of(i);
      const double cos_a = std::cos(angle), sin_a = std::sin(angle);
      const Point2D end{pose.x + cos_a * r, pose.y + sin_a * r};
      // A valid hit has free space just before the endpoint.
      const Point2D before{pose.x + cos_a * (r - res), pose.y + sin_a * (r - res)};
      const CellIndex end_cell = map.frame().world_to_cell(end);
      const CellIndex before_cell = map.frame().world_to_cell(before);

      // Search the 3×3 neighborhood of the endpoint for the best occupied cell.
      double best = -1.0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const CellIndex c{end_cell.x + dx, end_cell.y + dy};
          if (!map.is_occupied(c)) continue;
          const Point2D cw = map.frame().cell_to_world(c);
          const double d = distance(cw, end);
          const double s = std::exp(-d * d / (2.0 * config_.sigma * config_.sigma));
          best = std::max(best, s);
        }
      }
      if (best > 0.0 && !map.is_occupied(before_cell)) {
        total += best;
      } else if (map.is_unknown(end_cell)) {
        // Unknown terrain is neutral-slightly-positive so exploration scans
        // don't get repelled from frontier poses.
        total += 0.05;
      }
    }
    if (evaluations != nullptr) *evaluations += evals;
    return total;
  }

  /// Greedy local refinement around `initial` (Fig. 6's per-particle
  /// scanMatch) over score(map, …).
  MatchResult match(const OccupancyGrid& map, const Pose2D& initial,
                    const msg::LaserScan& scan) const {
    MatchResult result;
    result.pose = initial;
    result.score = score(map, initial, scan, &result.beam_evaluations);

    double step_xy = config_.search_step_xy;
    double step_th = config_.search_step_theta;
    for (int iter = 0; iter < config_.refinement_iterations; ++iter) {
      bool improved = true;
      while (improved) {
        improved = false;
        const std::array<Pose2D, 6> candidates = {
            Pose2D{result.pose.x + step_xy, result.pose.y, result.pose.theta},
            Pose2D{result.pose.x - step_xy, result.pose.y, result.pose.theta},
            Pose2D{result.pose.x, result.pose.y + step_xy, result.pose.theta},
            Pose2D{result.pose.x, result.pose.y - step_xy, result.pose.theta},
            Pose2D{result.pose.x, result.pose.y, result.pose.theta + step_th},
            Pose2D{result.pose.x, result.pose.y, result.pose.theta - step_th},
        };
        for (const Pose2D& cand : candidates) {
          const double s = score(map, cand, scan, &result.beam_evaluations);
          if (s > result.score + 1e-9) {
            result.score = s;
            result.pose = cand;
            improved = true;
          }
        }
      }
      step_xy *= 0.5;
      step_th *= 0.5;
    }
    return result;
  }

 private:
  ScanMatcherConfig config_;
};

/// AMCL's brute-force measurement model: the log-likelihood of `scan` at
/// `pose` against `map`. Increments *evals by the number of beams used.
inline double ref_amcl_measurement_weight(const AmclConfig& config, const OccupancyGrid& map,
                                          const Pose2D& pose, const msg::LaserScan& scan,
                                          size_t* evals) {
  double log_w = 0.0;
  for (size_t i = 0; i < scan.ranges.size(); i += static_cast<size_t>(config.beam_stride)) {
    const double r = static_cast<double>(scan.ranges[i]);
    if (r > scan.range_max || r < scan.range_min) continue;
    ++(*evals);
    const double angle = pose.theta + scan.angle_of(i);
    const Point2D end{pose.x + std::cos(angle) * r, pose.y + std::sin(angle) * r};
    const CellIndex c = map.frame().world_to_cell(end);
    // Likelihood-field style: closest occupied cell in the 3×3 neighborhood.
    double d2_min = 9.0 * config.sigma_hit * config.sigma_hit;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const CellIndex cc{c.x + dx, c.y + dy};
        if (!map.is_occupied(cc)) continue;
        const double d = distance(map.frame().cell_to_world(cc), end);
        d2_min = std::min(d2_min, d * d);
      }
    }
    const double p_hit =
        std::exp(-d2_min / (2.0 * config.sigma_hit * config.sigma_hit));
    log_w += std::log(config.z_hit * p_hit + config.z_rand + 1e-6);
  }
  return log_w;
}

}  // namespace lgv::perception
