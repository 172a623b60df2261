#include "perception/amcl.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "platform/calibration.h"

namespace lgv::perception {

namespace calib = platform::calib;

Amcl::Amcl(AmclConfig config, const OccupancyGrid* map, uint64_t seed)
    : config_(config), map_(map), rng_(seed) {}

void Amcl::initialize(const Pose2D& start, double spread_xy, double spread_theta) {
  poses_.clear();
  weights_.clear();
  const int n = std::min(config_.max_particles,
                         std::max(config_.min_particles, config_.min_particles * 2));
  for (int i = 0; i < n; ++i) {
    // Draw θ, then y, then x: the order the pre-SoA emplace_back evaluated its
    // arguments in, kept so seeded runs reproduce the same particle clouds.
    const double dtheta = rng_.gaussian(0.0, spread_theta);
    const double dy = rng_.gaussian(0.0, spread_xy);
    const double dx = rng_.gaussian(0.0, spread_xy);
    poses_.push_back({start.x + dx, start.y + dy, start.theta + dtheta});
  }
  weights_.assign(poses_.size(), 1.0 / static_cast<double>(poses_.size()));
  have_last_odom_ = false;
}

void Amcl::initialize_global(size_t count) {
  poses_.clear();
  const auto& f = map_->frame();
  const double w = map_->width() * f.resolution;
  const double h = map_->height() * f.resolution;
  while (poses_.size() < count) {
    const Point2D p{f.origin.x + rng_.uniform(0.0, w), f.origin.y + rng_.uniform(0.0, h)};
    if (map_->is_free(f.world_to_cell(p))) {
      poses_.push_back({p.x, p.y, rng_.uniform(-3.14159, 3.14159)});
    }
  }
  weights_.assign(poses_.size(), 1.0 / static_cast<double>(poses_.size()));
  have_last_odom_ = false;
}

double Amcl::measurement_weight(const Pose2D& pose, const PrecomputedScan& pre,
                                size_t* evals) const {
  double log_w = 0.0;
  const double cos_t = std::cos(pose.theta), sin_t = std::sin(pose.theta);
  const GridFrame& frame = field_.frame();
  *evals += pre.size();
  for (size_t i = 0; i < pre.size(); ++i) {
    const Point2D end{pose.x + cos_t * pre.end_x[i] - sin_t * pre.end_y[i],
                      pose.y + sin_t * pre.end_x[i] + cos_t * pre.end_y[i]};
    const CellIndex c = frame.world_to_cell(end);
    // Same capped min-d² the brute-force model computes, from the field's
    // occupancy mask instead of nine map probes.
    const double d2_min =
        std::min(9.0 * config_.sigma_hit * config_.sigma_hit,
                 field_.min_obstacle_d2(c, end));
    const double p_hit =
        std::exp(-d2_min / (2.0 * config_.sigma_hit * config_.sigma_hit));
    log_w += std::log(config_.z_hit * p_hit + config_.z_rand + 1e-6);
  }
  return log_w;
}

AmclUpdateStats Amcl::update(const msg::Odometry& odom, const msg::LaserScan& scan,
                             platform::ExecutionContext& ctx) {
  AmclUpdateStats stats;
  Pose2D delta;
  if (have_last_odom_) delta = last_odom_.between(odom.pose);
  last_odom_ = odom.pose;
  const bool first = !have_last_odom_;
  have_last_odom_ = true;

  const double trans = std::hypot(delta.x, delta.y);
  const double rot = std::abs(delta.theta);

  // The per-scan endpoint precomputation and field sync are shared by every
  // particle weighed below; sync is a no-op while the map is unchanged.
  size_t field_cells = 0;
  PrecomputedScan pre;
  if (!first) {
    field_cells = field_.sync(*map_);
    pre = precompute_scan(scan, config_.beam_stride, map_->frame().resolution);
  }

  // Motion sampling is inherently sequential over one RNG; it is cheap
  // (Table II: ~1%), so AMCL stays single-threaded as in the paper.
  std::vector<double> log_weights(poses_.size(), 0.0);
  size_t evals = 0;
  for (size_t i = 0; i < poses_.size(); ++i) {
    Pose2D noisy = delta;
    noisy.x += rng_.gaussian(0.0, config_.motion_noise_trans * trans + 1e-4);
    noisy.y += rng_.gaussian(0.0, config_.motion_noise_trans * trans * 0.5 + 1e-4);
    noisy.theta = normalize_angle(
        noisy.theta + rng_.gaussian(0.0, config_.motion_noise_rot * rot + 1e-4));
    const Pose2D moved = poses_.at(i).compose(noisy);
    poses_.set(i, moved);
    if (!first) {
      log_weights[i] = measurement_weight(moved, pre, &evals);
    }
  }
  stats.beam_evaluations = evals;
  ctx.serial_work(static_cast<double>(evals) * calib::kAmclCachedCyclesPerBeamEval +
                  static_cast<double>(field_cells) * calib::kFieldRebuildCyclesPerCell +
                  static_cast<double>(poses_.size()) * calib::kAmclMotionCyclesPerParticle);

  // Normalize.
  const double max_log = *std::max_element(log_weights.begin(), log_weights.end());
  double sum = 0.0;
  for (size_t i = 0; i < poses_.size(); ++i) {
    weights_[i] *= std::exp(log_weights[i] - max_log);
    sum += weights_[i];
  }
  if (sum <= 1e-300) {
    weights_.assign(poses_.size(), 1.0 / static_cast<double>(poses_.size()));
  } else {
    for (double& w : weights_) w /= sum;
  }

  double sum_sq = 0.0;
  for (double w : weights_) sum_sq += w * w;
  stats.neff = sum_sq > 0 ? 1.0 / sum_sq : 0.0;

  if (stats.neff < config_.resample_threshold * static_cast<double>(poses_.size())) {
    resample_adaptive();
    stats.resampled = true;
  }
  stats.particle_count = particle_count();
  return stats;
}

void Amcl::resample_adaptive() {
  // KLD-style size adaptation: count occupied (x, y, θ) bins, target
  // kld_k × bins particles within [min, max].
  std::set<std::tuple<int, int, int>> bins;
  for (size_t i = 0; i < poses_.size(); ++i) {
    bins.insert(
        {static_cast<int>(std::floor(poses_.x()[i] / config_.kld_bin_xy)),
         static_cast<int>(std::floor(poses_.y()[i] / config_.kld_bin_xy)),
         static_cast<int>(std::floor(poses_.theta()[i] / config_.kld_bin_theta))});
  }
  const int target = std::clamp(
      static_cast<int>(config_.kld_k * static_cast<double>(bins.size())),
      config_.min_particles, config_.max_particles);

  PoseBlock next;
  next.reserve(static_cast<size_t>(target));
  const double step = 1.0 / static_cast<double>(target);
  double u = rng_.uniform(0.0, step);
  double cumulative = weights_[0];
  size_t i = 0;
  for (int k = 0; k < target; ++k) {
    const double t = u + static_cast<double>(k) * step;
    while (cumulative < t && i + 1 < poses_.size()) {
      ++i;
      cumulative += weights_[i];
    }
    next.push_back(poses_.at(i));
  }
  poses_ = std::move(next);
  weights_.assign(poses_.size(), 1.0 / static_cast<double>(poses_.size()));
}

std::vector<uint8_t> Amcl::serialize_state() const {
  WireWriter w;
  w.put_varint(poses_.size());
  w.put_bool(have_last_odom_);
  w.put_double(last_odom_.x);
  w.put_double(last_odom_.y);
  w.put_double(last_odom_.theta);
  for (size_t i = 0; i < poses_.size(); ++i) {
    w.put_double(poses_.x()[i]);
    w.put_double(poses_.y()[i]);
    w.put_double(poses_.theta()[i]);
  }
  w.put_repeated_double(weights_);
  return w.take();
}

void Amcl::restore_state(const std::vector<uint8_t>& bytes) {
  WireReader r(bytes);
  // Validate the particle count against the buffer before reserving — the
  // varint is attacker-controlled on the wire (same guard as Gmapping).
  const size_t n = r.get_count(3 * sizeof(double));
  have_last_odom_ = r.get_bool();
  const double ox = r.get_double();
  const double oy = r.get_double();
  const double oth = r.get_double();
  last_odom_ = {ox, oy, oth};
  PoseBlock poses;
  poses.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = r.get_double();
    const double y = r.get_double();
    const double th = r.get_double();
    poses.push_back({x, y, th});
  }
  const std::vector<double> weights = r.get_repeated_double();
  if (weights.size() != poses.size()) {
    throw std::out_of_range("amcl state: weight count mismatch");
  }
  poses_ = std::move(poses);
  weights_.assign(weights.begin(), weights.end());
}

Pose2D Amcl::estimate() const {
  double x = 0.0, y = 0.0, sc = 0.0, ss = 0.0;
  for (size_t i = 0; i < poses_.size(); ++i) {
    x += weights_[i] * poses_.x()[i];
    y += weights_[i] * poses_.y()[i];
    sc += weights_[i] * std::cos(poses_.theta()[i]);
    ss += weights_[i] * std::sin(poses_.theta()[i]);
  }
  return {x, y, std::atan2(ss, sc)};
}

}  // namespace lgv::perception
