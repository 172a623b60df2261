#include "perception/gmapping.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "platform/calibration.h"

namespace lgv::perception {

namespace calib = platform::calib;

Gmapping::Gmapping(GmappingConfig config, Point2D map_origin, double width_m,
                   double height_m, uint64_t seed)
    : config_(config), matcher_(config.matcher), rng_(seed) {
  particles_.reserve(static_cast<size_t>(config_.particles));
  for (int i = 0; i < config_.particles; ++i) {
    Particle p;
    p.map = OccupancyGrid(map_origin, width_m, height_m, config_.map);
    p.rng = rng_.fork(static_cast<uint64_t>(i) + 1);
    particles_.push_back(std::move(p));
  }
  poses_.resize(particles_.size());
  log_weights_.assign(particles_.size(), 0.0);
  weights_.assign(particles_.size(), 1.0 / static_cast<double>(config_.particles));
}

void Gmapping::initialize(const Pose2D& start) {
  poses_.assign_all(particles_.size(), start);
  log_weights_.assign(particles_.size(), 0.0);
  weights_.assign(particles_.size(), 1.0 / static_cast<double>(particles_.size()));
  have_last_odom_ = false;
  neff_ = static_cast<double>(particles_.size());
}

SlamUpdateStats Gmapping::process(const msg::Odometry& odom, const msg::LaserScan& scan,
                                  platform::ExecutionContext& ctx) {
  SlamUpdateStats stats;

  Pose2D delta;  // motion since the previous update, in the old body frame
  if (have_last_odom_) {
    delta = last_odom_.between(odom.pose);
  }
  last_odom_ = odom.pose;

  const bool first_scan = !have_last_odom_;
  have_last_odom_ = true;

  std::atomic<size_t> beam_evals{0};
  std::atomic<size_t> cells_updated{0};
  std::atomic<size_t> field_cells{0};

  // The per-scan endpoint precomputation is pose-independent, so it is
  // hoisted out of the per-particle loop and shared by all M particles
  // (previously recomputed inside every match() call).
  PrecomputedScan pre;
  if (!first_scan && !particles_.empty()) {
    pre = precompute_scan(scan, matcher_.config().beam_stride,
                          particles_[0].map.frame().resolution);
  }

  // ---- Parallel per-particle phase (Fig. 6): motion sample, scanMatch,
  // weight, map integrate. Returns the cycles that particle cost.
  ctx.parallel_kernel(particles_.size(), [&](size_t i) -> double {
    Particle& p = particles_[i];
    // Motion model: apply the odometry delta corrupted by sampled noise.
    const double trans = std::hypot(delta.x, delta.y);
    const double rot = std::abs(delta.theta);
    Pose2D noisy = delta;
    noisy.x += p.rng.gaussian(0.0, config_.motion_noise_trans * trans +
                                       config_.motion_noise_mix * rot);
    noisy.y += p.rng.gaussian(0.0, config_.motion_noise_trans * trans * 0.5 +
                                       config_.motion_noise_mix * rot);
    noisy.theta = normalize_angle(
        noisy.theta + p.rng.gaussian(0.0, config_.motion_noise_rot * rot +
                                              config_.motion_noise_mix * trans));
    Pose2D pose = poses_.at(i).compose(noisy);

    size_t evals = 0;
    size_t rebuilt = 0;
    if (!first_scan) {
      // scanMatch refinement against this particle's own map, through its
      // likelihood field (synced incrementally from the map's changelog).
      rebuilt = p.field.sync(p.map);
      const MatchResult m = matcher_.match(p.field, pose, pre);
      evals = m.beam_evaluations;
      pose = m.pose;
      log_weights_[i] += std::log(m.score + 1e-3);
    }
    poses_.set(i, pose);
    // Integrate the scan into this particle's map.
    const size_t touched = p.map.integrate_scan(pose, scan);
    beam_evals.fetch_add(evals, std::memory_order_relaxed);
    cells_updated.fetch_add(touched, std::memory_order_relaxed);
    field_cells.fetch_add(rebuilt, std::memory_order_relaxed);

    return static_cast<double>(evals) * calib::kScanMatchCachedCyclesPerBeamEval +
           static_cast<double>(rebuilt) * calib::kFieldRebuildCyclesPerCell +
           static_cast<double>(touched) * calib::kMapUpdateCyclesPerCell;
  });

  stats.beam_evaluations = beam_evals.load();
  stats.map_cells_updated = cells_updated.load();
  stats.field_cells_rebuilt = field_cells.load();

  // ---- Sequential phase: updateTreeWeights + selective resampling.
  normalize_weights();
  neff_ = effective_sample_size({weights_.begin(), weights_.end()});
  stats.neff = neff_;

  ctx.serial_work(static_cast<double>(particles_.size()) *
                  calib::kResampleCyclesPerParticle);
  if (neff_ < config_.resample_threshold * static_cast<double>(particles_.size())) {
    resample();
    stats.resampled = true;
  }
  return stats;
}

void Gmapping::normalize_weights() {
  double max_log = -std::numeric_limits<double>::infinity();
  for (double lw : log_weights_) max_log = std::max(max_log, lw);
  double sum = 0.0;
  for (size_t i = 0; i < weights_.size(); ++i) {
    weights_[i] = std::exp(log_weights_[i] - max_log);
    sum += weights_[i];
  }
  if (sum <= 0.0) {
    weights_.assign(weights_.size(),
                    1.0 / static_cast<double>(weights_.size()));
    return;
  }
  for (double& w : weights_) w /= sum;
}

double Gmapping::effective_sample_size(const std::vector<double>& weights) {
  double sum_sq = 0.0;
  for (double w : weights) sum_sq += w * w;
  return sum_sq > 0.0 ? 1.0 / sum_sq : 0.0;
}

void Gmapping::resample() {
  // Low-variance (systematic) resampling.
  const size_t n = particles_.size();
  std::vector<Particle> next;
  PoseBlock next_poses;
  next.reserve(n);
  next_poses.reserve(n);
  const double step = 1.0 / static_cast<double>(n);
  double u = rng_.uniform(0.0, step);
  double cumulative = weights_[0];
  size_t i = 0;
  for (size_t k = 0; k < n; ++k) {
    const double target = u + static_cast<double>(k) * step;
    while (cumulative < target && i + 1 < n) {
      ++i;
      cumulative += weights_[i];
    }
    // O(1): the map, its changelog and the likelihood field share
    // copy-on-write blocks until one of the copies writes.
    Particle copy = particles_[i];
    copy.rng = rng_.fork(k + 0x7e5a);
    next.push_back(std::move(copy));
    next_poses.push_back(poses_.at(i));
  }
  particles_ = std::move(next);
  poses_ = std::move(next_poses);
  log_weights_.assign(n, 0.0);
  weights_.assign(n, step);
  neff_ = static_cast<double>(n);
}

size_t Gmapping::best_index() const {
  size_t best = 0;
  for (size_t i = 1; i < weights_.size(); ++i) {
    if (weights_[i] > weights_[best]) best = i;
  }
  return best;
}

std::vector<uint8_t> Gmapping::serialize_state(StateEncoding encoding) const {
  last_codec_stats_ = {};
  WireWriter w;
  w.put_varint(particles_.size());
  w.put_bool(have_last_odom_);
  w.put_double(last_odom_.x);
  w.put_double(last_odom_.y);
  w.put_double(last_odom_.theta);
  w.put_double(neff_);
  for (size_t pi = 0; pi < particles_.size(); ++pi) {
    const Particle& p = particles_[pi];
    w.put_double(poses_.x()[pi]);
    w.put_double(poses_.y()[pi]);
    w.put_double(poses_.theta()[pi]);
    w.put_double(log_weights_[pi]);
    w.put_double(weights_[pi]);

    if (encoding == StateEncoding::kFullRaw) {
      p.map.serialize(w, GridEncoding::kRaw);
      ++last_codec_stats_.grids_full;
      continue;
    }
    if (encoding == StateEncoding::kDelta) {
      // Delta only against the snapshot of the last *committed* migration
      // this map descends from; an aborted transfer never advanced the base,
      // so the receiver is guaranteed to hold whatever we encode against.
      const OccupancyGrid* base = nullptr;
      const auto it = committed_bases_.find(p.map.delta_base_version());
      if (it != committed_bases_.end() && p.map.can_delta_against(it->second)) {
        base = &it->second;
      }
      if (base == nullptr) {
        ++last_codec_stats_.fallback_no_base;
      } else if (2 * p.map.dirty_tiles_since(base->write_version()) >=
                 p.map.tile_count()) {
        // Most of the map was rewritten (the PR 1 changelog overflowed long
        // before this point) — a delta cannot win, skip encoding it.
        ++last_codec_stats_.fallback_overflow;
        base = nullptr;
      } else {
        WireWriter delta_w;
        p.map.serialize_delta(delta_w, *base);
        WireWriter full_w;
        p.map.serialize(full_w, GridEncoding::kRle);
        if (delta_w.size() < full_w.size()) {
          w.put_bytes(delta_w.buffer().data(), delta_w.size());
          ++last_codec_stats_.grids_delta;
          continue;
        }
        ++last_codec_stats_.fallback_larger;
        base = nullptr;
      }
    }
    p.map.serialize(w, GridEncoding::kRle);
    ++last_codec_stats_.grids_full;
  }
  last_codec_stats_.bytes = w.size();
  return w.take();
}

void Gmapping::restore_state(const std::vector<uint8_t>& bytes) {
  WireReader r(bytes);
  // Each particle record holds at least 5 doubles plus a map; validating the
  // count against the buffer before reserve() rejects a hostile varint that
  // would otherwise allocate unbounded memory.
  const size_t n = r.get_count(5 * sizeof(double));
  have_last_odom_ = r.get_bool();
  const double ox = r.get_double();
  const double oy = r.get_double();
  const double oth = r.get_double();
  last_odom_ = {ox, oy, oth};
  neff_ = r.get_double();

  // Delta records decode against this receiver's replica of the sender's
  // last committed state — found among our pre-restore particle maps (we
  // restored that committed transfer earlier) or our own retained bases.
  std::map<uint64_t, const OccupancyGrid*> replicas;
  for (const Particle& p : particles_) {
    replicas.emplace(p.map.write_version(), &p.map);
  }
  for (const auto& [version, map] : committed_bases_) {
    replicas.emplace(version, &map);
  }
  const OccupancyGrid::BaseLookup lookup =
      [&](uint64_t write_version) -> const OccupancyGrid* {
    const auto it = replicas.find(write_version);
    return it == replicas.end() ? nullptr : it->second;
  };

  std::vector<Particle> particles;
  PoseBlock poses;
  aligned_vector<double> log_weights;
  aligned_vector<double> weights;
  particles.reserve(n);
  poses.reserve(n);
  log_weights.reserve(n);
  weights.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Particle p;
    const double x = r.get_double();
    const double y = r.get_double();
    const double th = r.get_double();
    poses.push_back({x, y, th});
    log_weights.push_back(r.get_double());
    weights.push_back(r.get_double());
    p.map = OccupancyGrid::deserialize_any(r, lookup);
    p.rng = rng_.fork(i + 0xfee1);
    particles.push_back(std::move(p));
  }
  particles_ = std::move(particles);
  poses_ = std::move(poses);
  log_weights_ = std::move(log_weights);
  weights_ = std::move(weights);
  committed_bases_.clear();
}

void Gmapping::mark_migration_committed() {
  committed_bases_.clear();  // only the latest committed generation matters
  for (Particle& p : particles_) {
    p.map.mark_delta_base();
    committed_bases_.try_emplace(p.map.write_version(), p.map);
  }
}

Pose2D Gmapping::best_pose() const { return poses_.at(best_index()); }

const OccupancyGrid& Gmapping::best_map() const { return particles_[best_index()].map; }

}  // namespace lgv::perception
