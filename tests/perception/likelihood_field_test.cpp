// Tests for the likelihood-field scan-match cache: score equivalence against
// the brute-force reference scorer on randomized maps and poses, incremental
// sync against full rebuild, and the derived-state lifecycle across particle
// copies and map migration.
#include "perception/likelihood_field.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/serialization.h"
#include "perception/amcl.h"
#include "perception/scan_matcher.h"
#include "sim/lidar.h"
#include "sim/world.h"

namespace lgv::perception {
namespace {

/// A world with a few deterministic-random boxes, mapped by lidar scans from
/// random free poses — produces occupied, free, and unknown regions.
struct RandomMapFixture {
  explicit RandomMapFixture(uint64_t seed) : rng(seed) {
    world = std::make_unique<sim::World>(10.0, 10.0);
    world->add_outer_walls(0.2);
    for (int i = 0; i < 4; ++i) {
      const double x = rng.uniform(1.5, 7.5);
      const double y = rng.uniform(1.5, 7.5);
      world->add_box({x, y}, {x + rng.uniform(0.4, 1.2), y + rng.uniform(0.4, 1.2)});
    }
    sim::LidarConfig lc;
    lc.range_noise_sigma = 0.0;
    lidar = std::make_unique<sim::Lidar>(lc, seed ^ 0x11d);

    OccupancyGridConfig cfg;
    cfg.resolution = 0.1;
    map = std::make_unique<OccupancyGrid>(Point2D{0, 0}, 10.0, 10.0, cfg);
    for (int i = 0; i < 6; ++i) {
      const Pose2D p = random_free_pose();
      map->integrate_scan(p, lidar->scan(*world, p, 0.0));
    }
  }

  Pose2D random_free_pose() {
    while (true) {
      const Pose2D p{rng.uniform(0.6, 9.4), rng.uniform(0.6, 9.4),
                     rng.uniform(-3.1, 3.1)};
      if (!world->grid().at(world->frame().world_to_cell(p.position()))) return p;
    }
  }

  Rng rng;
  std::unique_ptr<sim::World> world;
  std::unique_ptr<sim::Lidar> lidar;
  std::unique_ptr<OccupancyGrid> map;
};

TEST(LikelihoodField, EntriesMirrorMapClassification) {
  RandomMapFixture fx(7);
  LikelihoodField field;
  field.sync(*fx.map);
  ASSERT_TRUE(field.in_sync_with(*fx.map));
  // Every cell (pad ring included) must agree with the map's own predicates.
  for (int y = -1; y <= fx.map->height(); ++y) {
    for (int x = -1; x <= fx.map->width(); ++x) {
      const CellIndex c{x, y};
      ASSERT_EQ(field.occupied(c), fx.map->is_occupied(c)) << x << "," << y;
      ASSERT_EQ(field.unknown(c), fx.map->is_unknown(c)) << x << "," << y;
      bool any = false;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          any = any || fx.map->is_occupied({x + dx, y + dy});
        }
      }
      ASSERT_EQ(field.has_obstacle_near(c), any) << x << "," << y;
    }
  }
  // Far outside the pad ring: unknown, no obstacles.
  EXPECT_TRUE(field.unknown({-5, -5}));
  EXPECT_FALSE(field.has_obstacle_near({-5, 1000}));
}

TEST(LikelihoodField, MinObstacleD2MatchesBruteForce) {
  RandomMapFixture fx(11);
  LikelihoodField field;
  field.sync(*fx.map);
  for (int trial = 0; trial < 200; ++trial) {
    const Point2D p{fx.rng.uniform(-0.5, 10.5), fx.rng.uniform(-0.5, 10.5)};
    const CellIndex c = fx.map->frame().world_to_cell(p);
    double expected = std::numeric_limits<double>::infinity();
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const CellIndex n{c.x + dx, c.y + dy};
        if (!fx.map->is_occupied(n)) continue;
        const Point2D cw = fx.map->frame().cell_to_world(n);
        expected = std::min(expected,
                            (cw.x - p.x) * (cw.x - p.x) + (cw.y - p.y) * (cw.y - p.y));
      }
    }
    EXPECT_EQ(field.min_obstacle_d2(c, p), expected) << trial;
  }
}

TEST(LikelihoodField, ScoreMatchesBruteForceOnRandomizedMapsAndPoses) {
  for (uint64_t seed : {3u, 19u, 42u}) {
    RandomMapFixture fx(seed);
    LikelihoodField field;
    field.sync(*fx.map);
    ScanMatcher matcher;
    for (int trial = 0; trial < 30; ++trial) {
      const Pose2D scan_pose = fx.random_free_pose();
      const msg::LaserScan scan = fx.lidar->scan(*fx.world, scan_pose, 0.0);
      const PrecomputedScan scan_pre = precompute_scan(
          scan, matcher.config().beam_stride, fx.map->frame().resolution);
      // Score both at the scan pose and at random perturbations of it.
      for (int k = 0; k < 4; ++k) {
        const Pose2D pose{scan_pose.x + fx.rng.gaussian(0.0, 0.1),
                          scan_pose.y + fx.rng.gaussian(0.0, 0.1),
                          scan_pose.theta + fx.rng.gaussian(0.0, 0.05)};
        size_t brute_evals = 0, cached_evals = 0;
        const double brute = matcher.score(*fx.map, pose, scan, &brute_evals);
        const double cached = matcher.score(field, pose, scan_pre, &cached_evals);
        EXPECT_EQ(brute_evals, cached_evals);
        EXPECT_NEAR(brute, cached, 1e-9 * std::max(1.0, std::abs(brute)))
            << "seed " << seed << " trial " << trial << " k " << k;
      }
    }
  }
}

TEST(LikelihoodField, MatchSelectsSamePoseAsBruteForce) {
  for (uint64_t seed : {5u, 23u}) {
    RandomMapFixture fx(seed);
    LikelihoodField field;
    field.sync(*fx.map);
    ScanMatcher matcher;
    for (int trial = 0; trial < 10; ++trial) {
      const Pose2D truth = fx.random_free_pose();
      const msg::LaserScan scan = fx.lidar->scan(*fx.world, truth, 0.0);
      const Pose2D perturbed{truth.x + fx.rng.gaussian(0.0, 0.06),
                             truth.y + fx.rng.gaussian(0.0, 0.06),
                             truth.theta + fx.rng.gaussian(0.0, 0.03)};
      const MatchResult brute = matcher.match(*fx.map, perturbed, scan);
      const MatchResult cached = matcher.match(field, perturbed, scan);
      // Candidate poses are generated identically on both paths, so equal
      // selection means bit-equal poses.
      EXPECT_EQ(brute.pose, cached.pose) << "seed " << seed << " trial " << trial;
      EXPECT_EQ(brute.beam_evaluations, cached.beam_evaluations);
      EXPECT_FALSE(brute.used_likelihood_field);
      EXPECT_TRUE(cached.used_likelihood_field);
      EXPECT_NEAR(brute.score, cached.score,
                  1e-9 * std::max(1.0, std::abs(brute.score)));
    }
  }
}

TEST(LikelihoodField, IncrementalSyncEqualsFullRebuild) {
  RandomMapFixture fx(29);
  LikelihoodField incremental;
  incremental.sync(*fx.map);
  const size_t full_cells = static_cast<size_t>(fx.map->width() + 2) *
                            static_cast<size_t>(fx.map->height() + 2);
  for (int step = 0; step < 5; ++step) {
    const Pose2D p = fx.random_free_pose();
    const msg::LaserScan scan = fx.lidar->scan(*fx.world, p, 0.0);
    // A scan over fresh territory may flip more cells than the changelog
    // holds — that legitimately falls back to a full rebuild. Integrating the
    // same scan twice makes the second pass flip almost nothing, which must
    // take the incremental path.
    fx.map->integrate_scan(p, scan);
    incremental.sync(*fx.map);
    fx.map->integrate_scan(p, scan);
    const size_t rebuilt = incremental.sync(*fx.map);
    EXPECT_LT(rebuilt, full_cells) << "step " << step;
    LikelihoodField fresh;
    fresh.sync(*fx.map);
    for (int y = -1; y <= fx.map->height(); ++y) {
      for (int x = -1; x <= fx.map->width(); ++x) {
        ASSERT_EQ(incremental.entry({x, y}), fresh.entry({x, y}))
            << "step " << step << " cell " << x << "," << y;
      }
    }
  }
  // In-sync field syncs for free.
  EXPECT_EQ(incremental.sync(*fx.map), 0u);
}

TEST(LikelihoodField, SyncChargesNinePerConsumedEntry) {
  RandomMapFixture fx(37);
  LikelihoodField field;
  field.sync(*fx.map);
  int incremental = 0;
  for (int step = 0; step < 8; ++step) {
    const uint64_t before = fx.map->change_version();
    const Pose2D p = fx.random_free_pose();
    fx.map->integrate_scan(p, fx.lidar->scan(*fx.world, p, 0.0));
    if (fx.map->changelog_base() > before) {
      field.sync(*fx.map);  // the changelog overflowed: a full rebuild
      continue;
    }
    EXPECT_EQ(field.sync(*fx.map), 9 * (fx.map->change_version() - before)) << "step " << step;
    ++incremental;
  }
  EXPECT_GT(incremental, 0);
}

// Single-beam scans flip chosen cells: a hit raises the endpoint towards
// occupied, a no-return beam ending there lowers it towards free.
TEST(LikelihoodField, IncrementalEqualsFreshBuildAfterRandomFlips) {
  OccupancyGridConfig cfg;
  cfg.resolution = 0.1;
  OccupancyGrid map({0.0, 0.0}, 3.0, 2.0, cfg);
  const int w = map.width(), h = map.height();
  LikelihoodField field;
  field.sync(map);
  Rng rng(0xf11b);
  auto beam = [&](CellIndex target, bool hit) {
    const CellIndex from{rng.uniform_int(3, w - 4), rng.uniform_int(3, h - 4)};
    const Point2D a = map.frame().cell_to_world(from);
    const Point2D b = map.frame().cell_to_world(target);
    msg::LaserScan s;
    s.range_min = 0.0;
    s.range_max = distance(a, b);
    s.ranges = {static_cast<float>(hit ? s.range_max * 0.999 : s.range_max + 1.0)};
    map.integrate_scan({a.x, a.y, std::atan2(b.y - a.y, b.x - a.x)}, s);
  };
  const CellIndex corner{0, h - 1};
  for (int step = 0; step < 300; ++step) {
    CellIndex target;
    if (step % 3 == 0) {
      target = corner;  // the same edge cell, flipped over and over
    } else if (step % 3 == 1) {
      // Anywhere on the map's border, whose bits also sit in the pad ring.
      const int k = rng.uniform_int(0, 2 * (w + h) - 5);
      target = k < w ? CellIndex{k, 0}
             : k < 2 * w ? CellIndex{k - w, h - 1}
             : k < 2 * w + h - 2 ? CellIndex{0, k - 2 * w + 1}
                                 : CellIndex{w - 1, k - 2 * w - h + 3};
    } else {
      target = {rng.uniform_int(0, w - 1), rng.uniform_int(0, h - 1)};
    }
    const uint64_t before = map.change_version();
    beam(target, rng.uniform(0.0, 1.0) < (step % 3 == 0 ? 0.5 : 0.4));
    ASSERT_LE(map.changelog_base(), before);
    ASSERT_EQ(field.sync(map), 9 * (map.change_version() - before)) << "step " << step;
    LikelihoodField fresh;
    fresh.sync(map);
    for (int y = -2; y <= h + 1; ++y) {
      for (int x = -2; x <= w + 1; ++x) {
        ASSERT_EQ(field.entry({x, y}), fresh.entry({x, y}))
            << "step " << step << " cell " << x << "," << y;
      }
    }
  }
  EXPECT_GT(map.change_version(), 300u);
}

TEST(LikelihoodField, ChangelogOverflowFallsBackToFullRebuild) {
  RandomMapFixture fx(31);
  LikelihoodField field;
  field.sync(*fx.map);
  // Integrate many scans without syncing so the bounded changelog overflows.
  for (int i = 0; i < 200; ++i) {
    const Pose2D p = fx.random_free_pose();
    fx.map->integrate_scan(p, fx.lidar->scan(*fx.world, p, 0.0));
  }
  field.sync(*fx.map);
  LikelihoodField fresh;
  fresh.sync(*fx.map);
  for (int y = -1; y <= fx.map->height(); ++y) {
    for (int x = -1; x <= fx.map->width(); ++x) {
      ASSERT_EQ(field.entry({x, y}), fresh.entry({x, y})) << x << "," << y;
    }
  }
}

TEST(LikelihoodField, CopiedMapAndFieldStayConsistent) {
  // Particle resampling copies (map, field) pairs; diverging the copies must
  // keep each field consistent with its own map.
  RandomMapFixture fx(37);
  LikelihoodField field;
  field.sync(*fx.map);

  OccupancyGrid map_b = *fx.map;   // resampled particle's deep copy
  LikelihoodField field_b = field;
  EXPECT_TRUE(field_b.in_sync_with(map_b));

  const Pose2D pa = fx.random_free_pose();
  const Pose2D pb = fx.random_free_pose();
  fx.map->integrate_scan(pa, fx.lidar->scan(*fx.world, pa, 0.0));
  map_b.integrate_scan(pb, fx.lidar->scan(*fx.world, pb, 0.0));
  field.sync(*fx.map);
  field_b.sync(map_b);

  LikelihoodField fresh_a, fresh_b;
  fresh_a.sync(*fx.map);
  fresh_b.sync(map_b);
  for (int y = -1; y <= fx.map->height(); ++y) {
    for (int x = -1; x <= fx.map->width(); ++x) {
      ASSERT_EQ(field.entry({x, y}), fresh_a.entry({x, y})) << x << "," << y;
      ASSERT_EQ(field_b.entry({x, y}), fresh_b.entry({x, y})) << x << "," << y;
    }
  }
}

TEST(LikelihoodField, MigratedMapForcesRebuild) {
  // Algorithm 2 ships the map, never the field: a field synced against the
  // source map must not believe it is current for the deserialized copy.
  RandomMapFixture fx(41);
  LikelihoodField field;
  field.sync(*fx.map);

  WireWriter w;
  fx.map->serialize(w);
  WireReader r(w.buffer());
  const OccupancyGrid restored = OccupancyGrid::deserialize(r);
  EXPECT_FALSE(field.in_sync_with(restored));

  LikelihoodField rebuilt;
  EXPECT_GT(rebuilt.sync(restored), 0u);
  for (int y = -1; y <= restored.height(); ++y) {
    for (int x = -1; x <= restored.width(); ++x) {
      ASSERT_EQ(rebuilt.entry({x, y}), field.entry({x, y})) << x << "," << y;
    }
  }
}

TEST(LikelihoodField, AmclAgreesAcrossMeasurementModels) {
  // Two identically-seeded filters, one per measurement model, tracking the
  // same scans: the RNG streams are identical, so estimates differ only by
  // the floating-point rounding of the likelihood values.
  RandomMapFixture fx(47);
  AmclConfig brute_cfg;
  brute_cfg.use_likelihood_field = false;
  AmclConfig cached_cfg;
  cached_cfg.use_likelihood_field = true;
  Amcl brute(brute_cfg, fx.map.get(), 99);
  Amcl cached(cached_cfg, fx.map.get(), 99);
  const Pose2D start = fx.random_free_pose();
  brute.initialize(start);
  cached.initialize(start);

  platform::ExecutionContext bctx, cctx;
  double t = 0.0;
  for (int i = 0; i < 8; ++i) {
    t += 0.2;
    msg::Odometry odom;
    odom.pose = start;
    odom.header.stamp = t;
    const msg::LaserScan scan = fx.lidar->scan(*fx.world, start, t);
    const AmclUpdateStats bs = brute.update(odom, scan, bctx);
    const AmclUpdateStats cs = cached.update(odom, scan, cctx);
    EXPECT_EQ(bs.beam_evaluations, cs.beam_evaluations);
  }
  const Pose2D be = brute.estimate();
  const Pose2D ce = cached.estimate();
  EXPECT_NEAR(be.x, ce.x, 1e-6);
  EXPECT_NEAR(be.y, ce.y, 1e-6);
  EXPECT_NEAR(be.theta, ce.theta, 1e-6);
  // The cached model must be charged strictly fewer modeled cycles per beam.
  EXPECT_LT(cctx.profile().total_cycles(), bctx.profile().total_cycles());
}

}  // namespace
}  // namespace lgv::perception
