#include "perception/scan_matcher.h"

#include <gtest/gtest.h>

#include "sim/lidar.h"
#include "sim/world.h"

namespace lgv::perception {
namespace {

struct MatcherFixture : ::testing::Test {
  void SetUp() override {
    world = std::make_unique<sim::World>(8.0, 8.0);
    world->add_outer_walls(0.2);
    world->add_box({3.5, 3.5}, {4.5, 4.5});
    sim::LidarConfig lc;
    lc.range_noise_sigma = 0.0;
    lidar = std::make_unique<sim::Lidar>(lc);

    OccupancyGridConfig cfg;
    cfg.resolution = 0.1;
    map = std::make_unique<OccupancyGrid>(Point2D{0, 0}, 8.0, 8.0, cfg);
    // Build the map from a few ground-truth scans.
    for (const Point2D p :
         {Point2D{1.5, 1.5}, {6.5, 1.5}, {1.5, 6.5}, {6.5, 6.5}, {2.0, 4.0}}) {
      for (int i = 0; i < 3; ++i) {
        map->integrate_scan({p.x, p.y, 0.0}, lidar->scan(*world, {p.x, p.y, 0.0}, 0.0));
      }
    }
    field.sync(*map);
  }

  /// The per-scan precomputation the likelihood-field scorer consumes.
  PrecomputedScan pre(const msg::LaserScan& scan,
                      int stride = ScanMatcherConfig{}.beam_stride) const {
    return precompute_scan(scan, stride, map->frame().resolution);
  }

  std::unique_ptr<sim::World> world;
  std::unique_ptr<sim::Lidar> lidar;
  std::unique_ptr<OccupancyGrid> map;
  LikelihoodField field;
  ScanMatcher matcher;
};

TEST_F(MatcherFixture, TruePoseScoresHigherThanOffsetPose) {
  const Pose2D truth{2.0, 2.0, 0.3};
  const msg::LaserScan scan = lidar->scan(*world, truth, 0.0);
  size_t evals = 0;
  const PrecomputedScan p = pre(scan);
  const double at_truth = matcher.score(field, truth, p, &evals);
  const double offset = matcher.score(field, {2.4, 2.4, 0.3}, p, &evals);
  EXPECT_GT(at_truth, offset);
  EXPECT_GT(evals, 0u);
}

TEST_F(MatcherFixture, MatchRecoversPerturbedPose) {
  const Pose2D truth{2.0, 4.0, 0.0};
  const msg::LaserScan scan = lidar->scan(*world, truth, 0.0);
  const Pose2D perturbed{2.12, 3.9, 0.06};
  const MatchResult r = matcher.match(field, perturbed, scan);
  EXPECT_LT(distance(r.pose.position(), truth.position()),
            distance(perturbed.position(), truth.position()));
  EXPECT_LT(distance(r.pose.position(), truth.position()), 0.16);
  EXPECT_GT(r.beam_evaluations, 100u);
}

TEST_F(MatcherFixture, MatchNeverDecreasesScore) {
  const Pose2D truth{5.5, 5.5, -0.5};
  const msg::LaserScan scan = lidar->scan(*world, truth, 0.0);
  const Pose2D initial{5.6, 5.45, -0.45};
  size_t evals = 0;
  const double initial_score = matcher.score(field, initial, pre(scan), &evals);
  const MatchResult r = matcher.match(field, initial, scan);
  EXPECT_GE(r.score, initial_score - 1e-12);
}

TEST_F(MatcherFixture, BeamStrideReducesWork) {
  ScanMatcherConfig dense;
  dense.beam_stride = 1;
  ScanMatcherConfig sparse;
  sparse.beam_stride = 8;
  const Pose2D truth{2.0, 2.0, 0.0};
  const msg::LaserScan scan = lidar->scan(*world, truth, 0.0);
  size_t dense_evals = 0, sparse_evals = 0;
  ScanMatcher(dense).score(field, truth, pre(scan, dense.beam_stride), &dense_evals);
  ScanMatcher(sparse).score(field, truth, pre(scan, sparse.beam_stride), &sparse_evals);
  EXPECT_GT(dense_evals, 6u * sparse_evals);
}

TEST_F(MatcherFixture, ScoreIsDeterministicAndThreadSafeConst) {
  const Pose2D pose{2.0, 2.0, 0.0};
  const msg::LaserScan scan = lidar->scan(*world, pose, 0.0);
  size_t e1 = 0, e2 = 0;
  const PrecomputedScan p = pre(scan);
  const double s1 = matcher.score(field, pose, p, &e1);
  const double s2 = matcher.score(field, pose, p, &e2);
  EXPECT_DOUBLE_EQ(s1, s2);
  EXPECT_EQ(e1, e2);
}

TEST(ScanMatcher, EmptyMapScoresNearZero) {
  OccupancyGrid empty({0, 0}, 4.0, 4.0);
  msg::LaserScan scan;
  scan.angle_min = 0.0;
  scan.angle_increment = 0.1;
  scan.range_min = 0.1;
  scan.range_max = 3.5;
  scan.ranges.assign(10, 1.0f);
  LikelihoodField field;
  field.sync(empty);
  ScanMatcher matcher;
  size_t evals = 0;
  const double s = matcher.score(
      field, {2.0, 2.0, 0.0},
      precompute_scan(scan, matcher.config().beam_stride, empty.frame().resolution), &evals);
  // Unknown cells contribute only the small exploration bonus.
  EXPECT_LT(s, 1.0);
}

}  // namespace
}  // namespace lgv::perception
