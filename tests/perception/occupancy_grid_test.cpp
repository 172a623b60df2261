#include "perception/occupancy_grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "sim/lidar.h"
#include "sim/scenario.h"
#include "sim/world.h"

namespace lgv::perception {
namespace {

TEST(OccupancyGrid, StartsUnknown) {
  OccupancyGrid g({0, 0}, 5.0, 5.0);
  EXPECT_TRUE(g.is_unknown({10, 10}));
  EXPECT_FALSE(g.is_occupied({10, 10}));
  EXPECT_FALSE(g.is_free({10, 10}));
  EXPECT_EQ(g.known_cells(), 0u);
}

TEST(OccupancyGrid, OutOfBoundsIsUnknown) {
  OccupancyGrid g({0, 0}, 2.0, 2.0);
  EXPECT_TRUE(g.is_unknown({-1, 0}));
  EXPECT_TRUE(g.is_unknown({1000, 0}));
}

msg::LaserScan single_beam(double range, double angle = 0.0) {
  msg::LaserScan s;
  s.angle_min = angle;
  s.angle_max = angle;
  s.angle_increment = 0.0;
  s.range_min = 0.1;
  s.range_max = 3.5;
  s.ranges = {static_cast<float>(range)};
  return s;
}

TEST(OccupancyGrid, ScanMarksEndpointOccupiedAndPathFree) {
  OccupancyGrid g({0, 0}, 5.0, 5.0);
  const Pose2D pose{1.0, 2.5, 0.0};
  const msg::LaserScan s = single_beam(2.0);
  for (int i = 0; i < 5; ++i) g.integrate_scan(pose, s);
  // Endpoint at (3.0, 2.5).
  EXPECT_TRUE(g.is_occupied(g.frame().world_to_cell({3.0, 2.5})));
  EXPECT_TRUE(g.is_free(g.frame().world_to_cell({2.0, 2.5})));
  EXPECT_TRUE(g.is_free(g.frame().world_to_cell({1.2, 2.5})));
  EXPECT_GT(g.known_cells(), 10u);
}

TEST(OccupancyGrid, NoReturnBeamOnlyClears) {
  OccupancyGrid g({0, 0}, 5.0, 5.0);
  const Pose2D pose{1.0, 2.5, 0.0};
  const msg::LaserScan s = single_beam(4.5);  // beyond range_max
  for (int i = 0; i < 5; ++i) g.integrate_scan(pose, s);
  for (double x = 1.2; x < 4.3; x += 0.3) {
    EXPECT_FALSE(g.is_occupied(g.frame().world_to_cell({x, 2.5}))) << x;
  }
}

TEST(OccupancyGrid, RepeatedEvidenceSaturates) {
  OccupancyGrid g({0, 0}, 5.0, 5.0);
  const Pose2D pose{1.0, 2.5, 0.0};
  const msg::LaserScan s = single_beam(2.0);
  for (int i = 0; i < 100; ++i) g.integrate_scan(pose, s);
  const CellIndex end = g.frame().world_to_cell({3.0, 2.5});
  EXPECT_LE(g.log_odds_at(end), g.config().log_odds_max + 1e-9);
  EXPECT_GT(g.probability_at(end), 0.95);
}

TEST(OccupancyGrid, ConflictingEvidenceFlips) {
  OccupancyGrid g({0, 0}, 5.0, 5.0);
  const Pose2D pose{1.0, 2.5, 0.0};
  const CellIndex target = g.frame().world_to_cell({3.0, 2.5});
  for (int i = 0; i < 3; ++i) g.integrate_scan(pose, single_beam(2.0));
  EXPECT_TRUE(g.is_occupied(target));
  // Now see through that cell many times (obstacle moved away).
  for (int i = 0; i < 30; ++i) g.integrate_scan(pose, single_beam(3.4));
  EXPECT_FALSE(g.is_occupied(target));
}

TEST(OccupancyGrid, MessageRoundTripPreservesStates) {
  OccupancyGrid g({0, 0}, 5.0, 5.0);
  const Pose2D pose{1.0, 2.5, 0.0};
  for (int i = 0; i < 10; ++i) g.integrate_scan(pose, single_beam(2.0));
  const msg::OccupancyGridMsg m = g.to_msg(1.0);
  EXPECT_EQ(m.width, g.width());
  const OccupancyGrid back = OccupancyGrid::from_msg(m);
  const CellIndex occ = g.frame().world_to_cell({3.0, 2.5});
  const CellIndex free = g.frame().world_to_cell({2.0, 2.5});
  EXPECT_TRUE(back.is_occupied(occ));
  EXPECT_TRUE(back.is_free(free));
  EXPECT_TRUE(back.is_unknown({0, 0}));
}

TEST(OccupancyGrid, FromBinarySeedsKnownMap) {
  sim::World w(4.0, 4.0);
  w.add_box({2.0, 0.0}, {2.2, 4.0});
  const OccupancyGrid g =
      OccupancyGrid::from_binary(w.frame(), w.grid());
  EXPECT_TRUE(g.is_occupied(g.frame().world_to_cell({2.1, 1.0})));
  EXPECT_TRUE(g.is_free(g.frame().world_to_cell({1.0, 1.0})));
  EXPECT_EQ(g.known_cells(), static_cast<size_t>(g.width()) * g.height());
}

TEST(OccupancyGrid, FullWorldMappingMatchesGroundTruth) {
  sim::World w(6.0, 6.0);
  w.add_outer_walls(0.2);
  w.add_disc({3.0, 3.0}, 0.4);
  sim::LidarConfig lc;
  lc.range_noise_sigma = 0.0;
  sim::Lidar lidar(lc);
  OccupancyGridConfig cfg;
  cfg.resolution = 0.1;
  OccupancyGrid g({0, 0}, 6.0, 6.0, cfg);
  // Scan from several free poses around the disc.
  for (const Point2D p : {Point2D{1.0, 1.0}, {5.0, 1.0}, {1.0, 5.0}, {5.0, 5.0},
                          {1.5, 3.0}}) {
    for (int rep = 0; rep < 3; ++rep) {
      g.integrate_scan({p.x, p.y, 0.0}, lidar.scan(w, {p.x, p.y, 0.0}, 0.0));
    }
  }
  // The disc's center should be mapped occupied; open floor should be free.
  EXPECT_TRUE(g.is_occupied(g.frame().world_to_cell({2.62, 3.0})));
  EXPECT_TRUE(g.is_free(g.frame().world_to_cell({1.5, 1.5})));
  EXPECT_GT(g.known_area_m2(), 15.0);
}

TEST(OccupancyGrid, TouchedCellCountReported) {
  OccupancyGrid g({0, 0}, 5.0, 5.0);
  const size_t touched = g.integrate_scan({1.0, 2.5, 0.0}, single_beam(2.0));
  // 2 m beam at 0.1 m resolution ≈ 20 cells.
  EXPECT_GE(touched, 15u);
  EXPECT_LE(touched, 25u);
}

TEST(OccupancyGrid, CopySharesCellsUntilWrite) {
  OccupancyGrid g({0, 0}, 5.0, 5.0);
  g.integrate_scan({1.0, 2.5, 0.0}, single_beam(2.0));
  OccupancyGrid copy = g;  // resample-style copy: O(1), shared block
  EXPECT_TRUE(copy.shares_cells_with(g));
  EXPECT_EQ(copy.write_version(), g.write_version());

  // Copy's 1 m beam puts a hit where the original saw free space.
  const CellIndex hit = g.frame().world_to_cell({2.0, 2.5});
  const double before = g.log_odds_at(hit);
  copy.integrate_scan({1.0, 2.5, 0.0}, single_beam(1.0));
  EXPECT_FALSE(copy.shares_cells_with(g));  // first write detached
  EXPECT_NE(copy.write_version(), g.write_version());
  EXPECT_GT(copy.log_odds_at(hit), before);
  EXPECT_EQ(g.log_odds_at(hit), before);  // original never sees copy's writes
}

TEST(OccupancyGrid, SaturatedReobservationKeepsSharing) {
  OccupancyGrid g({0, 0}, 5.0, 5.0);
  // Saturate: repeated identical evidence clamps every touched cell.
  for (int i = 0; i < 60; ++i) g.integrate_scan({1.0, 2.5, 0.0}, single_beam(2.0));
  OccupancyGrid copy = g;
  // The same scan again produces bit-identical cell values everywhere, so the
  // no-op write skip keeps the block shared — no copy, no detach.
  copy.integrate_scan({1.0, 2.5, 0.0}, single_beam(2.0));
  EXPECT_TRUE(copy.shares_cells_with(g));
}

TEST(OccupancyGrid, DirtyTilesTrackMutations) {
  OccupancyGrid g({0, 0}, 5.0, 5.0);
  g.integrate_scan({1.0, 2.5, 0.0}, single_beam(2.0));
  const uint64_t base = g.write_version();
  EXPECT_EQ(g.dirty_tiles_since(base), 0u);
  g.integrate_scan({1.0, 2.5, 0.0}, single_beam(1.0));
  const size_t dirty = g.dirty_tiles_since(base);
  EXPECT_GT(dirty, 0u);
  EXPECT_LT(dirty, g.tile_count());  // a single beam touches few tiles
}

// integrate_scan as a plain loop over update_cell, with the grid's state
// (cells, known count, classification changelog, the batch that last
// changed each tile) kept in plain containers.
struct RefGrid {
  RefGrid(const GridFrame& frame, int width, int height, const OccupancyGridConfig& config)
      : frame(frame),
        width(width),
        height(height),
        config(config),
        occupied_lo(std::log(config.occupied_threshold / (1.0 - config.occupied_threshold))),
        cells(static_cast<size_t>(width) * height, 0.0f),
        tile_batch(static_cast<size_t>((width + 15) / 16) * ((height + 15) / 16), -1) {}

  void update_cell(CellIndex c, double delta) {
    if (c.x < 0 || c.x >= width || c.y < 0 || c.y >= height) return;
    float& cell = cells[static_cast<size_t>(c.y) * width + c.x];
    const float old = cell;
    float next = static_cast<float>(
        std::clamp(static_cast<double>(old) + delta, config.log_odds_min, config.log_odds_max));
    if (next == 0.0f) next = delta < 0 ? -1e-3f : 1e-3f;
    if (std::memcmp(&next, &old, sizeof(float)) == 0) return;
    cell = next;
    tile_batch[static_cast<size_t>(c.y / 16) * ((width + 15) / 16) + c.x / 16] = batch;
    if (old == 0.0f) ++known;
    if (old == 0.0f || (old > occupied_lo) != (next > occupied_lo)) log.push_back(c);
  }

  size_t integrate_scan(const Pose2D& pose, const msg::LaserScan& scan) {
    ++batch;
    size_t touched = 0;
    const CellIndex origin_cell = frame.world_to_cell(pose.position());
    for (size_t i = 0; i < scan.ranges.size(); ++i) {
      const double r = static_cast<double>(scan.ranges[i]);
      const bool hit = r <= scan.range_max;
      const double reach = hit ? r : scan.range_max;
      const double angle = pose.theta + scan.angle_of(i);
      const Point2D end{pose.x + std::cos(angle) * reach, pose.y + std::sin(angle) * reach};
      const CellIndex end_cell = frame.world_to_cell(end);
      touched += for_each_line_cell(origin_cell, end_cell, [&](CellIndex c) {
        if (!hit || c != end_cell) update_cell(c, config.log_odds_miss);
      });
      if (hit) update_cell(end_cell, config.log_odds_hit);
    }
    return touched;
  }

  GridFrame frame;
  int width, height;
  OccupancyGridConfig config;
  double occupied_lo;
  std::vector<float> cells;
  std::vector<int> tile_batch;  ///< last batch that changed a cell of the tile
  std::vector<CellIndex> log;
  size_t known = 0;
  int batch = -1;
};

struct IntegrateCase {
  std::string name;
  OccupancyGridConfig config;
};

void PrintTo(const IntegrateCase& c, std::ostream* os) { *os << c.name; }

class IntegrateScanReference : public ::testing::TestWithParam<IntegrateCase> {};

TEST_P(IntegrateScanReference, MatchesPlainLoop) {
  const OccupancyGridConfig cfg = GetParam().config;
  const sim::Scenario sc = sim::make_lab_scenario();
  OccupancyGrid g(sc.world.frame().origin, sc.world.width_m(), sc.world.height_m(), cfg);
  RefGrid ref(g.frame(), g.width(), g.height(), cfg);
  sim::Lidar lidar({}, 0x1a7e);

  std::vector<uint64_t> batch_versions;  // write_version after each batch
  for (size_t wp = 0; wp < 6; ++wp) {
    const Point2D at = sc.waypoints[wp % sc.waypoints.size()];
    // Re-observing one pose drives its free cells down to the floor.
    for (int repeat = 0; repeat < 12; ++repeat) {
      const Pose2D pose{at.x, at.y, 0.3 * repeat};
      const msg::LaserScan scan = lidar.scan(sc.world, pose, 0.1 * repeat);
      const std::string when = "waypoint " + std::to_string(wp) + " repeat " +
                               std::to_string(repeat);
      ASSERT_EQ(g.integrate_scan(pose, scan), ref.integrate_scan(pose, scan)) << when;
      batch_versions.push_back(g.write_version());

      for (int y = 0; y < g.height(); ++y) {
        for (int x = 0; x < g.width(); ++x) {
          const float got = static_cast<float>(g.log_odds_at({x, y}));
          const float want = ref.cells[static_cast<size_t>(y) * g.width() + x];
          ASSERT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
              << when << ": cell (" << x << ", " << y << ") " << got << " vs " << want;
        }
      }
      ASSERT_EQ(g.known_cells(), ref.known) << when;
      // The changelog keeps a suffix of the flips (it restarts on overflow).
      ASSERT_EQ(g.change_version(), ref.log.size()) << when;
      const std::vector<CellIndex> kept(ref.log.begin() + g.changelog_base(), ref.log.end());
      ASSERT_EQ(g.changelog(), kept) << when;
      // Tiles written after batch j are exactly those a later batch changed.
      for (int j = -1; j <= ref.batch; ++j) {
        const uint64_t base = j < 0 ? 0 : batch_versions[j];
        const auto later = std::count_if(ref.tile_batch.begin(), ref.tile_batch.end(),
                                         [&](int b) { return b > j; });
        ASSERT_EQ(g.dirty_tiles_since(base), static_cast<size_t>(later))
            << when << ", since batch " << j;
      }
    }
  }
  const float floor = static_cast<float>(cfg.log_odds_min);
  EXPECT_GT(std::count(ref.cells.begin(), ref.cells.end(), floor), 0);
}

std::vector<IntegrateCase> integrate_cases() {
  std::vector<IntegrateCase> cases;
  cases.push_back({"defaults", {}});
  OccupancyGridConfig odd;  // floor and ceiling not representable as floats
  odd.log_odds_min = -4.05;
  odd.log_odds_max = 3.3;
  odd.log_odds_miss = -0.7;
  cases.push_back({"inexact_floor", odd});
  OccupancyGridConfig shallow;  // a floor one miss below the free threshold
  shallow.log_odds_min = -0.3;
  shallow.log_odds_miss = -0.25;
  cases.push_back({"shallow_floor", shallow});
  OccupancyGridConfig inverted;  // hits lower, misses raise: no fixed floor
  inverted.log_odds_hit = -0.9;
  inverted.log_odds_miss = 0.3;
  cases.push_back({"inverted", inverted});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Configs, IntegrateScanReference, ::testing::ValuesIn(integrate_cases()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace lgv::perception
