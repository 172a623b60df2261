// Costmap2D::inflate() against a reference copy of the straightforward
// implementation it replaced (std::queue BFS, a fresh visited grid per call,
// absolute-coordinate distance and exp per neighbour). Both are driven with
// the same set_static_map / update / inflate calls; the master grids must be
// byte-identical and the work counts equal, since inflated_cells feeds the
// Table II cycle charge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "perception/costmap2d.h"
#include "perception/occupancy_grid.h"
#include "sim/lidar.h"
#include "sim/random_world.h"
#include "sim/scenario.h"

#include "ref_costmap2d.h"

namespace lgv::perception {
namespace {

sim::Scenario scenario_named(const std::string& name) {
  if (name == "lab") return sim::make_lab_scenario();
  if (name == "office") return sim::make_office_scenario();
  return sim::make_random_scenario(42);
}

struct EquivCase {
  std::string map;
  double radius;
  double resolution;
  double origin;  ///< added to both axes of the costmap origin
  bool track_unknown;
};

void PrintTo(const EquivCase& c, std::ostream* os) {
  *os << c.map << "_r" << c.radius << "_res" << c.resolution << "_o" << c.origin
      << (c.track_unknown ? "_unknown" : "_free");
}

// Byte-for-byte comparison that names the first differing cell.
void expect_same(const RefCostmap2D& ref, const Costmap2D& cm, const std::string& when) {
  const Grid<uint8_t>& a = ref.master();
  const Grid<uint8_t>& b = cm.master();
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      ASSERT_EQ(static_cast<int>(a.at(x, y)), static_cast<int>(b.at(x, y)))
          << when << ": cell (" << x << ", " << y << ")";
    }
  }
}

class InflateEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(InflateEquivalence, MatchesReference) {
  const EquivCase c = GetParam();
  const sim::Scenario sc = scenario_named(c.map);
  // The world map is shifted by whole metres, the costmap by the full offset,
  // so the costmap's cells straddle the map's by the fractional part.
  const Point2D world_shift{std::floor(c.origin), std::floor(c.origin)};
  msg::OccupancyGridMsg map =
      OccupancyGrid::from_binary(sc.world.frame(), sc.world.grid()).to_msg(0.0);
  map.frame.origin = map.frame.origin + world_shift;

  CostmapConfig cfg;
  cfg.resolution = c.resolution;
  cfg.inflation_radius = c.radius;
  cfg.track_unknown = c.track_unknown;
  const Point2D origin = sc.world.frame().origin + Point2D{c.origin, c.origin};
  RefCostmap2D ref(origin, sc.world.width_m(), sc.world.height_m(), cfg);
  Costmap2D cm(origin, sc.world.width_m(), sc.world.height_m(), cfg);

  sim::Lidar lidar({}, 0x5ca7);
  constexpr int kScans = 6;
  auto scan_at = [&](int i) {
    const double t = static_cast<double>(i) / (2 * kScans - 1);
    const Point2D p = sc.start.position() * (1.0 - t) + sc.goal.position() * t;
    const Pose2D pose{p.x, p.y, sc.start.theta + 0.7 * i};
    const msg::LaserScan scan = lidar.scan(sc.world, pose, 0.1 * i);
    return std::pair{Pose2D{pose.x + world_shift.x, pose.y + world_shift.y, pose.theta},
                     scan};
  };

  // Obstacle layer alone, then with the static map underneath.
  for (int i = 0; i < 2 * kScans; ++i) {
    if (i == kScans) {
      ref.set_static_map(map);
      cm.set_static_map(map);
      ASSERT_EQ(ref.inflate(), cm.inflate()) << "after set_static_map";
      expect_same(ref, cm, "after set_static_map");
    }
    const auto [pose, scan] = scan_at(i);
    const CostmapUpdateStats rs = ref.update(pose, scan);
    const CostmapUpdateStats ns = cm.update(pose, scan);
    ASSERT_EQ(rs.raytraced_cells, ns.raytraced_cells) << "scan " << i;
    ASSERT_EQ(rs.inflated_cells, ns.inflated_cells) << "scan " << i;
    expect_same(ref, cm, "scan " + std::to_string(i));
  }
}

std::vector<EquivCase> equivalence_cases() {
  std::vector<EquivCase> cases;
  for (const char* map : {"lab", "office", "random_world"}) {
    for (double res : {0.05, 0.1}) {
      for (double radius : {0.3, 0.4, 0.6}) cases.push_back({map, radius, res, 0.013, true});
    }
  }
  for (double origin : {-3.7, 101.31, 1234.567}) {
    for (double res : {0.05, 0.1}) cases.push_back({"lab", 0.4, res, origin, true});
  }
  for (double origin : {0.013, -3.7, 101.31, 1234.567}) {
    cases.push_back({"lab", 0.4, 0.05, origin, false});
    cases.push_back({"office", 0.6, 0.1, origin, false});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Maps, InflateEquivalence,
                         ::testing::ValuesIn(equivalence_cases()));

// The integer solutions of dx² + dy² = k², the offsets exactly on the
// inflation radius when it is k cells.
std::set<std::pair<int, int>> radius_ties(int k) {
  std::set<std::pair<int, int>> out;
  for (int dy = -k; dy <= k; ++dy) {
    for (int dx = -k; dx <= k; ++dx) {
      if (dx * dx + dy * dy == k * k) out.insert({dx, dy});
    }
  }
  return out;
}

std::set<std::pair<int, int>> exact_offsets(const InflationKernel& k) {
  std::set<std::pair<int, int>> out;
  for (int dy = -k.half; dy <= k.half; ++dy) {
    for (int dx = -k.half; dx <= k.half; ++dx) {
      if (k.at(dx, dy) == InflationKernel::kExact) out.insert({dx, dy});
    }
  }
  return out;
}

TEST(InflationKernel, FlagsExactlyTheTieOffsets) {
  const GridFrame frame{{1234.567, -3.7}, 0.05};
  const CostmapConfig defaults;
  const InflationKernel k = InflationKernel::build(defaults, frame, 240, 200);
  const std::set<std::pair<int, int>> want{{8, 0}, {-8, 0}, {0, 8}, {0, -8}};
  EXPECT_EQ(exact_offsets(k), want);

  for (double res : {0.05, 0.1}) {
    for (double radius : {0.3, 0.4, 0.6}) {
      CostmapConfig cfg;
      cfg.resolution = res;
      cfg.inflation_radius = radius;
      const InflationKernel kr =
          InflationKernel::build(cfg, GridFrame{{0.013, 0.013}, res}, 240, 200);
      EXPECT_EQ(exact_offsets(kr), radius_ties(static_cast<int>(std::lround(radius / res))))
          << "radius " << radius << " res " << res;
    }
  }
}

TEST(InflationKernel, TieOffsetsLandOnBothSidesOfTheRadius) {
  // Why (8, 0) cannot be tabulated at the defaults: measured between
  // absolute cell centres, its 0.4 m lands above the radius for some cells
  // and at or below it for others.
  const CostmapConfig cfg;
  const GridFrame frame{{1234.567, -3.7}, cfg.resolution};
  bool above = false, within = false;
  for (int x = 0; x < 200; ++x) {
    const double d = distance(frame.cell_to_world({x + 8, 0}), frame.cell_to_world({x, 0}));
    (d > cfg.inflation_radius ? above : within) = true;
  }
  EXPECT_TRUE(above);
  EXPECT_TRUE(within);
}

}  // namespace
}  // namespace lgv::perception
