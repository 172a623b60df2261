// Costmap2D::set_static_map's diff-driven static layer against the per-cell
// resample it replaced (RefCostmap2D). Both costmaps receive the same map
// messages: the best-particle maps of a live Gmapping run, with resamples and
// best-particle switches, and in the middle maps of another frame and size.
// After every call the static layers must be byte-identical, and so must the
// master grids after inflation.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "perception/costmap2d.h"
#include "perception/gmapping.h"
#include "perception/occupancy_grid.h"
#include "platform/execution_context.h"
#include "sim/scenario.h"

#include "ref_costmap2d.h"

namespace lgv::perception {
namespace {

struct SlamRun {
  std::vector<msg::OccupancyGridMsg> maps;  ///< best map after each update
  int resamples = 0;
  int best_switches = 0;  ///< best particle changed between two resamples
};

// A lab run of an 8-particle Gmapping, recorded once for all cases. The high
// resample threshold makes it resample within 80 updates.
const SlamRun& slam_run() {
  static const SlamRun run = [] {
    SlamRun r;
    const sim::Scenario sc = sim::make_lab_scenario();
    GmappingConfig cfg;
    cfg.particles = 8;
    cfg.resample_threshold = 0.9;
    Gmapping slam(cfg, sc.world.frame().origin, sc.world.width_m(), sc.world.height_m(), 11);
    const auto log = sim::record_scan_log(sc, 1.0, 0.2, 80);
    slam.initialize(log[0].odom_pose);
    platform::ExecutionContext ctx;
    size_t best = 0;
    for (size_t i = 0; i < log.size(); ++i) {
      msg::Odometry odom;
      odom.pose = log[i].odom_pose;
      const bool resampled = slam.process(odom, log[i].scan, ctx).resampled;
      ctx.reset();
      size_t now = 0;
      while (&slam.particles()[now].map != &slam.best_map()) ++now;
      r.resamples += resampled;
      r.best_switches += !resampled && now != best;
      best = now;
      r.maps.push_back(slam.best_map().to_msg(0.2 * static_cast<double>(i)));
    }
    return r;
  }();
  return run;
}

struct DiffCase {
  double resolution;  ///< costmap resolution; the SLAM map runs at 0.1 m
  double origin;      ///< added to both axes of the costmap origin
  bool track_unknown;
};

void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << "res" << c.resolution << "_o" << c.origin << (c.track_unknown ? "_unknown" : "_free");
}

void expect_same_grid(const Grid<uint8_t>& a, const Grid<uint8_t>& b, const std::string& what) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      ASSERT_EQ(static_cast<int>(a.at(x, y)), static_cast<int>(b.at(x, y)))
          << what << ": cell (" << x << ", " << y << ")";
    }
  }
}

class StaticLayerDiff : public ::testing::TestWithParam<DiffCase> {};

TEST_P(StaticLayerDiff, MatchesPerCellResample) {
  const DiffCase c = GetParam();
  const SlamRun& run = slam_run();
  ASSERT_GT(run.resamples, 0);
  ASSERT_GT(run.best_switches, 0);

  const sim::Scenario sc = sim::make_lab_scenario();
  // The maps move by whole metres and the costmap by the full offset, so the
  // costmap's cells straddle the map's by the fractional part.
  const Point2D shift{std::floor(c.origin), std::floor(c.origin)};
  CostmapConfig cfg;
  cfg.resolution = c.resolution;
  cfg.track_unknown = c.track_unknown;
  const Point2D origin = sc.world.frame().origin + Point2D{c.origin, c.origin};
  RefCostmap2D ref(origin, sc.world.width_m(), sc.world.height_m(), cfg);
  Costmap2D cm(origin, sc.world.width_m(), sc.world.height_m(), cfg);

  // Mid-run detours, each followed by the SLAM frame again: the SLAM map
  // moved by a fraction of a cell, cropped in width, cropped in height, and
  // the 0.05 m ground-truth map.
  const size_t mid = run.maps.size() / 2;
  msg::OccupancyGridMsg moved = run.maps[mid];
  moved.frame.origin = moved.frame.origin + Point2D{0.337, 0.19};
  auto crop = [&](int dw, int dh) {
    msg::OccupancyGridMsg m = run.maps[mid];
    m.width -= dw;
    m.height -= dh;
    m.data.clear();
    for (int y = 0; y < m.height; ++y) {
      for (int x = 0; x < m.width; ++x) m.data.push_back(run.maps[mid].at(x, y));
    }
    return m;
  };
  const msg::OccupancyGridMsg detours[] = {
      moved, crop(7, 0), crop(0, 5),
      OccupancyGrid::from_binary(sc.world.frame(), sc.world.grid()).to_msg(0.0)};

  std::vector<msg::OccupancyGridMsg> sequence;
  for (size_t i = 0; i < run.maps.size(); ++i) {
    if (i >= mid && i < mid + 12 && (i - mid) % 3 == 0) sequence.push_back(detours[(i - mid) / 3]);
    sequence.push_back(run.maps[i]);
  }
  for (size_t i = 0; i < sequence.size(); ++i) {
    msg::OccupancyGridMsg map = sequence[i];
    map.frame.origin = map.frame.origin + shift;
    ref.set_static_map(map);
    cm.set_static_map(map);
    const std::string when = "map " + std::to_string(i);
    expect_same_grid(ref.static_layer(), cm.static_layer(), when + " static layer");
    ASSERT_EQ(ref.inflate(), cm.inflate()) << when;
    expect_same_grid(ref.master(), cm.master(), when + " master");
  }
}

std::vector<DiffCase> diff_cases() {
  std::vector<DiffCase> cases;
  for (double res : {0.05, 0.1}) {
    for (double origin : {0.013, -3.7, 101.31, 1234.567}) {
      for (bool unknown : {true, false}) cases.push_back({res, origin, unknown});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Frames, StaticLayerDiff, ::testing::ValuesIn(diff_cases()));

}  // namespace
}  // namespace lgv::perception
