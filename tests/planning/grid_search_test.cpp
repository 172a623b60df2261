#include "planning/grid_search.h"

#include <gtest/gtest.h>

#include <ostream>

#include "perception/occupancy_grid.h"
#include "sim/world.h"

namespace lgv::planning {
namespace {

perception::Costmap2D costmap_from_world(const sim::World& w) {
  perception::Costmap2D cm(w.frame().origin, w.width_m(), w.height_m());
  cm.set_static_map(perception::OccupancyGrid::from_binary(w.frame(), w.grid()).to_msg(0.0));
  cm.inflate();
  return cm;
}

TEST(GridSearch, StraightLineInOpenSpace) {
  sim::World w(5.0, 5.0);
  const perception::Costmap2D cm = costmap_from_world(w);
  const CellIndex start = cm.frame().world_to_cell({0.5, 0.5});
  const CellIndex goal = cm.frame().world_to_cell({4.5, 0.5});
  const SearchResult r = plan_on_costmap(cm, start, goal);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.cells.front(), start);
  EXPECT_EQ(r.cells.back(), goal);
  // Straight 80-cell corridor → path length exactly 81 cells.
  EXPECT_EQ(r.cells.size(), 81u);
}

TEST(GridSearch, RoutesAroundWall) {
  sim::World w(6.0, 6.0);
  w.add_box({3.0, 0.0}, {3.2, 5.0});  // wall with a gap at the top
  const perception::Costmap2D cm = costmap_from_world(w);
  const CellIndex start = cm.frame().world_to_cell({1.0, 1.0});
  const CellIndex goal = cm.frame().world_to_cell({5.0, 1.0});
  const SearchResult r = plan_on_costmap(cm, start, goal);
  ASSERT_TRUE(r.success);
  // The path must pass through the gap near y=5.2+.
  double max_y = 0.0;
  for (const CellIndex c : r.cells) {
    max_y = std::max(max_y, cm.frame().cell_to_world(c).y);
  }
  EXPECT_GT(max_y, 5.0);
}

TEST(GridSearch, FailsWhenFullyWalledOff) {
  sim::World w(6.0, 6.0);
  w.add_box({3.0, 0.0}, {3.2, 6.0});  // full wall
  const perception::Costmap2D cm = costmap_from_world(w);
  const SearchResult r = plan_on_costmap(cm, cm.frame().world_to_cell({1.0, 1.0}),
                                          cm.frame().world_to_cell({5.0, 1.0}));
  EXPECT_FALSE(r.success);
}

TEST(GridSearch, FailsFromLethalStart) {
  sim::World w(4.0, 4.0);
  w.add_box({1.0, 1.0}, {2.0, 2.0});
  const perception::Costmap2D cm = costmap_from_world(w);
  const SearchResult r = plan_on_costmap(cm, cm.frame().world_to_cell({1.5, 1.5}),
                                          cm.frame().world_to_cell({3.5, 3.5}));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.expansions, 0u);
}

TEST(GridSearch, AStarMatchesDijkstraCostWithFewerExpansions) {
  // Property: with an admissible heuristic, A* returns the same optimal cost
  // as Dijkstra while expanding no more nodes.
  sim::World w(8.0, 8.0);
  w.add_box({3.0, 1.0}, {3.3, 7.0});
  w.add_box({5.5, 0.0}, {5.8, 5.0});
  const perception::Costmap2D cm = costmap_from_world(w);
  const CellIndex start = cm.frame().world_to_cell({1.0, 4.0});
  const CellIndex goal = cm.frame().world_to_cell({7.0, 6.5});

  SearchConfig astar;
  astar.algorithm = SearchAlgorithm::kAStar;
  SearchConfig dijkstra;
  dijkstra.algorithm = SearchAlgorithm::kDijkstra;
  const SearchResult ra = plan_on_costmap(cm, start, goal, astar);
  const SearchResult rd = plan_on_costmap(cm, start, goal, dijkstra);
  ASSERT_TRUE(ra.success);
  ASSERT_TRUE(rd.success);
  EXPECT_NEAR(ra.cost, rd.cost, 1e-6);
  EXPECT_LE(ra.expansions, rd.expansions);
}

struct SearchCase {
  double sx, sy, gx, gy;
};

void PrintTo(const SearchCase& c, std::ostream* os) {
  *os << "from" << c.sx << "_" << c.sy << "_to" << c.gx << "_" << c.gy;
}

class AStarOptimality : public ::testing::TestWithParam<SearchCase> {};

TEST_P(AStarOptimality, CostEqualsDijkstra) {
  sim::World w(8.0, 8.0);
  w.add_disc({4.0, 4.0}, 0.8);
  w.add_box({1.5, 5.5}, {2.5, 6.0});
  const perception::Costmap2D cm = costmap_from_world(w);
  const SearchCase c = GetParam();
  const CellIndex start = cm.frame().world_to_cell({c.sx, c.sy});
  const CellIndex goal = cm.frame().world_to_cell({c.gx, c.gy});
  SearchConfig astar;
  astar.algorithm = SearchAlgorithm::kAStar;
  SearchConfig dij;
  dij.algorithm = SearchAlgorithm::kDijkstra;
  const SearchResult ra = plan_on_costmap(cm, start, goal, astar);
  const SearchResult rd = plan_on_costmap(cm, start, goal, dij);
  ASSERT_EQ(ra.success, rd.success);
  if (ra.success) EXPECT_NEAR(ra.cost, rd.cost, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, AStarOptimality,
    ::testing::Values(SearchCase{0.5, 0.5, 7.5, 7.5}, SearchCase{0.5, 7.5, 7.5, 0.5},
                      SearchCase{1.0, 4.0, 7.0, 4.0}, SearchCase{4.0, 0.5, 4.0, 7.5},
                      SearchCase{0.5, 0.5, 0.8, 0.8}, SearchCase{6.0, 6.0, 1.0, 6.5}));

TEST(GridSearch, PathAvoidsHighCostNearObstacles) {
  // Clearance property: with inflation, the planner prefers the middle of a
  // corridor over hugging the wall.
  sim::World w(6.0, 3.0);
  w.add_box({0.0, 0.0}, {6.0, 0.2});
  w.add_box({0.0, 2.8}, {6.0, 3.0});
  const perception::Costmap2D cm = costmap_from_world(w);
  const SearchResult r = plan_on_costmap(cm, cm.frame().world_to_cell({0.5, 1.5}),
                                          cm.frame().world_to_cell({5.5, 1.5}));
  ASSERT_TRUE(r.success);
  for (const CellIndex c : r.cells) {
    const double y = cm.frame().cell_to_world(c).y;
    EXPECT_GT(y, 0.55);
    EXPECT_LT(y, 2.45);
  }
}

TEST(GridSearch, PathIsEightConnected) {
  sim::World w(5.0, 5.0);
  w.add_disc({2.5, 2.5}, 0.5);
  const perception::Costmap2D cm = costmap_from_world(w);
  const SearchResult r = plan_on_costmap(cm, cm.frame().world_to_cell({0.5, 0.5}),
                                          cm.frame().world_to_cell({4.5, 4.5}));
  ASSERT_TRUE(r.success);
  for (size_t i = 1; i < r.cells.size(); ++i) {
    EXPECT_LE(std::abs(r.cells[i].x - r.cells[i - 1].x), 1);
    EXPECT_LE(std::abs(r.cells[i].y - r.cells[i - 1].y), 1);
  }
}

}  // namespace
}  // namespace lgv::planning
