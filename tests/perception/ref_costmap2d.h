// The straightforward Costmap2D that the optimized one replaced, kept as the
// oracle of the equivalence tests: a per-cell resample of the whole static
// layer on every set_static_map, a std::queue inflation BFS with a fresh
// visited grid per call, and absolute-coordinate distance and exp per
// neighbour.
#pragma once

#include <cmath>
#include <cstdint>
#include <queue>

#include "common/geometry.h"
#include "common/grid.h"
#include "msg/messages.h"
#include "perception/costmap2d.h"

namespace lgv::perception {

class RefCostmap2D {
 public:
  RefCostmap2D(Point2D origin, double width_m, double height_m, CostmapConfig config)
      : config_(config) {
    frame_.origin = origin;
    frame_.resolution = config.resolution;
    const int w = static_cast<int>(std::ceil(width_m / config.resolution));
    const int h = static_cast<int>(std::ceil(height_m / config.resolution));
    const uint8_t fill = config.track_unknown ? kCostNoInformation : kCostFreeSpace;
    static_layer_ = Grid<uint8_t>(w, h, fill);
    obstacle_layer_ = Grid<uint8_t>(w, h, kCostNoInformation);
    cost_ = Grid<uint8_t>(w, h, fill);
  }

  const Grid<uint8_t>& master() const { return cost_; }
  const Grid<uint8_t>& static_layer() const { return static_layer_; }

  void set_static_map(const msg::OccupancyGridMsg& map) {
    for (int y = 0; y < cost_.height(); ++y) {
      for (int x = 0; x < cost_.width(); ++x) {
        const Point2D w = frame_.cell_to_world({x, y});
        const CellIndex src = map.frame.world_to_cell(w);
        uint8_t v = config_.track_unknown ? kCostNoInformation : kCostFreeSpace;
        if (src.x >= 0 && src.x < map.width && src.y >= 0 && src.y < map.height) {
          const int8_t occ = map.at(src.x, src.y);
          if (occ >= 65) {
            v = kCostLethal;
          } else if (occ >= 0) {
            v = kCostFreeSpace;
          }
        }
        static_layer_.at(x, y) = v;
      }
    }
  }

  CostmapUpdateStats update(const Pose2D& pose, const msg::LaserScan& scan) {
    CostmapUpdateStats stats;
    const CellIndex origin_cell = frame_.world_to_cell(pose.position());
    for (size_t i = 0; i < scan.ranges.size(); ++i) {
      const double r = static_cast<double>(scan.ranges[i]);
      const bool hit = r <= scan.range_max && r >= scan.range_min;
      const double reach = std::min(hit ? r : scan.range_max, config_.raytrace_range);
      const double angle = pose.theta + scan.angle_of(i);
      const Point2D end{pose.x + std::cos(angle) * reach, pose.y + std::sin(angle) * reach};
      const auto cells = bresenham_line(origin_cell, frame_.world_to_cell(end));
      const size_t n_clear = cells.size() - (hit ? 1 : 0);
      for (size_t k = 0; k < n_clear; ++k) {
        if (obstacle_layer_.in_bounds(cells[k])) obstacle_layer_.at(cells[k]) = kCostFreeSpace;
      }
      if (hit && reach <= config_.obstacle_range) {
        const CellIndex c = cells.back();
        if (obstacle_layer_.in_bounds(c)) obstacle_layer_.at(c) = kCostLethal;
      }
      stats.raytraced_cells += cells.size();
    }
    stats.inflated_cells = inflate();
    return stats;
  }

  size_t inflate() {
    const int w = cost_.width(), h = cost_.height();
    struct Seed {
      CellIndex cell;
      CellIndex source;
    };
    std::queue<Seed> frontier;
    Grid<uint8_t> visited(w, h, 0);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        const uint8_t s = static_layer_.at(x, y);
        const uint8_t o = obstacle_layer_.at(x, y);
        uint8_t v;
        if (s == kCostLethal || o == kCostLethal) {
          v = kCostLethal;
        } else if (o == kCostFreeSpace) {
          v = kCostFreeSpace;
        } else {
          v = s;
        }
        cost_.at(x, y) = v;
        if (v == kCostLethal) {
          frontier.push({{x, y}, {x, y}});
          visited.at(x, y) = 1;
        }
      }
    }
    size_t processed = 0;
    const int max_steps =
        static_cast<int>(std::ceil(config_.inflation_radius / frame_.resolution)) + 1;
    while (!frontier.empty()) {
      const Seed s = frontier.front();
      frontier.pop();
      ++processed;
      constexpr int dx[] = {1, -1, 0, 0, 1, 1, -1, -1};
      constexpr int dy[] = {0, 0, 1, -1, 1, -1, 1, -1};
      for (int k = 0; k < 8; ++k) {
        const CellIndex n{s.cell.x + dx[k], s.cell.y + dy[k]};
        if (!cost_.in_bounds(n) || visited.at(n) != 0) continue;
        if (std::abs(n.x - s.source.x) > max_steps || std::abs(n.y - s.source.y) > max_steps)
          continue;
        const double d = distance(frame_.cell_to_world(n), frame_.cell_to_world(s.source));
        if (d > config_.inflation_radius) continue;
        visited.at(n) = 1;
        const uint8_t c = inflation_cost(d);
        uint8_t& cell = cost_.at(n);
        if (cell != kCostLethal &&
            (cell == kCostNoInformation ? c >= kCostInscribed : c > cell)) {
          cell = c;
        }
        frontier.push({n, s.source});
      }
    }
    return processed;
  }

 private:
  uint8_t inflation_cost(double d) const {
    if (d <= config_.inscribed_radius) return kCostInscribed;
    if (d > config_.inflation_radius) return kCostFreeSpace;
    const double factor = std::exp(-config_.cost_scaling * (d - config_.inscribed_radius));
    return static_cast<uint8_t>(static_cast<double>(kCostInscribed - 1) * factor);
  }

  GridFrame frame_;
  CostmapConfig config_;
  Grid<uint8_t> static_layer_;
  Grid<uint8_t> obstacle_layer_;
  Grid<uint8_t> cost_;
};

}  // namespace lgv::perception
