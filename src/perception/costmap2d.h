// Layered costmap in the style of ROS costmap_2d [43]: a static map layer, an
// obstacle layer that marks lidar hits and ray-trace-clears free space, and
// an inflation layer that spreads cost outward from lethal cells. This is the
// CostmapGen node — an Energy-Critical Node in both workloads (Table II) and
// the first hop of the Velocity-Dependent Path.
#pragma once

#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "common/grid.h"
#include "msg/messages.h"
#include "perception/occupancy_grid.h"

namespace lgv::perception {

// Cost value conventions (costmap_2d compatible).
inline constexpr uint8_t kCostLethal = 254;
inline constexpr uint8_t kCostInscribed = 253;
inline constexpr uint8_t kCostFreeSpace = 0;
inline constexpr uint8_t kCostNoInformation = 255;

struct CostmapConfig {
  double resolution = 0.05;      ///< m/cell
  double inflation_radius = 0.4; ///< m beyond which no cost is added
  double inscribed_radius = 0.11;///< robot footprint radius
  double cost_scaling = 6.0;     ///< exponential decay rate of inflated cost
  double raytrace_range = 3.5;   ///< max clearing distance
  double obstacle_range = 3.3;   ///< max marking distance
  bool track_unknown = true;     ///< unknown cells get kCostNoInformation
};

struct CostmapUpdateStats {
  size_t raytraced_cells = 0;   ///< obstacle-layer work units
  size_t inflated_cells = 0;    ///< inflation-layer work units
};

/// Inflation outcome for every integer offset (dx, dy) of a cell from its
/// claiming lethal source, over the inflation BFS's Chebyshev box plus a
/// one-cell rim of kSkip (so a neighbour of any in-box offset indexes the
/// table without a bounds check). An entry is the uint8_t cost, kSkip (beyond
/// the box or the inflation radius), or kExact: a tie, where the absolute-
/// coordinate distance can land on either side of `inflation_radius` or
/// `inscribed_radius`, or where 252·exp(·) is within 1e-6 of an integer. A
/// kExact offset is evaluated per cell with the costmap's own expression.
struct InflationKernel {
  static constexpr uint16_t kSkip = 256;
  static constexpr uint16_t kExact = 257;

  int half = 0;    ///< table spans dx, dy in [-half, half]; half = box + 1
  int stride = 0;  ///< 2 * half + 1
  std::vector<uint16_t> entries;  ///< row-major over dy, then dx

  uint16_t at(int dx, int dy) const {
    return entries[static_cast<size_t>(dy + half) * stride + (dx + half)];
  }

  /// Table for a `width` x `height` costmap in `frame`; the frame's extent
  /// bounds the rounding of its absolute cell coordinates, so it sets the
  /// width of the tie band.
  static InflationKernel build(const CostmapConfig& config, const GridFrame& frame,
                               int width, int height);
};

class Costmap2D {
 public:
  Costmap2D() = default;
  Costmap2D(Point2D origin, double width_m, double height_m, CostmapConfig config = {});

  const CostmapConfig& config() const { return config_; }
  const GridFrame& frame() const { return frame_; }
  int width() const { return cost_.width(); }
  int height() const { return cost_.height(); }

  uint8_t cost_at(CellIndex c) const;
  uint8_t cost_at_world(const Point2D& p) const;
  /// Combined + inflated master grid; raw view for vectorized probe loops
  /// (off-grid probes must yield kCostLethal, matching cost_at).
  const Grid<uint8_t>& master() const { return cost_; }
  const Grid<uint8_t>& static_layer() const { return static_layer_; }
  bool is_lethal(CellIndex c) const { return cost_at(c) >= kCostInscribed; }
  /// Traversable for planning: known and below the inscribed threshold.
  bool is_traversable(CellIndex c) const;

  /// Load the static layer from a SLAM map / ground-truth map message. Each
  /// cell takes the class (lethal, free, or the unknown fill) of the one
  /// source cell its centre falls in. The first map of a given frame and size
  /// resamples every cell; a later one rewrites only the cells whose source
  /// cell changed class, with the same result.
  void set_static_map(const msg::OccupancyGridMsg& map);

  /// Obstacle layer + inflation update from one scan at `pose`.
  CostmapUpdateStats update(const Pose2D& pose, const msg::LaserScan& scan);

  /// Combine the layers and re-run inflation from scratch (also called by
  /// update()). A multi-source BFS from every lethal cell in row-major order:
  /// a cell takes the cost of whichever source's wave claims it first.
  /// Returns the number of cells dequeued (sources + claimed cells).
  size_t inflate();

  msg::OccupancyGridMsg to_msg(double stamp) const;

 private:
  void mark_and_clear(const Pose2D& pose, const msg::LaserScan& scan,
                      CostmapUpdateStats& stats);
  uint8_t inflation_cost(double distance_m) const;

  /// Costmap columns (or rows) [begin, end) that resample from source
  /// column (row) `src`.
  struct SourceSpan {
    int src;
    int begin;
    int end;
  };

  GridFrame frame_;
  CostmapConfig config_;
  Grid<uint8_t> static_layer_;   ///< kCostLethal / kCostFreeSpace / kCostNoInformation
  /// The source frame and size static_cols_ / static_rows_ were built for.
  GridFrame static_source_frame_;
  int static_source_width_ = -1;
  int static_source_height_ = -1;
  std::vector<SourceSpan> static_cols_;
  std::vector<SourceSpan> static_rows_;
  /// kCostLethal where lidar currently sees obstacles, kCostFreeSpace where a
  /// beam has raytraced through, kCostNoInformation where never observed.
  Grid<uint8_t> obstacle_layer_;
  Grid<uint8_t> cost_;           ///< combined + inflated master grid

  /// Inflation scratch, allocated on the first inflate() and reused. The
  /// bordered arrays are (width + 2) x (height + 2), with the visited rim
  /// pre-marked so the BFS needs no bounds check.
  struct QueueEntry {
    int32_t cell;    ///< bordered cell index
    int16_t dx, dy;  ///< offset from the claiming source
  };
  void prepare_inflation();
  uint16_t exact_inflation_cost(int32_t cell, int dx, int dy) const;

  InflationKernel kernel_;
  std::vector<uint8_t> visited_;
  std::vector<uint8_t> work_;    ///< bordered combined + inflated costs
  std::vector<QueueEntry> queue_;
};

}  // namespace lgv::perception
