#include "perception/costmap2d.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>

namespace lgv::perception {

Costmap2D::Costmap2D(Point2D origin, double width_m, double height_m,
                     CostmapConfig config)
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

uint8_t Costmap2D::cost_at(CellIndex c) const {
  return cost_.in_bounds(c) ? cost_.at(c) : kCostLethal;
}

uint8_t Costmap2D::cost_at_world(const Point2D& p) const {
  return cost_at(frame_.world_to_cell(p));
}

bool Costmap2D::is_traversable(CellIndex c) const {
  const uint8_t v = cost_at(c);
  return v < kCostInscribed;  // unknown (255) and lethal excluded
}

void Costmap2D::set_static_map(const msg::OccupancyGridMsg& map) {
  const uint8_t fill = config_.track_unknown ? kCostNoInformation : kCostFreeSpace;
  if (map.frame != static_source_frame_ || map.width != static_source_width_ ||
      map.height != static_source_height_) {
    // GridFrame converts each axis on its own, so a costmap column (row)
    // resamples from one source column (row) whatever the other coordinate.
    const auto spans = [](int cells, int src_cells, auto src_of) {
      std::vector<SourceSpan> out;
      for (int i = 0; i < cells; ++i) {
        const int src = src_of(i);
        if (src < 0 || src >= src_cells) continue;
        if (!out.empty() && out.back().src == src && out.back().end == i) {
          ++out.back().end;
        } else {
          out.push_back({src, i, i + 1});
        }
      }
      return out;
    };
    static_cols_ = spans(cost_.width(), map.width, [&](int x) {
      return map.frame.world_to_cell(frame_.cell_to_world({x, 0})).x;
    });
    static_rows_ = spans(cost_.height(), map.height, [&](int y) {
      return map.frame.world_to_cell(frame_.cell_to_world({0, y})).y;
    });
    static_source_frame_ = map.frame;
    static_source_width_ = map.width;
    static_source_height_ = map.height;
    // Cells outside every span see no source cell; the loop below sets the
    // rest, since each span's cells start at the fill.
    static_layer_.fill(fill);
  }
  // Every cell of a span rectangle holds its one source cell's class, so one
  // representative cell tells whether the rectangle must be rewritten.
  const int w = cost_.width();
  uint8_t* const layer = static_layer_.data().data();
  for (const SourceSpan& row : static_rows_) {
    const int8_t* const src_row = map.data.data() + static_cast<size_t>(row.src) * map.width;
    for (const SourceSpan& col : static_cols_) {
      const int8_t occ = src_row[col.src];
      const uint8_t v = occ >= 65 ? kCostLethal : occ >= 0 ? kCostFreeSpace : fill;
      if (layer[static_cast<size_t>(row.begin) * w + col.begin] == v) continue;
      for (int y = row.begin; y < row.end; ++y) {
        std::memset(layer + static_cast<size_t>(y) * w + col.begin, v,
                    static_cast<size_t>(col.end - col.begin));
      }
    }
  }
}

uint8_t Costmap2D::inflation_cost(double d) const {
  if (d <= config_.inscribed_radius) return kCostInscribed;
  if (d > config_.inflation_radius) return kCostFreeSpace;
  // Exponential decay from the inscribed radius (costmap_2d formula).
  const double factor =
      std::exp(-config_.cost_scaling * (d - config_.inscribed_radius));
  return static_cast<uint8_t>(static_cast<double>(kCostInscribed - 1) * factor);
}

void Costmap2D::mark_and_clear(const Pose2D& pose, const msg::LaserScan& scan,
                               CostmapUpdateStats& stats) {
  const CellIndex origin_cell = frame_.world_to_cell(pose.position());
  const unsigned w = static_cast<unsigned>(obstacle_layer_.width());
  const unsigned h = static_cast<unsigned>(obstacle_layer_.height());
  uint8_t* const obstacle = obstacle_layer_.data().data();
  for (size_t i = 0; i < scan.ranges.size(); ++i) {
    const double r = static_cast<double>(scan.ranges[i]);
    const bool hit = r <= scan.range_max && r >= scan.range_min;
    const double reach = std::min(hit ? r : scan.range_max, config_.raytrace_range);
    const double angle = pose.theta + scan.angle_of(i);
    const Point2D end{pose.x + std::cos(angle) * reach, pose.y + std::sin(angle) * reach};
    const CellIndex end_cell = frame_.world_to_cell(end);
    const bool end_in_bounds = obstacle_layer_.in_bounds(end_cell);
    const uint8_t end_before = end_in_bounds ? obstacle_layer_.at(end_cell) : kCostFreeSpace;
    // Clear the whole beam; the walk visits end_cell exactly once, last, so a
    // hit's endpoint is then put back (or marked) as if it was never cleared.
    stats.raytraced_cells += for_each_line_cell(origin_cell, end_cell, [&](CellIndex c) {
      if (static_cast<unsigned>(c.x) < w && static_cast<unsigned>(c.y) < h) {
        obstacle[static_cast<size_t>(c.y) * w + c.x] = kCostFreeSpace;
      }
    });
    if (hit && end_in_bounds) {
      obstacle_layer_.at(end_cell) =
          reach <= config_.obstacle_range ? kCostLethal : end_before;
    }
  }
}

InflationKernel InflationKernel::build(const CostmapConfig& config,
                                       const GridFrame& frame, int width, int height) {
  const double res = frame.resolution;
  const double radius = config.inflation_radius;
  const double inscribed = config.inscribed_radius;
  // The BFS's Chebyshev box. No two cells of the grid are farther apart than
  // max(width, height) on either axis, so a wider box changes nothing.
  const int max_steps = static_cast<int>(std::ceil(radius / res)) + 1;
  const int box = std::max(0, std::min(max_steps, std::max(width, height)));
  assert(box < INT16_MAX);

  // The costmap measures d between absolute cell centres, each rounded at
  // the magnitude of the frame's coordinates; d from the integer offset can
  // differ from it by a few ulps of that magnitude. Offsets whose d falls
  // inside this band around a threshold are ties.
  const double extent = std::max(
      {std::abs(frame.origin.x), std::abs(frame.origin.x + width * res),
       std::abs(frame.origin.y), std::abs(frame.origin.y + height * res)});
  const double tol = 32.0 * std::numeric_limits<double>::epsilon() *
                     (extent + std::abs(radius) + std::abs(inscribed));
  const double cost_tol =
      1e-6 + 4.0 * (kCostInscribed - 1) * std::abs(config.cost_scaling) * tol;

  InflationKernel k;
  k.half = box + 1;
  k.stride = 2 * k.half + 1;
  k.entries.assign(static_cast<size_t>(k.stride) * k.stride, kSkip);
  for (int dy = -box; dy <= box; ++dy) {
    for (int dx = -box; dx <= box; ++dx) {
      const double d = std::hypot(dx * res, dy * res);
      uint16_t e;
      if (std::abs(d - radius) <= tol || std::abs(d - inscribed) <= tol) {
        e = kExact;
      } else if (d > radius) {
        e = kSkip;
      } else if (d <= inscribed) {
        e = kCostInscribed;
      } else {
        const double v = static_cast<double>(kCostInscribed - 1) *
                         std::exp(-config.cost_scaling * (d - inscribed));
        e = (v >= 0.0 && v < kCostInscribed && std::abs(v - std::nearbyint(v)) > cost_tol)
                ? static_cast<uint8_t>(v)
                : kExact;
      }
      k.entries[static_cast<size_t>(dy + k.half) * k.stride + (dx + k.half)] = e;
    }
  }
  return k;
}

void Costmap2D::prepare_inflation() {
  const int w = cost_.width(), h = cost_.height();
  const int bw = w + 2;
  kernel_ = InflationKernel::build(config_, frame_, w, h);
  // Rim cells stay marked; inflate() rewrites the interior on every call.
  visited_.assign(static_cast<size_t>(bw) * (h + 2), 1);
  work_.assign(visited_.size(), kCostNoInformation);
  // Every cell is enqueued at most once: as a source or when claimed.
  queue_.resize(static_cast<size_t>(w) * h);
}

uint16_t Costmap2D::exact_inflation_cost(int32_t cell, int dx, int dy) const {
  const int bw = cost_.width() + 2;
  const CellIndex n{cell % bw - 1, cell / bw - 1};
  const double d =
      distance(frame_.cell_to_world(n), frame_.cell_to_world({n.x - dx, n.y - dy}));
  if (d > config_.inflation_radius) return InflationKernel::kSkip;
  return inflation_cost(d);
}

size_t Costmap2D::inflate() {
  if (visited_.empty()) prepare_inflation();
  const int w = cost_.width(), h = cost_.height();
  const int bw = w + 2;
  uint8_t* const visited = visited_.data();
  uint8_t* const work = work_.data();
  QueueEntry* const queue = queue_.data();

  // Combine static + obstacle layers, then enqueue every lethal cell as a
  // BFS source in row-major order. Lethal cells are sparse, so the row is
  // scanned eight visited bytes at a time.
  size_t tail = 0;
  for (int y = 0; y < h; ++y) {
    const uint8_t* const srow = static_layer_.data().data() + static_cast<size_t>(y) * w;
    const uint8_t* const orow = obstacle_layer_.data().data() + static_cast<size_t>(y) * w;
    const int32_t brow = (y + 1) * bw + 1;
    uint8_t* const wrow = work + brow;
    uint8_t* const vrow = visited + brow;
    for (int x = 0; x < w; ++x) {
      const uint8_t s = srow[x];
      const uint8_t o = orow[x];
      // A beam raytraced through is known free, even where the static map
      // had no information.
      const uint8_t v = (s == kCostLethal || o == kCostLethal) ? kCostLethal
                        : o == kCostFreeSpace                  ? kCostFreeSpace
                                                               : s;
      wrow[x] = v;
      vrow[x] = v == kCostLethal;
    }
    for (int x = 0; x < w; x += 8) {
      const int n = std::min(8, w - x);
      uint64_t any = 0;
      std::memcpy(&any, vrow + x, static_cast<size_t>(n));
      if (any == 0) continue;
      for (int j = 0; j < n; ++j) {
        queue[tail] = {brow + x + j, 0, 0};
        tail += vrow[x + j];
      }
    }
  }

  // BFS wavefront in FIFO order; a cell is marked visited only when claimed.
  constexpr int kDx[] = {1, -1, 0, 0, 1, 1, -1, -1};
  constexpr int kDy[] = {0, 0, 1, -1, 1, -1, 1, -1};
  const int ts = kernel_.stride;
  int32_t cell_step[8];
  int table_step[8];
  for (int k = 0; k < 8; ++k) {
    cell_step[k] = kDy[k] * bw + kDx[k];
    table_step[k] = kDy[k] * ts + kDx[k];
  }
  const uint16_t* const table_centre =
      kernel_.entries.data() + static_cast<ptrdiff_t>(kernel_.half) * (ts + 1);
  size_t head = 0;
  while (head < tail) {
    const QueueEntry e = queue[head++];
    // Unvisited neighbours as bits in neighbour order. Claims below touch only
    // this cell's neighbours, each once, so the snapshot stays exact.
    const uint8_t* const p = visited + e.cell;
    const uint8_t* const up = p - bw;
    const uint8_t* const down = p + bw;
    unsigned open = static_cast<unsigned>(p[1] == 0) |
                    static_cast<unsigned>(p[-1] == 0) << 1 |
                    static_cast<unsigned>(down[0] == 0) << 2 |
                    static_cast<unsigned>(up[0] == 0) << 3 |
                    static_cast<unsigned>(down[1] == 0) << 4 |
                    static_cast<unsigned>(up[1] == 0) << 5 |
                    static_cast<unsigned>(down[-1] == 0) << 6 |
                    static_cast<unsigned>(up[-1] == 0) << 7;
    const uint16_t* const t = table_centre + e.dy * ts + e.dx;
    while (open != 0) {
      const int k = std::countr_zero(open);
      open &= open - 1;
      uint16_t c = t[table_step[k]];
      const int32_t n = e.cell + cell_step[k];
      if (c >= InflationKernel::kSkip) {
        if (c == InflationKernel::kSkip) continue;
        c = exact_inflation_cost(n, e.dx + kDx[k], e.dy + kDy[k]);
        if (c == InflationKernel::kSkip) continue;
      }
      visited[n] = 1;
      uint8_t& cell = work[n];
      if (cell != kCostLethal &&
          (cell == kCostNoInformation ? c >= kCostInscribed : c > cell)) {
        // Unknown cells stay unknown unless the inflation makes them unsafe.
        cell = static_cast<uint8_t>(c);
      }
      queue[tail++] = {n, static_cast<int16_t>(e.dx + kDx[k]),
                       static_cast<int16_t>(e.dy + kDy[k])};
    }
  }

  for (int y = 0; y < h; ++y) {
    std::memcpy(cost_.data().data() + static_cast<size_t>(y) * w, work + (y + 1) * bw + 1,
                static_cast<size_t>(w));
  }
  return head;
}

CostmapUpdateStats Costmap2D::update(const Pose2D& pose, const msg::LaserScan& scan) {
  CostmapUpdateStats stats;
  mark_and_clear(pose, scan, stats);
  stats.inflated_cells = inflate();
  return stats;
}

msg::OccupancyGridMsg Costmap2D::to_msg(double stamp) const {
  msg::OccupancyGridMsg m;
  m.header.stamp = stamp;
  m.header.frame_id = "costmap";
  m.frame = frame_;
  m.width = cost_.width();
  m.height = cost_.height();
  m.data.resize(static_cast<size_t>(m.width) * m.height);
  for (int y = 0; y < m.height; ++y) {
    for (int x = 0; x < m.width; ++x) {
      const uint8_t v = cost_.at(x, y);
      int8_t out;
      if (v == kCostNoInformation) {
        out = msg::kUnknownCell;
      } else {
        out = static_cast<int8_t>(std::lround(std::min<double>(v, kCostInscribed) /
                                              kCostInscribed * 100.0));
      }
      m.data[static_cast<size_t>(y) * m.width + x] = out;
    }
  }
  return m;
}

}  // namespace lgv::perception
