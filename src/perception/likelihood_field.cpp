#include "perception/likelihood_field.h"

namespace lgv::perception {

int LikelihoodField::count_trailing_zeros(uint16_t v) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_ctz(v);
#else
  int k = 0;
  while ((v & 1u) == 0) {
    v >>= 1;
    ++k;
  }
  return k;
#endif
}

void LikelihoodField::rebuild_cell(const OccupancyGrid& map, CellIndex c) {
  uint16_t e = map.is_unknown(c) ? kUnknownBit : uint16_t{0};
  uint16_t bit = 1;
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx, bit = static_cast<uint16_t>(bit << 1)) {
      if (map.is_occupied({c.x + dx, c.y + dy})) e |= bit;
    }
  }
  if (cells_.at(c.x + 1, c.y + 1) != e) cells_.mut_at(c.x + 1, c.y + 1) = e;
}

size_t LikelihoodField::sync(const OccupancyGrid& map) {
  if (in_sync_with(map)) return 0;

  if (compatible_with(map) && synced_version_ >= map.changelog_base()) {
    // Incremental: a flipped cell q appears in the neighbor mask of every
    // cell of its 3×3 neighborhood (as the bit for offset q − n) and carries
    // its own unknown flag, so set or clear exactly those bits from q's
    // current state. Duplicate entries are harmless — the update is
    // idempotent. Charged as 9 field cells per entry, the neighborhood the
    // entry covers.
    const std::vector<CellIndex>& log = map.changelog();
    const size_t first = synced_version_ - map.changelog_base();
    for (size_t i = first; i < log.size(); ++i) {
      const CellIndex q = log[i];
      const uint16_t occupied = map.is_occupied(q) ? 0x1FF : 0;
      const uint16_t unknown = map.is_unknown(q) ? kUnknownBit : 0;
      // Neighbor k of q, at offset (k%3−1, k/3−1), holds q as its bit 8 − k;
      // in padded coordinates it sits at q + (k%3, k/3).
      for (int k = 0; k < 9; ++k) {
        const uint16_t bit = static_cast<uint16_t>(1u << (8 - k));
        const uint16_t mask = k == 4 ? bit | kUnknownBit : bit;
        const uint16_t set = static_cast<uint16_t>((occupied & bit) | (k == 4 ? unknown : 0));
        const uint16_t old = cells_.at(q.x + k % 3, q.y + k / 3);
        const uint16_t e = static_cast<uint16_t>((old & ~mask) | set);
        if (e != old) cells_.mut_at(q.x + k % 3, q.y + k / 3) = e;
      }
    }
    synced_version_ = map.change_version();
    return 9 * (log.size() - first);
  }

  // Full rebuild, pad ring included.
  frame_ = map.frame();
  width_ = map.width();
  height_ = map.height();
  cells_ = CowGrid<uint16_t>(width_ + 2, height_ + 2, 0);
  for (int y = -1; y <= height_; ++y) {
    for (int x = -1; x <= width_; ++x) {
      rebuild_cell(map, {x, y});
    }
  }
  map_id_ = map.map_id();
  synced_version_ = map.change_version();
  return cells_.size();
}

}  // namespace lgv::perception
