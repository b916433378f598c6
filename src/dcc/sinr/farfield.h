// Far-field tile pyramid: a multi-resolution aggregation over the
// SpatialGrid's tiles, rebuilt from each round's transmitter CSR, that lets
// a listener tile accumulate its far-field interference bounds by visiting
// O(log #tiles) coarse cells instead of every occupied transmitter tile.
//
// Structure. Level 0 is the leaf tiling (one cell per SpatialGrid tile);
// each higher level halves both axis extents (rounding up) until a single
// root cell covers the whole grid. A cell stores the total transmitter
// count of its descendant leaves, so empty subtrees are skipped without
// being visited.
//
// Conservativeness. The distance bounds between a listener tile and a
// coarse cell come from SpatialGrid::TileRangeDistLoSq/HiSq over the cell's
// leaf-coordinate range: the lower bound never exceeds any descendant
// leaf's TileDistLoSq and the upper bound never undercuts any descendant's
// TileDistHiSq, and at level 0 the range collapses to the exact
// TileDistLoSq/HiSq arithmetic. Consequences, relied on by the engine's
// bit-identity contract (see ARCHITECTURE.md "Far-field tile pyramid"):
//  * The close/far *classification* of every leaf tile is identical to the
//    flat per-tile walk: a leaf is close iff TileDistLoSq <= far_sq, and an
//    ancestor is pruned as far only when its range lower bound — which is
//    <= the leaf's — already exceeds far_sq, so no close leaf can be
//    skipped and no far leaf can be misclassified as close.
//  * The accumulated far-field bounds are conservative relative to the
//    flat walk: the interference lower bound can only shrink (coarser
//    upper distances) and the best-gain upper bound can only grow (coarser
//    lower distances). Pruning with these bounds can therefore only defer
//    *more* listeners to the exact stage-3 fallback — never change which
//    listeners receive, which is why receptions are bit-identical with the
//    pyramid on or off.
//
// Thread-safety: Rebuild/Accumulate use internal scratch and must not run
// concurrently on one pyramid. The engine touches it only from its serial
// prologue build.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dcc/common/spatial_grid.h"
#include "dcc/sinr/propagation.h"

namespace dcc::sinr {

class FarFieldPyramid {
 public:
  // Binds the pyramid to a grid's tile geometry (idempotent while the
  // shape is unchanged; a SpatialGrid's shape never changes after
  // construction, so one Reset per engine lifetime is the steady state).
  void Reset(const SpatialGrid& grid);

  // Rebuilds the counts from one round's occupied transmitter tiles
  // (ascending) and a per-tile count lookup (the engine passes its CSR row
  // widths). Incremental: only the cells touched by the previous round are
  // zeroed, so a rebuild is O(|occupied| * levels), not O(#tiles).
  template <class CountFn>
  void Rebuild(std::span<const int> occupied_tx, CountFn&& count_of) {
    for (Level& lv : levels_) {
      for (const std::uint32_t idx : lv.touched) lv.count[idx] = 0;
      lv.touched.clear();
    }
    for (const int b : occupied_tx) {
      const auto cnt = static_cast<std::uint32_t>(count_of(b));
      std::uint32_t x = static_cast<std::uint32_t>(b % nx0_);
      std::uint32_t y = static_cast<std::uint32_t>(b / nx0_);
      for (Level& lv : levels_) {
        const std::uint32_t idx = y * static_cast<std::uint32_t>(lv.nx) + x;
        if (lv.count[idx] == 0) lv.touched.push_back(idx);
        lv.count[idx] += cnt;
        x >>= 1;
        y >>= 1;
      }
    }
  }

  // Descends from the root for one listener tile: coarse cells entirely
  // beyond far_sq contribute their whole count to the far-field bounds at
  // their level; cells that might be close refine, and close *leaves* are
  // appended to `close_out` (sorted ascending before returning, matching
  // the flat walk's occupied-ascending order). The bounds are the model's
  // envelope gains (MinGainD2, MaxGainD2).
  void Accumulate(const SpatialGrid& grid, int tile, double far_sq,
                  const PathLossModel& model, std::vector<int>& close_out,
                  double& far_lo, double& far_ub) const {
    const std::size_t close_begin = close_out.size();
    stack_.clear();
    const int top = static_cast<int>(levels_.size()) - 1;
    if (top >= 0 && levels_[static_cast<std::size_t>(top)].count[0] > 0) {
      stack_.push_back(Cell{top, 0, 0});
    }
    while (!stack_.empty()) {
      const Cell c = stack_.back();
      stack_.pop_back();
      const Level& lv = levels_[static_cast<std::size_t>(c.level)];
      const int bx0 = c.x << c.level;
      const int by0 = c.y << c.level;
      const int bx1 = std::min(((c.x + 1) << c.level) - 1, nx0_ - 1);
      const int by1 = std::min(((c.y + 1) << c.level) - 1, ny0_ - 1);
      const double d2_lo = grid.TileRangeDistLoSq(tile, bx0, by0, bx1, by1);
      if (d2_lo > far_sq) {
        const auto cnt = static_cast<double>(
            lv.count[static_cast<std::size_t>(c.y) *
                         static_cast<std::size_t>(lv.nx) +
                     static_cast<std::size_t>(c.x)]);
        far_lo += cnt * model.MinGainD2(
                            grid.TileRangeDistHiSq(tile, bx0, by0, bx1, by1));
        far_ub = std::max(far_ub, model.MaxGainD2(d2_lo));
      } else if (c.level == 0) {
        close_out.push_back(by0 * nx0_ + bx0);
      } else {
        PushChildren(c);
      }
    }
    std::sort(close_out.begin() + static_cast<std::ptrdiff_t>(close_begin),
              close_out.end());
  }

  // Number of levels (0 before Reset; 1 for a single-tile grid).
  std::size_t depth() const { return levels_.size(); }

 private:
  struct Level {
    int nx = 0, ny = 0;
    std::vector<std::uint32_t> count;
    std::vector<std::uint32_t> touched;  // nonzero cells of the last Rebuild
  };
  struct Cell {
    int level;
    int x, y;  // cell coordinates at that level
  };

  void PushChildren(Cell c) const {
    const Level& child = levels_[static_cast<std::size_t>(c.level) - 1];
    const int lo_x = c.x << 1, lo_y = c.y << 1;
    for (int dy = 0; dy < 2; ++dy) {
      const int y = lo_y + dy;
      if (y >= child.ny) continue;
      for (int dx = 0; dx < 2; ++dx) {
        const int x = lo_x + dx;
        if (x >= child.nx) continue;
        if (child.count[static_cast<std::size_t>(y) *
                            static_cast<std::size_t>(child.nx) +
                        static_cast<std::size_t>(x)] == 0) {
          continue;
        }
        stack_.push_back(Cell{c.level - 1, x, y});
      }
    }
  }

  int nx0_ = 0, ny0_ = 0;  // leaf (grid) dimensions
  std::vector<Level> levels_;
  mutable std::vector<Cell> stack_;  // descent scratch
};

}  // namespace dcc::sinr
