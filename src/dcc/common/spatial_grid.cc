#include "dcc/common/spatial_grid.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "dcc/common/types.h"

namespace dcc {

SpatialGrid::SpatialGrid(std::span<const Vec2> pts, double cell)
    : cell_(cell), inv_cell_(1.0 / cell) {
  DCC_REQUIRE(cell > 0.0, "SpatialGrid: cell must be > 0");
  InitTiles(pts, BoundingBox(pts));
}

SpatialGrid::SpatialGrid(std::span<const Vec2> pts, double cell,
                         const Box& coverage)
    : cell_(cell), inv_cell_(1.0 / cell) {
  DCC_REQUIRE(cell > 0.0, "SpatialGrid: cell must be > 0");
  DCC_REQUIRE(coverage.hi.x >= coverage.lo.x && coverage.hi.y >= coverage.lo.y,
              "SpatialGrid: inverted coverage box");
  InitTiles(pts, coverage);
}

void SpatialGrid::InitTiles(std::span<const Vec2> pts, const Box& coverage) {
  lo_x_ = coverage.lo.x;
  lo_y_ = coverage.lo.y;
  // Guard against a cell far smaller than the point extent (e.g. a typo'd
  // engine option): the tiling would dwarf the point set.
  const std::int64_t max_tiles = std::min<std::int64_t>(
      std::max<std::int64_t>(1024, 64 * static_cast<std::int64_t>(pts.size())),
      std::numeric_limits<int>::max());
  const auto axis_tiles = [&](double extent) {
    const double raw = std::floor(extent / cell_);
    DCC_REQUIRE(raw < static_cast<double>(max_tiles),
                "SpatialGrid: cell too small for the point extent");
    return std::max<std::int64_t>(1, static_cast<std::int64_t>(raw) + 1);
  };
  const std::int64_t nx = axis_tiles(coverage.hi.x - lo_x_);
  const std::int64_t ny = axis_tiles(coverage.hi.y - lo_y_);
  DCC_REQUIRE(ny <= max_tiles / nx,
              "SpatialGrid: cell too small for the point extent");
  nx_ = static_cast<int>(nx);
  ny_ = static_cast<int>(ny);
  tile_of_point_.resize(pts.size());
  Retile(pts);
}

void SpatialGrid::Retile(std::span<const Vec2> pts) {
  DCC_REQUIRE(pts.size() == tile_of_point_.size(),
              "SpatialGrid::Retile: point count changed");
  for (std::size_t i = 0; i < pts.size(); ++i) {
    CheckCovered(pts[i]);
    tile_of_point_[i] = TileAt(pts[i]);
  }
}

double SpatialGrid::TileDistLoSq(int a, int b) const {
  const int ax = a % nx_, ay = a / nx_;
  const int bx = b % nx_, by = b / nx_;
  const double gx = cell_ * std::max(0, std::abs(ax - bx) - 1);
  const double gy = cell_ * std::max(0, std::abs(ay - by) - 1);
  return gx * gx + gy * gy;
}

double SpatialGrid::TileDistHiSq(int a, int b) const {
  const int ax = a % nx_, ay = a / nx_;
  const int bx = b % nx_, by = b / nx_;
  const double gx = cell_ * (std::abs(ax - bx) + 1);
  const double gy = cell_ * (std::abs(ay - by) + 1);
  return gx * gx + gy * gy;
}

double SpatialGrid::TileRangeDistLoSq(int a, int bx0, int by0, int bx1,
                                      int by1) const {
  const int ax = a % nx_, ay = a / nx_;
  const int dx = ax < bx0 ? bx0 - ax : (ax > bx1 ? ax - bx1 : 0);
  const int dy = ay < by0 ? by0 - ay : (ay > by1 ? ay - by1 : 0);
  const double gx = cell_ * std::max(0, dx - 1);
  const double gy = cell_ * std::max(0, dy - 1);
  return gx * gx + gy * gy;
}

double SpatialGrid::TileRangeDistHiSq(int a, int bx0, int by0, int bx1,
                                      int by1) const {
  const int ax = a % nx_, ay = a / nx_;
  const double gx = cell_ * (std::max(std::abs(ax - bx0), std::abs(ax - bx1)) + 1);
  const double gy = cell_ * (std::max(std::abs(ay - by0), std::abs(ay - by1)) + 1);
  return gx * gx + gy * gy;
}

}  // namespace dcc
