// Uniform spatial grid over a point set: the tiling the SINR engine's
// per-round tile sweeps run on.
//
// Unlike PointGrid (geometry.h), the cell CSR behind every radius query
// (the communication graph, Gamma and the engine's reception reach),
// SpatialGrid is a fixed tiling that keeps only what the grid engine's
// round sweeps read:
//  * O(1) point -> tile lookup (one stored tile per point);
//  * conservative distance bounds between a point (or tile) and a tile's
//    bounding box, used to bound per-tile interference contributions.
// Dynamic networks follow moving points with Retile, which recomputes
// every point's tile in place (O(n), no allocation).
//
// Tiles are indexed row-major in [0, tile_count()). The grid covers either
// the bounding box of the construction points or an explicit coverage box
// (dynamic networks pass their world box so moved points stay covered);
// every point maps to exactly one tile, and the soundness of the distance
// bounds requires each point to lie inside its tile's box — hence the
// constructors and Retile reject positions outside the coverage area.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "dcc/common/geometry.h"
#include "dcc/common/types.h"

namespace dcc {

class SpatialGrid {
 public:
  // `cell` > 0 is the tile side length; the grid covers the points'
  // bounding box.
  SpatialGrid(std::span<const Vec2> pts, double cell);

  // Same, with an explicit coverage box (must contain every point). Use for
  // dynamic point sets whose future positions exceed the initial bounding
  // box.
  SpatialGrid(std::span<const Vec2> pts, double cell, const Box& coverage);

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int tile_count() const { return nx_ * ny_; }

  int TileOfPoint(std::size_t i) const { return tile_of_point_[i]; }

  // Recomputes every point's tile from its new position. The tiling is
  // fixed: `pts` must hold as many points as the construction set, each
  // inside the coverage area.
  void Retile(std::span<const Vec2> pts);

  // A tile's closed bounding box.
  Box TileBox(int tile) const {
    const int gx = tile % nx_, gy = tile / nx_;
    const double bx = lo_x_ + gx * cell_, by = lo_y_ + gy * cell_;
    return Box{{bx, by}, {bx + cell_, by + cell_}};
  }

  // Squared distance bounds from a position to a closed box (a tile's):
  // DistLoSq <= |p - q|^2 <= DistHiSq for every q in the box (and hence
  // for every point in the tile). Defined here so the grid engine's calls,
  // one per (listener, close tile), inline.
  static double DistLoSq(Vec2 p, const Box& box) {
    return AxisGapSq(p.x, box.lo.x, box.hi.x) +
           AxisGapSq(p.y, box.lo.y, box.hi.y);
  }
  static double DistHiSq(Vec2 p, const Box& box) {
    return AxisFarSq(p.x, box.lo.x, box.hi.x) +
           AxisFarSq(p.y, box.lo.y, box.hi.y);
  }

  // Squared distance bounds between two tiles' bounding boxes: for every p
  // in tile a's box and q in tile b's box,
  // TileDistLoSq <= |p - q|^2 <= TileDistHiSq.
  double TileDistLoSq(int a, int b) const;
  double TileDistHiSq(int a, int b) const;

  // Distance bounds between tile a's box and the union box of the tile
  // range [bx0, bx1] x [by0, by1] (tile coordinates, inclusive) — the
  // coarse cells of the far-field pyramid (sinr/farfield.h). For a
  // degenerate range (bx0 == bx1, by0 == by1) these perform the exact same
  // arithmetic as TileDistLoSq/TileDistHiSq, and for any tile b inside the
  // range, TileRangeDistLoSq <= TileDistLoSq(a, b) and
  // TileRangeDistHiSq >= TileDistHiSq(a, b) — the monotonicity the
  // pyramid's conservativeness rests on.
  double TileRangeDistLoSq(int a, int bx0, int by0, int bx1, int by1) const;
  double TileRangeDistHiSq(int a, int bx0, int by0, int bx1, int by1) const;

 private:
  void InitTiles(std::span<const Vec2> pts, const Box& coverage);

  // Squared distance from x to the interval [lo, hi], per axis.
  static double AxisGapSq(double x, double lo, double hi) {
    const double g = x < lo ? lo - x : (x > hi ? x - hi : 0.0);
    return g * g;
  }

  // Max |x - q|^2 over q in [lo, hi].
  static double AxisFarSq(double x, double lo, double hi) {
    const double g = std::max(std::abs(x - lo), std::abs(x - hi));
    return g * g;
  }

  // Tile containing a position (clamped into the grid). The reciprocal
  // multiply instead of dividing by cell_ can only shift a boundary point
  // into the neighboring tile; both closed tile boxes contain such a point,
  // so the distance bounds stay sound either way.
  int TileAt(Vec2 p) const {
    int gx = static_cast<int>(std::floor((p.x - lo_x_) * inv_cell_));
    int gy = static_cast<int>(std::floor((p.y - lo_y_) * inv_cell_));
    gx = gx < 0 ? 0 : (gx >= nx_ ? nx_ - 1 : gx);
    gy = gy < 0 ? 0 : (gy >= ny_ ? ny_ - 1 : gy);
    return gy * nx_ + gx;
  }

  // A point outside the tiled area would be clamped into a boundary tile
  // whose box does not contain it, breaking the distance bounds.
  void CheckCovered(Vec2 p) const {
    DCC_REQUIRE(p.x >= lo_x_ && p.x <= lo_x_ + nx_ * cell_ && p.y >= lo_y_ &&
                    p.y <= lo_y_ + ny_ * cell_,
                "SpatialGrid: position outside the coverage area");
  }

  double lo_x_ = 0.0, lo_y_ = 0.0;  // grid origin (coverage-box corner)
  double cell_ = 1.0;
  double inv_cell_ = 1.0;
  int nx_ = 1, ny_ = 1;
  std::vector<int> tile_of_point_;
};

}  // namespace dcc
