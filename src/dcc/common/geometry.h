// 2-D Euclidean geometry and the packing quantities used throughout the
// paper (Section 2, "Preliminaries"):
//
//  * chi(r1, r2): the maximal number of points that fit in a ball of radius
//    r1 with pairwise distances >= r2. We use the standard disc-packing
//    upper bound chi(r1, r2) <= (1 + 2*r1/r2)^2; algorithms only ever need
//    an upper bound (loop lengths) or its inverse (d_{Gamma,r}).
//  * d_{Gamma,r}: the smallest d with chi(r, d) >= Gamma/2. Inverting the
//    bound above gives d_{Gamma,r} = 2r / (sqrt(Gamma/2) - 1). This is the
//    upper bound on the closest-pair distance inside any dense cluster.
//
// The paper's results extend to bounded-growth metrics; we implement the
// Euclidean plane, which is what every construction in the paper uses.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dcc/common/types.h"

namespace dcc {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  friend Vec2 operator+(Vec2 a, Vec2 b) { return {a.x + b.x, a.y + b.y}; }
  friend Vec2 operator-(Vec2 a, Vec2 b) { return {a.x - b.x, a.y - b.y}; }
  friend Vec2 operator*(double s, Vec2 a) { return {s * a.x, s * a.y}; }
  friend bool operator==(Vec2 a, Vec2 b) { return a.x == b.x && a.y == b.y; }
};

inline double Dist2(Vec2 a, Vec2 b) {
  const double dx = a.x - b.x, dy = a.y - b.y;
  return dx * dx + dy * dy;
}
inline double Dist(Vec2 a, Vec2 b) { return std::sqrt(Dist2(a, b)); }

// Closed ball B(center, radius).
struct Ball {
  Vec2 center;
  double radius = 0.0;
  bool Contains(Vec2 p) const { return Dist(center, p) <= radius + 1e-12; }
};

// Upper bound on chi(r1, r2): max points in a ball of radius r1 with
// pairwise distance >= r2 (disc packing: open discs of radius r2/2 centered
// at the points are disjoint and fit in a ball of radius r1 + r2/2).
int ChiUpperBound(double r1, double r2);

// The smallest d such that chi(r, d) >= Gamma/2 (paper: d_{Gamma,r}), using
// the packing upper bound. For Gamma <= 2 there is no constraint; we return
// 2r (cluster diameter) in that case.
double CloseDistanceBound(int gamma, double r);

// Axis-aligned bounding box of a point set (empty set -> zero box).
struct Box {
  Vec2 lo, hi;
};
Box BoundingBox(std::span<const Vec2> pts);

// The index behind every radius query over a fixed point set: the
// communication graph, the density Gamma and the SINR engine's reception
// reach. Square cells, row-major over the points' bounding box, hold the
// points as a CSR: counting-sorted by cell, ascending index within a cell.
// The side is at least `cell` (callers pass the radius they query, so a
// query visits about a 3x3 block) and at least sqrt(wx * wy / n) and
// max(wx, wy) / n for a wx-by-wy box, which keeps the cell count at most
// 3n + 1 however sparse the set.
class PointGrid {
 public:
  // At most 2^32 - 1 points; `cell` > 0.
  PointGrid(std::span<const Vec2> pts, double cell);

  // Indices of points within distance `radius` of `p` (inclusive), sorted.
  std::vector<std::size_t> Near(Vec2 p, double radius) const;

  // The number of points within `radius` of `p`.
  int CountNear(Vec2 p, double radius) const;

  // Calls `fn(index)` for every point q with Dist2(q, p) <= radius^2 +
  // 1e-12, in no particular order. Each row of the visited block of cells
  // is one contiguous range of the CSR.
  template <typename Fn>
  void ForNear(Vec2 p, double radius, Fn&& fn) const {
    const double r2 = radius * radius + 1e-12;
    // The block covers [p - rho, p + rho] on each axis. Rounding can leave
    // a point that passes the test below a few ulps beyond sqrt(r2) on
    // one axis; the relative pad covers that.
    const double rho = std::sqrt(r2) * (1.0 + 1e-12);
    const std::size_t x0 = CellOn(p.x - rho, lo_.x, nx_);
    const std::size_t x1 = CellOn(p.x + rho, lo_.x, nx_);
    const std::size_t y1 = CellOn(p.y + rho, lo_.y, ny_);
    for (std::size_t y = CellOn(p.y - rho, lo_.y, ny_); y <= y1; ++y) {
      const std::uint32_t* row = cell_start_.data() + y * nx_;
      for (std::uint32_t k = row[x0]; k < row[x1 + 1]; ++k) {
        if (Dist2(pts_[k], p) <= r2) fn(std::size_t{index_[k]});
      }
    }
  }

 private:
  // The cell of coordinate v on an axis of `cells` cells from `lo`,
  // clamped (NaN lands in cell 0). Monotone in v, which is all a query
  // needs to find every point its block covers.
  std::size_t CellOn(double v, double lo, std::size_t cells) const {
    const double t = (v - lo) * inv_side_;
    if (!(t >= 1.0)) return 0;
    return t >= static_cast<double>(cells - 1) ? cells - 1
                                                : static_cast<std::size_t>(t);
  }

  Vec2 lo_;
  double inv_side_ = 1.0;
  std::size_t nx_ = 1, ny_ = 1;
  std::vector<std::uint32_t> cell_start_;  // CSR offsets, nx_ * ny_ + 1
  std::vector<std::uint32_t> index_;       // point indices by cell
  std::vector<Vec2> pts_;                  // the points, in index_ order
};

// Density of a point set: the maximum number of points inside any unit ball
// (paper, Section 2: density Gamma of an unclustered set). We evaluate balls
// centered at the nodes themselves; the node-centered maximum is within a
// constant factor of the every-point maximum (any ball with k points
// contains a node whose own unit ball has >= k points when radius doubles),
// and Fact 1 only needs density up to constants.
int UnitBallDensity(std::span<const Vec2> pts, double radius = 1.0);

}  // namespace dcc
