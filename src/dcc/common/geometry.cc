#include "dcc/common/geometry.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dcc {

int ChiUpperBound(double r1, double r2) {
  DCC_REQUIRE(r1 > 0 && r2 > 0, "ChiUpperBound: radii must be positive");
  if (r2 > 2.0 * r1) return 1;  // two points can't both fit
  const double ratio = 1.0 + 2.0 * r1 / r2;
  // Saturate: theory-profile exhibits feed extreme ratios through here.
  const double bound = std::floor(ratio * ratio);
  if (bound >= static_cast<double>(std::numeric_limits<int>::max())) {
    return std::numeric_limits<int>::max();
  }
  return static_cast<int>(bound);
}

double CloseDistanceBound(int gamma, double r) {
  DCC_REQUIRE(r > 0, "CloseDistanceBound: radius must be positive");
  if (gamma <= 2) return 2.0 * r;
  // Solve (1 + 2r/d)^2 >= Gamma/2 for the largest d: d = 2r/(sqrt(G/2)-1).
  const double root = std::sqrt(static_cast<double>(gamma) / 2.0);
  if (root <= 1.0) return 2.0 * r;
  return std::min(2.0 * r, 2.0 * r / (root - 1.0));
}

Box BoundingBox(std::span<const Vec2> pts) {
  if (pts.empty()) return {};
  Box b{pts[0], pts[0]};
  for (const Vec2& p : pts) {
    b.lo.x = std::min(b.lo.x, p.x);
    b.lo.y = std::min(b.lo.y, p.y);
    b.hi.x = std::max(b.hi.x, p.x);
    b.hi.y = std::max(b.hi.y, p.y);
  }
  return b;
}

PointGrid::PointGrid(std::span<const Vec2> pts, double cell) {
  DCC_REQUIRE(cell > 0, "PointGrid: cell size must be positive");
  DCC_REQUIRE(pts.size() <= std::numeric_limits<std::uint32_t>::max(),
              "PointGrid: more than 2^32 - 1 points");
  const std::size_t n = pts.size();
  const Box box = BoundingBox(pts);
  lo_ = box.lo;
  const double wx = box.hi.x - box.lo.x;
  const double wy = box.hi.y - box.lo.y;
  const double nd = static_cast<double>(std::max<std::size_t>(n, 1));
  inv_side_ = 1.0 / std::max({cell, std::sqrt(wx * wy / nd),
                              std::max(wx, wy) / nd});
  // The far edge's cell, clamped: the side keeps it at most n per axis.
  nx_ = CellOn(box.hi.x, lo_.x, n + 1) + 1;
  ny_ = CellOn(box.hi.y, lo_.y, n + 1) + 1;

  // Counting sort by cell. The scatter runs backwards, so each cell keeps
  // ascending indices and cell_start_[c] ends at the start of cell c.
  const auto cell_of = [&](Vec2 p) {
    return CellOn(p.y, lo_.y, ny_) * nx_ + CellOn(p.x, lo_.x, nx_);
  };
  cell_start_.assign(nx_ * ny_ + 1, 0);
  for (const Vec2& p : pts) ++cell_start_[cell_of(p)];
  for (std::size_t c = 1; c < cell_start_.size(); ++c) {
    cell_start_[c] += cell_start_[c - 1];
  }
  index_.resize(n);
  pts_.resize(n);
  for (std::size_t i = n; i-- > 0;) {
    const std::uint32_t k = --cell_start_[cell_of(pts[i])];
    index_[k] = static_cast<std::uint32_t>(i);
    pts_[k] = pts[i];
  }
}

std::vector<std::size_t> PointGrid::Near(Vec2 p, double radius) const {
  std::vector<std::size_t> out;
  ForNear(p, radius, [&](std::size_t j) { out.push_back(j); });
  std::sort(out.begin(), out.end());
  return out;
}

int PointGrid::CountNear(Vec2 p, double radius) const {
  int n = 0;
  ForNear(p, radius, [&](std::size_t) { ++n; });
  return n;
}

int UnitBallDensity(std::span<const Vec2> pts, double radius) {
  if (pts.empty()) return 0;
  const PointGrid grid(pts, std::max(radius, 1e-9));
  int best = 0;
  for (const Vec2& p : pts) {
    best = std::max(best, grid.CountNear(p, radius));
  }
  return best;
}

}  // namespace dcc
