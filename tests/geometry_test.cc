#include "dcc/common/geometry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "dcc/common/rng.h"

namespace dcc {
namespace {

TEST(Vec2Test, Arithmetic) {
  const Vec2 a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_EQ((a + b), (Vec2{4.0, 1.0}));
  EXPECT_EQ((a - b), (Vec2{-2.0, 3.0}));
  EXPECT_EQ((2.0 * a), (Vec2{2.0, 4.0}));
}

TEST(DistTest, KnownValues) {
  EXPECT_DOUBLE_EQ(Dist({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Dist({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(Dist2({0, 0}, {3, 4}), 25.0);
}

TEST(BallTest, ContainsBoundary) {
  const Ball b{{0, 0}, 1.0};
  EXPECT_TRUE(b.Contains({1.0, 0.0}));
  EXPECT_TRUE(b.Contains({0.0, 0.0}));
  EXPECT_FALSE(b.Contains({1.0001, 0.0}));
}

TEST(ChiUpperBoundTest, SinglePointWhenSeparationExceedsDiameter) {
  EXPECT_EQ(ChiUpperBound(1.0, 2.5), 1);
}

TEST(ChiUpperBoundTest, MatchesPackingFormula) {
  // (1 + 2*r1/r2)^2 floored.
  EXPECT_EQ(ChiUpperBound(1.0, 1.0), 9);
  EXPECT_EQ(ChiUpperBound(5.0, 1.0), 121);
  EXPECT_EQ(ChiUpperBound(1.0, 0.5), 25);
}

TEST(ChiUpperBoundTest, IsActuallyAnUpperBoundForGrids) {
  // Pack a grid with pitch exactly r2 = 0.5 into a ball of radius 1: count
  // the points and compare.
  const double r2 = 0.5;
  int count = 0;
  for (int x = -4; x <= 4; ++x) {
    for (int y = -4; y <= 4; ++y) {
      if (Dist({x * r2, y * r2}, {0, 0}) <= 1.0) ++count;
    }
  }
  EXPECT_LE(count, ChiUpperBound(1.0, r2));
}

TEST(ChiUpperBoundTest, RejectsBadArguments) {
  EXPECT_THROW(ChiUpperBound(0.0, 1.0), InvalidArgument);
  EXPECT_THROW(ChiUpperBound(1.0, -1.0), InvalidArgument);
}

TEST(CloseDistanceBoundTest, SmallGammaIsDiameter) {
  EXPECT_DOUBLE_EQ(CloseDistanceBound(1, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(CloseDistanceBound(2, 2.0), 4.0);
}

TEST(CloseDistanceBoundTest, DecreasesWithGamma) {
  double prev = CloseDistanceBound(4, 1.0);
  for (int g = 8; g <= 1024; g *= 2) {
    const double d = CloseDistanceBound(g, 1.0);
    EXPECT_LE(d, prev);
    prev = d;
  }
}

TEST(CloseDistanceBoundTest, InverseOfChi) {
  // chi(r, d_bound) should be >= Gamma/2 (the defining property).
  for (int g : {8, 32, 128}) {
    const double d = CloseDistanceBound(g, 1.0);
    EXPECT_GE(ChiUpperBound(1.0, d), g / 2) << "gamma=" << g;
  }
}

TEST(BoundingBoxTest, Basic) {
  const std::vector<Vec2> pts{{0, 1}, {2, -1}, {1, 5}};
  const Box b = BoundingBox(pts);
  EXPECT_DOUBLE_EQ(b.lo.x, 0);
  EXPECT_DOUBLE_EQ(b.lo.y, -1);
  EXPECT_DOUBLE_EQ(b.hi.x, 2);
  EXPECT_DOUBLE_EQ(b.hi.y, 5);
}

TEST(PointGridTest, NearFindsExactlyTheBallMembers) {
  std::vector<Vec2> pts;
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) pts.push_back({x * 0.5, y * 0.5});
  }
  const PointGrid grid(pts, 1.0);
  const Vec2 q{2.25, 2.25};
  const auto got = grid.Near(q, 1.0);
  // Brute-force reference.
  std::vector<std::size_t> want;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (Dist(pts[i], q) <= 1.0) want.push_back(i);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(grid.CountNear(q, 1.0), static_cast<int>(want.size()));
}

TEST(PointGridTest, NegativeCoordinates) {
  const std::vector<Vec2> pts{{-3.7, -2.1}, {-3.6, -2.0}, {4.0, 4.0}};
  const PointGrid grid(pts, 1.0);
  EXPECT_EQ(grid.CountNear({-3.65, -2.05}, 0.5), 2);
  EXPECT_EQ(grid.CountNear({4.0, 4.0}, 0.1), 1);
}

// PointGrid's rule, by brute force: every q with Dist2(q, p) <= r^2 + 1e-12.
std::vector<std::size_t> BruteNear(const std::vector<Vec2>& pts, Vec2 p,
                                   double radius) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (Dist2(pts[i], p) <= radius * radius + 1e-12) out.push_back(i);
  }
  return out;
}

// Near and CountNear against the brute force, for queries at every point,
// at random points in and around the bounding box, at its corners and far
// outside it; radius 0, fractions and multiples of `cell`, a radius
// covering the whole set, and one that puts a point exactly at distance r.
void ExpectMatchesBruteForce(const std::vector<Vec2>& pts, double cell,
                             Xoshiro256ss& rng, const std::string& label) {
  const PointGrid grid(pts, cell);
  const Box box = BoundingBox(pts);
  const double wx = box.hi.x - box.lo.x, wy = box.hi.y - box.lo.y;
  const double diag = std::sqrt(wx * wx + wy * wy);
  std::vector<Vec2> queries(pts);
  queries.push_back(box.lo);
  queries.push_back(box.hi);
  queries.push_back({box.lo.x, box.hi.y});
  queries.push_back({box.hi.x + 5.0 * (wx + 1.0), box.lo.y - 5.0 * (wy + 1.0)});
  for (int k = 0; k < 40; ++k) {
    // Even k: inside the box; odd k: up to a box width around it.
    const double sx = k % 2 == 0 ? 1.0 : 3.0;
    const double fx = sx * (rng.NextDouble() - 0.5) + 0.5;
    const double fy = sx * (rng.NextDouble() - 0.5) + 0.5;
    queries.push_back({box.lo.x + fx * (wx + 1.0), box.lo.y + fy * (wy + 1.0)});
  }
  const std::vector<double> radii{0.0,        0.5 * cell, cell,
                                  2.5 * cell, 2.0 * diag + 1.0};
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const Vec2 q = queries[qi];
    std::vector<double> rs = radii;
    if (!pts.empty()) {
      rs.push_back(Dist(q, pts[rng.NextBelow(pts.size())]));
    }
    for (const double r : rs) {
      const auto want = BruteNear(pts, q, r);
      EXPECT_EQ(grid.Near(q, r), want)
          << label << " query " << qi << " (" << q.x << ", " << q.y
          << ") r=" << r;
      EXPECT_EQ(grid.CountNear(q, r), static_cast<int>(want.size()))
          << label << " query " << qi << " r=" << r;
    }
  }
}

TEST(PointGridTest, MatchesBruteForceOnRandomSets) {
  Xoshiro256ss rng(26);
  std::vector<Vec2> uniform;  // negative coordinates too
  for (int i = 0; i < 300; ++i) {
    uniform.push_back({-5.0 + 12.0 * rng.NextDouble(),
                       -3.0 + 12.0 * rng.NextDouble()});
  }
  ExpectMatchesBruteForce(uniform, 1.0, rng, "uniform cell=1");
  ExpectMatchesBruteForce(uniform, 0.3, rng, "uniform cell=0.3");
  ExpectMatchesBruteForce(uniform, 40.0, rng, "uniform cell=40");

  std::vector<Vec2> duplicates;  // 200 points on 12 distinct spots
  std::vector<Vec2> spots;
  for (int i = 0; i < 12; ++i) {
    spots.push_back({-2.0 + 4.0 * rng.NextDouble(), 4.0 * rng.NextDouble()});
  }
  for (int i = 0; i < 200; ++i) {
    duplicates.push_back(spots[rng.NextBelow(spots.size())]);
  }
  ExpectMatchesBruteForce(duplicates, 1.0, rng, "duplicates");
  ExpectMatchesBruteForce(std::vector<Vec2>(50, Vec2{-1.5, 2.5}), 1.0, rng,
                          "one spot");

  std::vector<Vec2> slanted, horizontal;  // collinear; the second has wy = 0
  for (int i = 0; i < 150; ++i) {
    const double t = -6.0 + 12.0 * rng.NextDouble();
    slanted.push_back({t, 2.0 * t - 1.0});
    horizontal.push_back({t, -0.75});
  }
  ExpectMatchesBruteForce(slanted, 1.0, rng, "slanted line");
  ExpectMatchesBruteForce(horizontal, 1.0, rng, "horizontal line");

  // 64 points spread over 20000 x 1: the side comes from max(wx, wy) / n
  // (about 312), not from the cell, and the cell count from the 3n + 1
  // clamp.
  std::vector<Vec2> wide;
  for (int i = 0; i < 64; ++i) {
    wide.push_back({-1e4 + 2e4 * rng.NextDouble(), rng.NextDouble()});
  }
  ExpectMatchesBruteForce(wide, 1.0, rng, "wide sparse");

  ExpectMatchesBruteForce({}, 1.0, rng, "empty");
  ExpectMatchesBruteForce({{3.0, -4.0}}, 1.0, rng, "single");
}

TEST(PointGridTest, RuleBoundaryHoldsAcrossCells) {
  // A 3-4-5 point exactly at r = 5 is in; one 1e-9 farther is out.
  const std::vector<Vec2> pts{{0.0, 0.0}, {3.0, 4.0}, {-3.0, -4.0 - 1e-9}};
  const PointGrid grid(pts, 1.0);
  EXPECT_EQ(grid.Near({0.0, 0.0}, 5.0), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(grid.Near({3.0, 4.0}, 0.0), (std::vector<std::size_t>{1}));
  // Cells of side exactly 1 from x = 0: point 1 lies 1e-13 beyond r, inside
  // the rule's 1e-12 slack, in the cell just past p.x + r.
  const std::vector<Vec2> pair{{0.0, 0.0}, {2.0, 0.5}};
  const PointGrid unit(pair, 1.0);
  EXPECT_EQ(unit.Near({1.5 - 1e-13, 0.5}, 0.5), (std::vector<std::size_t>{1}));
  EXPECT_THROW(PointGrid(pts, 0.0), InvalidArgument);
}

TEST(UnitBallDensityTest, UniformGrid) {
  // Pitch-1 grid: a unit ball centered on a node covers its 4 axis
  // neighbors plus itself.
  std::vector<Vec2> pts;
  for (int x = 0; x < 5; ++x) {
    for (int y = 0; y < 5; ++y) pts.push_back({double(x), double(y)});
  }
  EXPECT_EQ(UnitBallDensity(pts), 5);
}

TEST(UnitBallDensityTest, EmptyAndSingle) {
  EXPECT_EQ(UnitBallDensity({}), 0);
  const std::vector<Vec2> one{{0, 0}};
  EXPECT_EQ(UnitBallDensity(one), 1);
}

TEST(UnitBallDensityTest, Cluster) {
  std::vector<Vec2> pts(17, Vec2{0.1, 0.1});
  for (std::size_t i = 0; i < pts.size(); ++i) {
    pts[i].x += 0.001 * static_cast<double>(i);
  }
  EXPECT_EQ(UnitBallDensity(pts), 17);
}

}  // namespace
}  // namespace dcc
