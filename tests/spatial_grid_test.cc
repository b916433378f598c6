#include "dcc/common/spatial_grid.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dcc/common/rng.h"

namespace dcc {
namespace {

std::vector<Vec2> RandomPoints(int n, double side, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pts.push_back({side * rng.NextDouble(), side * rng.NextDouble()});
  }
  return pts;
}

TEST(SpatialGridTest, PointToTileBoundsAreSound) {
  const auto pts = RandomPoints(300, 12.0, 3);
  const SpatialGrid grid(pts, 1.0);
  const auto probes = RandomPoints(20, 14.0, 4);
  for (const Vec2 p : probes) {
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const Box box = grid.TileBox(grid.TileOfPoint(i));
      const double d2 = Dist2(p, pts[i]);
      EXPECT_LE(SpatialGrid::DistLoSq(p, box), d2 + 1e-12);
      EXPECT_GE(SpatialGrid::DistHiSq(p, box), d2 - 1e-12);
    }
  }
}

TEST(SpatialGridTest, TileToTileBoundsAreSound) {
  const auto pts = RandomPoints(300, 12.0, 5);
  const SpatialGrid grid(pts, 1.3);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const int a = grid.TileOfPoint(i);
    for (std::size_t j = 0; j < pts.size(); ++j) {
      const int b = grid.TileOfPoint(j);
      const double d2 = Dist2(pts[i], pts[j]);
      EXPECT_LE(grid.TileDistLoSq(a, b), d2 + 1e-12);
      EXPECT_GE(grid.TileDistHiSq(a, b), d2 - 1e-12);
    }
  }
}

TEST(SpatialGridTest, DegenerateSets) {
  // Empty set: one tile.
  const SpatialGrid empty(std::span<const Vec2>{}, 1.0);
  EXPECT_EQ(empty.tile_count(), 1);

  // Co-located points land in the same tile.
  std::vector<Vec2> same(5, Vec2{3.0, -2.0});
  const SpatialGrid grid(same, 0.7);
  EXPECT_EQ(grid.tile_count(), 1);
  for (std::size_t i = 0; i < same.size(); ++i) {
    EXPECT_EQ(grid.TileOfPoint(i), 0);
  }

  // Collinear points: a 1-row grid.
  std::vector<Vec2> line;
  for (int i = 0; i < 10; ++i) line.push_back({static_cast<double>(i), 0.0});
  const SpatialGrid lg(line, 1.0);
  EXPECT_EQ(lg.ny(), 1);
  EXPECT_GE(lg.nx(), 10);
}

TEST(SpatialGridTest, RejectsNonPositiveCell) {
  const auto pts = RandomPoints(4, 1.0, 6);
  EXPECT_THROW(SpatialGrid(pts, 0.0), InvalidArgument);
}

// --- Re-tiling (dynamic networks). ---

TEST(SpatialGridTest, RetiledGridEqualsAFreshBuild) {
  const double side = 9.0;
  const Box world{{0.0, 0.0}, {side, side}};
  SpatialGrid grid(RandomPoints(160, side, 10), 1.7, world);
  for (std::uint64_t epoch = 0; epoch < 5; ++epoch) {
    const auto pts = RandomPoints(160, side, 11 + epoch);
    grid.Retile(pts);
    const SpatialGrid fresh(pts, 1.7, world);
    ASSERT_EQ(grid.tile_count(), fresh.tile_count());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      EXPECT_EQ(grid.TileOfPoint(i), fresh.TileOfPoint(i))
          << "epoch " << epoch << " point " << i;
    }
  }
}

TEST(SpatialGridTest, RetileRejectsUncoveredPointsAndCountChanges) {
  const Box world{{0.0, 0.0}, {4.0, 4.0}};
  auto pts = RandomPoints(6, 4.0, 13);
  SpatialGrid grid(pts, 1.0, world);
  pts[2] = {17.0, 1.0};  // outside the coverage box
  EXPECT_THROW(grid.Retile(pts), InvalidArgument);
  EXPECT_THROW(grid.Retile(RandomPoints(7, 4.0, 14)), InvalidArgument);
  EXPECT_THROW(grid.Retile(RandomPoints(5, 4.0, 15)), InvalidArgument);
  // The coverage-box constructor rejects points outside the box too.
  EXPECT_THROW(SpatialGrid(RandomPoints(6, 4.0, 13), 1.0,
                           Box{{0.0, 0.0}, {0.5, 0.5}}),
               InvalidArgument);
}

}  // namespace
}  // namespace dcc
