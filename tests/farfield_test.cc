// The far-field tile pyramid must be invisible except for speed:
//  * the pyramid's coarse bounds are CONSERVATIVE relative to the flat
//    per-tile walk (interference lower bound can only shrink, best-gain
//    upper bound can only grow) and its leaf close/far classification is
//    EXACT — checked as a randomized property over 1k transmit sets with
//    shadowing on and off;
//  * receptions are bit-identical with the pyramid descent forced on
//    (pyramid_min_occupied = 0) or off (SIZE_MAX), across thread counts and
//    mobility + churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dcc/common/rng.h"
#include "dcc/common/spatial_grid.h"
#include "dcc/sinr/engine.h"
#include "dcc/sinr/farfield.h"
#include "dcc/sinr/network.h"
#include "dcc/workload/generators.h"

namespace dcc {
namespace {

using sinr::Engine;
using sinr::FarFieldPyramid;
using sinr::Network;
using sinr::Params;
using sinr::PathLossModel;
using sinr::Reception;
using sinr::Shadowing;

// --- SpatialGrid range bounds -----------------------------------------------

SpatialGrid MakeGrid(int nx, int ny, double cell) {
  // Two corner points span the box; the grid covers the bounding box.
  const std::vector<Vec2> pts = {
      {0.0, 0.0}, {cell * nx - cell * 0.5, cell * ny - cell * 0.5}};
  return SpatialGrid(pts, cell);
}

TEST(FarFieldRangeBoundsTest, DegenerateRangeIsExactlyTheTileBound) {
  const SpatialGrid grid = MakeGrid(13, 9, 1.5);
  Xoshiro256ss rng(1);
  for (int it = 0; it < 500; ++it) {
    const int a = static_cast<int>(rng.NextBelow(13 * 9));
    const int b = static_cast<int>(rng.NextBelow(13 * 9));
    const int bx = b % 13, by = b / 13;
    // Bitwise equality: the degenerate range performs the same arithmetic,
    // which is what lets pyramid leaf classification match the flat walk.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(grid.TileDistLoSq(a, b)),
              std::bit_cast<std::uint64_t>(
                  grid.TileRangeDistLoSq(a, bx, by, bx, by)))
        << "a=" << a << " b=" << b;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(grid.TileDistHiSq(a, b)),
              std::bit_cast<std::uint64_t>(
                  grid.TileRangeDistHiSq(a, bx, by, bx, by)))
        << "a=" << a << " b=" << b;
  }
}

TEST(FarFieldRangeBoundsTest, RangeBoundsContainEveryMemberTile) {
  const SpatialGrid grid = MakeGrid(11, 7, 2.0);
  Xoshiro256ss rng(2);
  for (int it = 0; it < 300; ++it) {
    const int a = static_cast<int>(rng.NextBelow(11 * 7));
    const int bx0 = static_cast<int>(rng.NextBelow(11));
    const int by0 = static_cast<int>(rng.NextBelow(7));
    const int bx1 = bx0 + static_cast<int>(rng.NextBelow(
                              static_cast<std::uint64_t>(11 - bx0)));
    const int by1 = by0 + static_cast<int>(rng.NextBelow(
                              static_cast<std::uint64_t>(7 - by0)));
    const double lo = grid.TileRangeDistLoSq(a, bx0, by0, bx1, by1);
    const double hi = grid.TileRangeDistHiSq(a, bx0, by0, bx1, by1);
    for (int by = by0; by <= by1; ++by) {
      for (int bx = bx0; bx <= bx1; ++bx) {
        const int b = by * 11 + bx;
        EXPECT_LE(lo, grid.TileDistLoSq(a, b)) << "a=" << a << " b=" << b;
        EXPECT_GE(hi, grid.TileDistHiSq(a, b)) << "a=" << a << " b=" << b;
      }
    }
  }
}

// --- Pyramid bounds: randomized conservativeness property -------------------

// Flat reference: the exact walk BuildTileState performs below
// pyramid_min_occupied (occupied ascending; far tiles accumulate
// count-scaled envelope bounds, close tiles are listed).
void FlatAccumulate(const SpatialGrid& grid, int tile, double far_sq,
                    const std::vector<int>& occupied,
                    const std::vector<std::uint32_t>& count,
                    const PathLossModel& model, std::vector<int>& close_out,
                    double& far_lo, double& far_ub) {
  far_lo = 0.0;
  far_ub = 0.0;
  close_out.clear();
  for (const int b : occupied) {
    const double d2_lo = grid.TileDistLoSq(tile, b);
    if (d2_lo > far_sq) {
      far_lo += static_cast<double>(count[static_cast<std::size_t>(b)]) *
                model.MinGainD2(grid.TileDistHiSq(tile, b));
      far_ub = std::max(far_ub, model.MaxGainD2(d2_lo));
    } else {
      close_out.push_back(b);
    }
  }
}

void RunConservativenessProperty(double shadowing_spread, std::uint64_t seed) {
  constexpr int kNx = 24, kNy = 24;
  constexpr double kCell = 1.0;
  const SpatialGrid grid = MakeGrid(kNx, kNy, kCell);

  // A real propagation model supplies the envelope; shadowing widens it
  // (MinGainD2 and MaxGainD2 diverge) without changing any invariant.
  Params params = Params::Default();
  auto pts = workload::UniformSquare(16, kNx * kCell, seed);
  std::vector<NodeId> ids(pts.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<NodeId>(i + 1);
  }
  const Network net(std::move(pts), std::move(ids), params,
                    Shadowing{shadowing_spread, /*seed=*/5});
  const PathLossModel& model = net.propagation();

  FarFieldPyramid pyr;
  pyr.Reset(grid);
  ASSERT_GT(pyr.depth(), 1u);

  Xoshiro256ss rng(seed ^ 0xFA12F1E1Dull);
  std::vector<std::uint32_t> count(static_cast<std::size_t>(kNx) * kNy);
  std::vector<int> occupied, close_flat, close_pyr;
  for (int it = 0; it < 1000; ++it) {
    // Random sparse transmit set: 1..40 occupied tiles, counts 1..4. The
    // pyramid never reads tile membership, only the count function, so
    // synthesizing occupancy covers exactly what a round's CSR provides.
    std::fill(count.begin(), count.end(), 0);
    occupied.clear();
    const int n_occ = 1 + static_cast<int>(rng.NextBelow(40));
    for (int i = 0; i < n_occ; ++i) {
      count[rng.NextBelow(static_cast<std::uint64_t>(kNx) * kNy)] +=
          1 + static_cast<std::uint32_t>(rng.NextBelow(4));
    }
    for (int t = 0; t < kNx * kNy; ++t) {
      if (count[static_cast<std::size_t>(t)] > 0) occupied.push_back(t);
    }
    pyr.Rebuild(occupied,
                [&](int b) { return count[static_cast<std::size_t>(b)]; });

    const double far_edge = 2.0 + static_cast<double>(rng.NextBelow(12));
    const double far_sq = far_edge * far_edge;
    const int tile =
        static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(kNx) * kNy));

    double flat_lo, flat_ub, pyr_lo = 0.0, pyr_ub = 0.0;
    FlatAccumulate(grid, tile, far_sq, occupied, count, model, close_flat,
                   flat_lo, flat_ub);
    close_pyr.clear();
    pyr.Accumulate(grid, tile, far_sq, model, close_pyr, pyr_lo, pyr_ub);

    // Leaf classification is exact: same close set, same (ascending) order.
    ASSERT_EQ(close_flat, close_pyr) << "it=" << it << " tile=" << tile;
    // Bounds are conservative. Terms are individually <= / >= the flat
    // ones; the far_lo sum is grouped differently, so allow one ulp-scale
    // slack for the comparison itself (never needed in practice).
    EXPECT_LE(pyr_lo, flat_lo * (1.0 + 1e-12) + 1e-300)
        << "it=" << it << " tile=" << tile;
    EXPECT_GE(pyr_ub, flat_ub) << "it=" << it << " tile=" << tile;
  }
}

TEST(FarFieldPyramidTest, BoundsConservativeOnRandomTransmitSets) {
  RunConservativenessProperty(/*shadowing_spread=*/0.0, /*seed=*/101);
}

TEST(FarFieldPyramidTest, BoundsConservativeUnderShadowing) {
  RunConservativenessProperty(/*shadowing_spread=*/0.6, /*seed=*/202);
}

// --- Engine: pyramid on/off — bit for bit ----------------------------------

// Below this many occupied tiles the engine walks the flat list, so
// SIZE_MAX pins the flat reference on every round; 0 forces the descent.
constexpr std::size_t kFlatOnly = std::numeric_limits<std::size_t>::max();

void ExpectBitIdentical(const std::vector<Reception>& ref,
                        const std::vector<Reception>& got,
                        const std::string& label) {
  ASSERT_EQ(ref.size(), got.size()) << label;
  for (std::size_t k = 0; k < ref.size(); ++k) {
    ASSERT_EQ(ref[k].listener, got[k].listener) << label << " k=" << k;
    ASSERT_EQ(ref[k].sender, got[k].sender) << label << " k=" << k;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(ref[k].sinr),
              std::bit_cast<std::uint64_t>(got[k].sinr))
        << label << " k=" << k;
  }
}

Network MakeUniformNet(int n, double side, double shadowing_spread,
                       std::uint64_t seed) {
  Params params = Params::Default();
  params.id_space = 1 << 17;
  auto pts = workload::UniformSquare(n, side, seed);
  std::vector<NodeId> ids(pts.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<NodeId>(2 * i + 3);
  }
  return Network(std::move(pts), std::move(ids), params,
                 Shadowing{shadowing_spread, /*seed=*/99});
}

void SplitTxListeners(std::size_t n, int period, std::vector<std::size_t>& tx,
                      std::vector<std::size_t>& listeners) {
  tx.clear();
  listeners.clear();
  for (std::size_t i = 0; i < n; ++i) {
    (i % static_cast<std::size_t>(period) == 0 ? tx : listeners).push_back(i);
  }
}

TEST(FarFieldEngineTest, PyramidBitIdenticalToFlatAcrossThreads) {
  for (const double spread : {0.0, 0.4}) {
    const Network net = MakeUniformNet(700, 13.0, spread, 404);
    Engine::Options flat{.mode = Engine::Mode::kGrid};
    flat.pyramid_min_occupied = kFlatOnly;
    const Engine ref(net, flat);
    std::vector<std::size_t> tx, listeners;
    std::vector<Reception> want, got;
    for (const int period : {2, 7}) {
      SplitTxListeners(net.size(), period, tx, listeners);
      ref.StepInto(tx, listeners, want);
      for (const int threads : {1, 4}) {
        Engine::Options pyr{.mode = Engine::Mode::kGrid};
        pyr.pyramid_min_occupied = 0;  // force the descent on this fixture
        pyr.threads = threads;
        const Engine eng(net, pyr);
        eng.StepInto(tx, listeners, got);
        ExpectBitIdentical(want, got,
                           "spread=" + std::to_string(spread) +
                               " period=" + std::to_string(period) +
                               " threads=" + std::to_string(threads));
        EXPECT_GT(eng.stats().tile_states_computed, 0);
      }
    }
  }
}

TEST(FarFieldEngineTest, MobilityChurnStaysIdentical) {
  const int n = 500;
  const double side = 11.0;
  Network net = MakeUniformNet(n, side, 0.0, 909);
  Engine::Options flat{.mode = Engine::Mode::kGrid};
  flat.coverage = Box{{0.0, 0.0}, {side, side}};
  flat.pyramid_min_occupied = kFlatOnly;
  Engine::Options pyr = flat;
  pyr.pyramid_min_occupied = 0;  // force the descent on this fixture
  Engine::Options pyr4 = pyr;
  pyr4.threads = 4;
  const Engine ref(net, flat);
  const Engine a(net, pyr);
  const Engine b(net, pyr4);

  Xoshiro256ss rng(4242);
  std::vector<char> active(n, 1);
  std::vector<Vec2> pos = net.positions();
  std::vector<std::size_t> tx, listeners;
  std::vector<Reception> want, got;
  for (int epoch = 0; epoch < 6; ++epoch) {
    for (int i = 0; i < n; ++i) {
      if (!active[i]) continue;
      pos[i].x = std::min(
          side, std::max(0.0, pos[i].x + 0.6 * (rng.NextDouble() - 0.5)));
      pos[i].y = std::min(
          side, std::max(0.0, pos[i].y + 0.6 * (rng.NextDouble() - 0.5)));
    }
    for (int i = 0; i < n; ++i) {
      if (active[i] && rng.NextBelow(20) == 0) {
        active[i] = 0;
      } else if (!active[i] && rng.NextBelow(4) == 0) {
        pos[i] = {side * rng.NextDouble(), side * rng.NextDouble()};
        active[i] = 1;
      }
    }
    net.SetPositions(pos);
    tx.clear();
    listeners.clear();
    for (int i = 0; i < n; ++i) {
      if (!active[i]) continue;
      (i % 5 == epoch % 5 ? tx : listeners).push_back(i);
    }
    ref.StepInto(tx, listeners, want);
    for (const Engine* e : {&a, &b}) {
      e->StepInto(tx, listeners, got);
      ExpectBitIdentical(want, got, "epoch " + std::to_string(epoch));
    }
  }
}

}  // namespace
}  // namespace dcc
