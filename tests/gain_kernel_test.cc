// The gain kernels' bit contracts (src/dcc/sinr/gain_kernel.h): every
// variant the host can run gives, lane for lane, the bits of its scalar
// loop and leaves the lanes outside its mask as they are. For AddGains
// that is the loop of PathLossModel::Gain(Dist2(v, u), id_v, id_u) in
// transmitter order, shadowed or not, keeping the first of equal maxima;
// for AddTileBounds, the stage-1 bounds loop over close tiles, with its
// near masks. The engine's receptions and prune decisions rest on them: a
// variant is picked per call, so any drift would make SINR bits or the
// grid path's counters depend on the host and on the mask.
#include "dcc/sinr/gain_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dcc/common/geometry.h"
#include "dcc/common/rng.h"
#include "dcc/common/spatial_grid.h"
#include "dcc/sinr/params.h"
#include "dcc/sinr/propagation.h"

namespace dcc::sinr::kernel {
namespace {

using AddGainsFn = void (*)(const PathLossModel&, const double*,
                            const double*, const NodeId*, std::size_t,
                            std::size_t, const double*, const double*,
                            const NodeId*, unsigned, double*, double*,
                            std::size_t*);

struct Variant {
  std::string name;
  AddGainsFn fn;
};

std::vector<Variant> VariantsFor(const PathLossModel& plm) {
  std::vector<Variant> out = {{"portable", &AddGainsPortable},
                              {"dispatch", &AddGains}};
#ifdef DCC_X86_DISPATCH
  if (plm.alpha_is_three() && !plm.shadowed() && HasAvx512()) {
    out.push_back({"avx512", &AddGainsAvx512});
  }
#endif
  return out;
}

// Lane state, as the kernel reads and writes it.
struct Lanes {
  double x[kGainLanes], y[kGainLanes];
  NodeId id[kGainLanes];
  double total[kGainLanes], best[kGainLanes];
  std::size_t best_at[kGainLanes];
};

// The contract, literally.
void Reference(const PathLossModel& plm, const std::vector<double>& xs,
               const std::vector<double>& ys, const std::vector<NodeId>& ids,
               std::size_t begin, std::size_t end, unsigned mask, Lanes& L) {
  for (std::size_t s = begin; s < end; ++s) {
    for (std::size_t j = 0; j < kGainLanes; ++j) {
      if (((mask >> j) & 1u) == 0) continue;
      const double g = plm.Gain(Dist2({xs[s], ys[s]}, {L.x[j], L.y[j]}),
                                ids[s], L.id[j]);
      L.total[j] += g;
      if (g > L.best[j]) {
        L.best[j] = g;
        L.best_at[j] = s;
      }
    }
  }
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void ExpectSameBits(const Lanes& want, const Lanes& got,
                    const std::string& where) {
  for (std::size_t j = 0; j < kGainLanes; ++j) {
    EXPECT_EQ(Bits(want.total[j]), Bits(got.total[j]))
        << where << " lane " << j << " total";
    EXPECT_EQ(Bits(want.best[j]), Bits(got.best[j]))
        << where << " lane " << j << " best";
    EXPECT_EQ(want.best_at[j], got.best_at[j])
        << where << " lane " << j << " best_at";
  }
}

// A coordinate of widely spread magnitude: ordinary field positions, tiny
// offsets near the kMinDistanceSq clamp, and huge ones whose gains
// underflow.
double Coordinate(Xoshiro256ss& rng) {
  switch (rng.NextBelow(6)) {
    case 0:
      return 1e-10 * rng.NextDouble();
    case 1:
      return 1e150 * rng.NextDouble();
    default:
      return 30.0 * rng.NextDouble();
  }
}

void CheckRandomCalls(const PathLossModel& plm, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  for (int call = 0; call < 400; ++call) {
    Lanes init;
    for (std::size_t j = 0; j < kGainLanes; ++j) {
      init.x[j] = Coordinate(rng);
      init.y[j] = Coordinate(rng);
      init.id[j] = 1 + static_cast<NodeId>(rng.NextBelow(1000));
      // Running state as a caller leaves it: fresh (0, -1) or mid-sum.
      const bool fresh = rng.NextBelow(2) == 0;
      init.total[j] = fresh ? 0.0 : 10.0 * rng.NextDouble();
      init.best[j] = fresh ? -1.0 : rng.NextDouble();
      init.best_at[j] = fresh ? 0 : 1000 + j;
    }
    // Lanes outside the mask carry bit patterns that any write would
    // disturb: NaN, -0.0 and infinity.
    const auto mask = static_cast<unsigned>(rng.NextBelow(256));
    for (std::size_t j = 0; j < kGainLanes; ++j) {
      if (((mask >> j) & 1u) != 0) continue;
      init.total[j] = -0.0;
      init.best[j] = std::numeric_limits<double>::quiet_NaN();
      init.best_at[j] = ~std::size_t{0} - j;
      if (j % 2 == 0) init.x[j] = std::numeric_limits<double>::infinity();
    }
    const std::size_t n = 1 + rng.NextBelow(40);
    std::vector<double> xs(n), ys(n);
    std::vector<NodeId> ids(n);
    for (std::size_t s = 0; s < n; ++s) {
      ids[s] = 1 + static_cast<NodeId>(rng.NextBelow(1000));
      if (rng.NextBelow(8) == 0) {  // co-located with a lane: the clamp
        const std::size_t j = rng.NextBelow(kGainLanes);
        xs[s] = init.x[j];
        ys[s] = init.y[j];
      } else if (rng.NextBelow(8) == 0 && s > 0) {  // a tie with s - 1
        xs[s] = xs[s - 1];
        ys[s] = ys[s - 1];
      } else {
        xs[s] = Coordinate(rng);
        ys[s] = Coordinate(rng);
      }
    }
    const std::size_t begin = rng.NextBelow(n);
    const std::size_t end = begin + rng.NextBelow(n - begin + 1);

    Lanes want = init;
    Reference(plm, xs, ys, ids, begin, end, mask, want);
    // Without shadowing the kernel must not read the ids: they are null.
    const bool ids_read = plm.shadowed();
    for (const Variant& v : VariantsFor(plm)) {
      Lanes got = init;
      v.fn(plm, xs.data(), ys.data(), ids_read ? ids.data() : nullptr, begin,
           end, got.x, got.y, ids_read ? got.id : nullptr, mask, got.total,
           got.best, got.best_at);
      ExpectSameBits(want, got,
                     v.name + " call " + std::to_string(call) + " mask " +
                         std::to_string(mask));
    }
  }
}

TEST(GainKernelTest, EveryVariantMatchesTheScalarLoopAlpha3) {
  const PathLossModel plm(Params::Default(3.0));
#ifdef DCC_X86_DISPATCH
  // The AVX-512 variant runs wherever the host has avx512f; elsewhere (and
  // off x86-64) this case holds the portable and dispatch variants alone.
  if (HasAvx512()) ASSERT_EQ(VariantsFor(plm).back().name, "avx512");
#endif
  CheckRandomCalls(plm, 1);
}

TEST(GainKernelTest, EveryVariantMatchesTheScalarLoopAlpha4) {
  CheckRandomCalls(PathLossModel(Params::Default(4.0)), 2);
}

TEST(GainKernelTest, EveryVariantMatchesTheShadowedLoop) {
  // A shadowed gain carries its link's factor, which the AVX-512 variant
  // does not compute: the dispatch must never pick it, so only the portable
  // and dispatch variants run, and they must match the Gain loop.
  for (const double alpha : {3.0, 4.0}) {
    const PathLossModel plm(Params::Default(alpha), Shadowing{0.5, 42});
    ASSERT_TRUE(plm.shadowed());
    ASSERT_EQ(VariantsFor(plm).size(), 2u);
    CheckRandomCalls(plm, alpha == 3.0 ? 3 : 4);
  }
}

TEST(GainKernelTest, ATieKeepsTheFirstMaximum) {
  const PathLossModel plm(Params::Default(3.0));
  // Transmitters 1 and 3 sit at the same distance from every lane, closer
  // than transmitters 0 and 2; co-located 4 and 5 hit the clamp for lane 7.
  const std::vector<double> xs = {5.0, 1.0, 6.0, -1.0, 0.0, 0.0};
  const std::vector<double> ys = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  for (const Variant& v : VariantsFor(plm)) {
    Lanes L{};
    for (std::size_t j = 0; j < kGainLanes; ++j) {
      L.x[j] = 0.0;
      L.y[j] = j < 7 ? 0.5 + static_cast<double>(j) : 0.0;
      L.best[j] = -1.0;
    }
    v.fn(plm, xs.data(), ys.data(), nullptr, 0, 4, L.x, L.y, nullptr, 0x7Fu,
         L.total, L.best, L.best_at);
    for (std::size_t j = 0; j < 7; ++j) {
      EXPECT_EQ(L.best_at[j], 1u) << v.name << " lane " << j;
    }
    EXPECT_EQ(L.best_at[7], 0u) << v.name;  // masked off: untouched
    EXPECT_EQ(L.best[7], -1.0) << v.name;
    v.fn(plm, xs.data(), ys.data(), nullptr, 4, 6, L.x, L.y, nullptr, 0x80u,
         L.total, L.best, L.best_at);
    EXPECT_EQ(L.best_at[7], 4u) << v.name;
    EXPECT_EQ(L.best[7], plm.GainD2(0.0)) << v.name;
    EXPECT_EQ(L.total[7], 0.0 + plm.GainD2(0.0) + plm.GainD2(0.0)) << v.name;
  }
}

using AddTileBoundsFn = void (*)(const PathLossModel&, const CloseTile*,
                                 std::size_t, double, const double*,
                                 const double*, unsigned, double*, double*,
                                 std::uint8_t*);

struct BoundsVariant {
  std::string name;
  AddTileBoundsFn fn;
};

std::vector<BoundsVariant> BoundsVariantsFor(const PathLossModel& plm) {
  std::vector<BoundsVariant> out = {{"portable", &AddTileBoundsPortable},
                                    {"dispatch", &AddTileBounds}};
#ifdef DCC_X86_DISPATCH
  if (plm.alpha_is_three() && !plm.shadowed() && HasAvx512()) {
    out.push_back({"avx512", &AddTileBoundsAvx512});
  }
#endif
  return out;
}

// Bounds state, as the bounds kernel reads and writes it.
struct BoundLanes {
  double x[kGainLanes], y[kGainLanes];
  double bound_lo[kGainLanes], gain_ub[kGainLanes];
  std::vector<std::uint8_t> near;
};

// The bounds contract, literally.
void ReferenceBounds(const PathLossModel& plm,
                     const std::vector<CloseTile>& tiles, double near_sq,
                     unsigned mask, BoundLanes& L) {
  L.near.assign(tiles.size(), 0);
  for (std::size_t c = 0; c < tiles.size(); ++c) {
    for (std::size_t j = 0; j < kGainLanes; ++j) {
      if (((mask >> j) & 1u) == 0) continue;
      const Vec2 p{L.x[j], L.y[j]};
      const double d2_lo = SpatialGrid::DistLoSq(p, tiles[c].box);
      if (d2_lo <= near_sq) {
        L.near[c] = static_cast<std::uint8_t>(L.near[c] | (1u << j));
        continue;
      }
      L.bound_lo[j] += tiles[c].count *
                       plm.MinGainD2(SpatialGrid::DistHiSq(p, tiles[c].box));
      L.gain_ub[j] = std::max(L.gain_ub[j], plm.MaxGainD2(d2_lo));
    }
  }
}

void ExpectSameBounds(const BoundLanes& want, const BoundLanes& got,
                      const std::string& where) {
  for (std::size_t j = 0; j < kGainLanes; ++j) {
    EXPECT_EQ(Bits(want.bound_lo[j]), Bits(got.bound_lo[j]))
        << where << " lane " << j << " bound_lo";
    EXPECT_EQ(Bits(want.gain_ub[j]), Bits(got.gain_ub[j]))
        << where << " lane " << j << " gain_ub";
  }
  ASSERT_EQ(want.near.size(), got.near.size()) << where;
  for (std::size_t c = 0; c < want.near.size(); ++c) {
    EXPECT_EQ(want.near[c], got.near[c]) << where << " tile " << c << " near";
  }
}

// A close tile: a box of the engine's tile sides, a degenerate one (a
// point or a segment) or a huge one, anywhere Coordinate reaches.
CloseTile RandomTile(Xoshiro256ss& rng) {
  const double x = Coordinate(rng);
  const double y = Coordinate(rng);
  double wx = 0.0, wy = 0.0;
  switch (rng.NextBelow(4)) {
    case 0:  // degenerate
      wx = rng.NextBelow(2) == 0 ? 0.0 : 3.5;
      break;
    case 1:
      wx = wy = 1e150 * rng.NextDouble();
      break;
    default:
      wx = wy = rng.NextBelow(2) == 0 ? 3.5 : 5.0 * rng.NextDouble();
  }
  return CloseTile{Box{{x, y}, {x + wx, y + wy}},
                   static_cast<double>(rng.NextBelow(20))};
}

// A listener's coordinate against tile box [lo, hi] on one axis: inside
// it, on an edge, or next to one.
double PlaceOnAxis(Xoshiro256ss& rng, double lo, double hi) {
  switch (rng.NextBelow(5)) {
    case 0:
      return lo;
    case 1:
      return hi;
    case 2:
      return lo - 1e-10 * rng.NextDouble();
    default:
      return lo + (hi - lo) * rng.NextDouble();
  }
}

void CheckRandomBounds(const PathLossModel& plm, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  for (int call = 0; call < 400; ++call) {
    std::vector<CloseTile> tiles(rng.NextBelow(30));
    for (CloseTile& t : tiles) t = RandomTile(rng);
    // The engine's near radius is at least 2; a radius below every
    // distance (even zero, for a listener inside a box) makes every tile
    // mid and reaches the kMinDistanceSq clamp.
    const double near_sqs[] = {-1.0, 0.0, 4.0, 12.25,
                               50.0 * rng.NextDouble()};
    const double near_sq = near_sqs[rng.NextBelow(5)];
    BoundLanes init;
    for (std::size_t j = 0; j < kGainLanes; ++j) {
      if (!tiles.empty() && rng.NextBelow(2) == 0) {
        // Inside a tile's box, on its edges, or co-located with a corner.
        const Box& box = tiles[rng.NextBelow(tiles.size())].box;
        init.x[j] = PlaceOnAxis(rng, box.lo.x, box.hi.x);
        init.y[j] = PlaceOnAxis(rng, box.lo.y, box.hi.y);
      } else {
        init.x[j] = Coordinate(rng);
        init.y[j] = Coordinate(rng);
      }
      // Bounds as a lane group starts them (a tile's far-field terms, 0 or
      // more) or mid-way.
      init.bound_lo[j] = rng.NextBelow(4) == 0 ? 0.0 : 10.0 * rng.NextDouble();
      init.gain_ub[j] = rng.NextBelow(4) == 0 ? 0.0 : rng.NextDouble();
    }
    // Lanes outside the mask carry bit patterns that any write would
    // disturb: NaN, -0.0 and infinity.
    const auto mask = static_cast<unsigned>(rng.NextBelow(256));
    for (std::size_t j = 0; j < kGainLanes; ++j) {
      if (((mask >> j) & 1u) != 0) continue;
      init.bound_lo[j] = -0.0;
      init.gain_ub[j] = j % 2 == 0 ? std::numeric_limits<double>::quiet_NaN()
                                   : -std::numeric_limits<double>::infinity();
      if (j % 2 == 0) init.x[j] = std::numeric_limits<double>::infinity();
    }

    BoundLanes want = init;
    ReferenceBounds(plm, tiles, near_sq, mask, want);
    for (const BoundsVariant& v : BoundsVariantsFor(plm)) {
      BoundLanes got = init;
      got.near.assign(tiles.size(), 0xA5);  // every entry must be written
      v.fn(plm, tiles.data(), tiles.size(), near_sq, got.x, got.y, mask,
           got.bound_lo, got.gain_ub, got.near.data());
      ExpectSameBounds(want, got,
                       v.name + " call " + std::to_string(call) + " mask " +
                           std::to_string(mask));
    }
  }
}

TEST(GainKernelTest, EveryBoundsVariantMatchesTheLoopAlpha3) {
  const PathLossModel plm(Params::Default(3.0));
#ifdef DCC_X86_DISPATCH
  if (HasAvx512()) ASSERT_EQ(BoundsVariantsFor(plm).back().name, "avx512");
#endif
  CheckRandomBounds(plm, 5);
}

TEST(GainKernelTest, EveryBoundsVariantMatchesTheLoopAlpha4) {
  CheckRandomBounds(PathLossModel(Params::Default(4.0)), 6);
}

TEST(GainKernelTest, EveryBoundsVariantMatchesTheShadowedLoop) {
  // The shadowed envelope widens both bounds by 1 + spread, which the
  // AVX-512 variant does not compute: only the portable and dispatch
  // variants run.
  for (const double alpha : {3.0, 4.0}) {
    const PathLossModel plm(Params::Default(alpha), Shadowing{0.5, 42});
    ASSERT_EQ(BoundsVariantsFor(plm).size(), 2u);
    CheckRandomBounds(plm, alpha == 3.0 ? 7 : 8);
  }
}

TEST(GainKernelTest, BoundsSplitNearFromMidTiles) {
  // Lane j sits at (j, 0.5) against unit tiles [k, k + 1] x [0, 1] (3 of
  // them) and one at x = 20; with near_sq = 1 a tile is near to the lanes
  // within one unit of it. Lane 7 co-locates with tile 0's corner (0, 0).
  const PathLossModel plm(Params::Default(3.0));
  std::vector<CloseTile> tiles;
  for (const double lo : {0.0, 1.0, 2.0, 20.0}) {
    tiles.push_back(CloseTile{Box{{lo, 0.0}, {lo + 1.0, 1.0}}, 2.0});
  }
  for (const BoundsVariant& v : BoundsVariantsFor(plm)) {
    BoundLanes L{};
    for (std::size_t j = 0; j < kGainLanes; ++j) {
      L.x[j] = j < 7 ? static_cast<double>(j) : 0.0;
      L.y[j] = j < 7 ? 0.5 : 0.0;
    }
    L.near.assign(tiles.size(), 0);
    v.fn(plm, tiles.data(), tiles.size(), 1.0, L.x, L.y, 0xFFu, L.bound_lo,
         L.gain_ub, L.near.data());
    // Tile [k, k + 1] is within 1 of lanes k - 1 .. k + 2; 7 is at x = 0.
    EXPECT_EQ(L.near[0], 0b10000111u) << v.name;
    EXPECT_EQ(L.near[1], 0b10001111u) << v.name;
    EXPECT_EQ(L.near[2], 0b00011110u) << v.name;
    EXPECT_EQ(L.near[3], 0u) << v.name;
    // Lane 6's nearest mid tile is [2, 3] x [0, 1], 3 units away.
    EXPECT_EQ(L.gain_ub[6], plm.GainD2(9.0)) << v.name;
    // Lane 0 is mid only to tiles 2 and 3, at squared distances 4 and 400.
    EXPECT_EQ(L.gain_ub[0], plm.GainD2(4.0)) << v.name;
  }
}

}  // namespace
}  // namespace dcc::sinr::kernel
