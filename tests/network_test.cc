#include "dcc/sinr/network.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "dcc/workload/generators.h"

namespace dcc::sinr {
namespace {

// Gains compared as bit patterns: EXPECT_DOUBLE_EQ allows 4 ulps.
std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

Network LineNetwork(int n, double pitch) {
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) pts.push_back({i * pitch, 0.0});
  return Network::WithSequentialIds(std::move(pts), Params::Default());
}

TEST(NetworkTest, IdsAndIndices) {
  const Network net = LineNetwork(5, 0.5);
  EXPECT_EQ(net.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(net.id(i), static_cast<NodeId>(i + 1));
    EXPECT_EQ(net.IndexOf(net.id(i)), i);
  }
  EXPECT_TRUE(net.HasId(3));
  EXPECT_FALSE(net.HasId(99));
  EXPECT_THROW(net.IndexOf(99), InvalidArgument);
}

TEST(NetworkTest, DuplicateIdsRejected) {
  std::vector<Vec2> pts{{0, 0}, {1, 0}};
  std::vector<NodeId> ids{5, 5};
  EXPECT_THROW(Network(pts, ids, Params::Default()), InvalidArgument);
}

TEST(NetworkTest, IdRangeEnforced) {
  std::vector<Vec2> pts{{0, 0}};
  EXPECT_THROW(Network(pts, {0}, Params::Default()), InvalidArgument);
  Params p = Params::Default();
  p.id_space = 4;
  EXPECT_THROW(Network(pts, {5}, p), InvalidArgument);
}

TEST(NetworkTest, GainMatchesFormula) {
  const Network net = LineNetwork(3, 0.5);
  const Params& p = net.params();
  // d(0,1) = 0.5 -> gain = P / 0.5^alpha.
  EXPECT_NEAR(net.Gain(0, 1), p.power / std::pow(0.5, p.alpha), 1e-12);
  EXPECT_NEAR(net.Gain(0, 2), p.power / std::pow(1.0, p.alpha), 1e-12);
  EXPECT_DOUBLE_EQ(net.Gain(1, 1), 0.0);
  EXPECT_EQ(Bits(net.Gain(0, 2)), Bits(net.Gain(2, 0)));
}

// Gain(i, j) and Gain(j, i) are the same bits with and without shadowing,
// so a link's gain does not depend on which end transmits. Ids are
// non-sequential and descend with the index, coordinates are negative,
// and nodes 3 and 7 share a position (the model's distance clamp).
TEST(NetworkTest, GainIsBitSymmetricUnderEveryModel) {
  Params params = Params::Default();
  params.id_space = 1 << 12;
  std::vector<Vec2> pts = workload::UniformSquare(40, 6.0, 13);
  for (Vec2& p : pts) p = {p.x - 4.5, p.y - 3.0};
  pts[7] = pts[3];
  std::vector<NodeId> ids(pts.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<NodeId>(4000 - 93 * i);
  }
  for (const Shadowing shadowing : {Shadowing{}, Shadowing{0.5, 42}}) {
    const Network net(pts, ids, params, shadowing);
    for (std::size_t i = 0; i < net.size(); ++i) {
      EXPECT_EQ(Bits(net.Gain(i, i)), Bits(0.0)) << shadowing.spread;
      for (std::size_t j = i + 1; j < net.size(); ++j) {
        EXPECT_EQ(Bits(net.Gain(i, j)), Bits(net.Gain(j, i)))
            << "spread=" << shadowing.spread << " i=" << i << " j=" << j;
      }
    }
    EXPECT_GT(net.Gain(3, 7), 1e20) << shadowing.spread;
  }
}

TEST(NetworkTest, CommGraphUsesOneMinusEps) {
  // pitch 0.5, eps 0.2 -> comm radius 0.8: neighbors at 0.5, not at 1.0.
  const Network net = LineNetwork(4, 0.5);
  const auto& g = net.CommGraph();
  const auto neighbors = [&](std::size_t u) {
    return std::vector<std::size_t>(g[u].begin(), g[u].end());
  };
  ASSERT_EQ(g.size(), 4u);
  EXPECT_EQ(neighbors(0), (std::vector<std::size_t>{1}));
  EXPECT_EQ(neighbors(1), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(neighbors(3), (std::vector<std::size_t>{2}));
  EXPECT_EQ(g.offset(1), 1u);  // one CSR: node 1's neighbors follow node 0's
  EXPECT_EQ(g.offset(4), 6u);
  EXPECT_EQ(net.MaxDegree(), 2);
}

TEST(NetworkTest, HopDistancesAndDiameter) {
  const Network net = LineNetwork(6, 0.5);
  const auto d = net.HopDistances(0);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(d[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(net.Diameter(), 5);
  EXPECT_TRUE(net.Connected());
}

TEST(NetworkTest, DisconnectedDetected) {
  std::vector<Vec2> pts{{0, 0}, {0.5, 0}, {10, 0}, {10.5, 0}};
  const Network net = Network::WithSequentialIds(pts, Params::Default());
  EXPECT_FALSE(net.Connected());
  const auto d = net.HopDistances(0);
  EXPECT_EQ(d[2], -1);
}

TEST(NetworkTest, DensityCountsUnitBall) {
  const Network net = LineNetwork(9, 0.25);  // 4 neighbors each side within 1
  EXPECT_EQ(net.Density(), 9);
}

}  // namespace
}  // namespace dcc::sinr
