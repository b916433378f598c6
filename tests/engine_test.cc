#include "dcc/sinr/engine.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dcc::sinr {
namespace {

Network LineNetwork(int n, double pitch, Params p = Params::Default()) {
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) pts.push_back({i * pitch, 0.0});
  return Network::WithSequentialIds(std::move(pts), p);
}

TEST(EngineTest, LoneTransmitterReachesRangeOne) {
  // Nodes at distances 0.5, 1.0 (exactly range), 1.01 (beyond).
  std::vector<Vec2> pts{{0, 0}, {0.5, 0}, {1.0, 0}, {1.01, 0}};
  const Network net = Network::WithSequentialIds(pts, Params::Default());
  const Engine eng(net);
  const auto recs = eng.Step({0}, {1, 2, 3});
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].listener, 1u);
  EXPECT_EQ(recs[1].listener, 2u);  // boundary d=1: SINR == beta exactly
}

TEST(EngineTest, SinrMatchesHandComputation) {
  // Transmitters at 0 and 2; listener at 0.5.
  std::vector<Vec2> pts{{0, 0}, {2.0, 0}, {0.5, 0}};
  const Network net = Network::WithSequentialIds(pts, Params::Default());
  const Engine eng(net);
  const Params& p = net.params();
  const double sig = p.power / std::pow(0.5, p.alpha);
  const double intf = p.power / std::pow(1.5, p.alpha);
  const double want = sig / (p.noise + intf);
  const auto recs = eng.Step({0, 1}, {2});
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].listener, 2u);
  EXPECT_EQ(recs[0].sender, 0u);
  EXPECT_NEAR(recs[0].sinr, want, 1e-12);
}

TEST(EngineTest, CollisionBlocksEquidistantListeners) {
  // Two transmitters equidistant from the listener: SINR ~ 1 < beta.
  std::vector<Vec2> pts{{-0.4, 0}, {0.4, 0}, {0, 0}};
  const Network net = Network::WithSequentialIds(pts, Params::Default());
  const Engine eng(net);
  const auto recs = eng.Step({0, 1}, {2});
  EXPECT_TRUE(recs.empty());
}

TEST(EngineTest, CaptureEffect) {
  // A much closer transmitter wins despite a far interferer.
  std::vector<Vec2> pts{{0, 0}, {5.0, 0}, {0.1, 0}};
  const Network net = Network::WithSequentialIds(pts, Params::Default());
  const Engine eng(net);
  const auto recs = eng.Step({0, 1}, {2});
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].sender, 0u);
}

TEST(EngineTest, AtMostOneSenderPerListener) {
  // beta > 1 means at most one transmitter can clear the threshold.
  const Network net = LineNetwork(10, 0.3);
  const Engine eng(net);
  const auto recs = eng.Step({0, 9}, {1, 2, 3, 4, 5, 6, 7, 8});
  std::vector<int> count(10, 0);
  for (const auto& r : recs) ++count[r.listener];
  for (const int c : count) EXPECT_LE(c, 1);
}

TEST(EngineTest, NoiseLimitsRange) {
  // Even alone, a transmitter cannot be heard past range 1.
  const Network net = LineNetwork(2, 1.5);
  const Engine eng(net);
  EXPECT_TRUE(eng.Step({0}, {1}).empty());
}

TEST(EngineTest, InterferenceAccumulates) {
  // Many transmitters at distance ~1 jam a reception that a single
  // interferer would not.
  std::vector<Vec2> pts;
  pts.push_back({0, 0});     // transmitter of interest
  pts.push_back({0.72, 0});  // listener (within comm radius 0.8)
  const int ring = 12;
  for (int i = 0; i < ring; ++i) {
    const double a = 2 * 3.14159265 * i / ring;
    pts.push_back({0.72 + 1.3 * std::cos(a), 1.3 * std::sin(a)});
  }
  const Network net = Network::WithSequentialIds(pts, Params::Default());
  const Engine eng(net);
  // Alone: received.
  EXPECT_EQ(eng.Step({0}, {1}).size(), 1u);
  // With the whole ring transmitting: blocked.
  std::vector<std::size_t> tx{0};
  for (int i = 0; i < ring; ++i) tx.push_back(2 + static_cast<std::size_t>(i));
  EXPECT_TRUE(eng.Step(tx, {1}).empty());
}

TEST(EngineTest, StatsAccumulate) {
  const Network net = LineNetwork(4, 0.5);
  Engine eng(net);
  eng.Step({0}, {1, 2, 3});
  eng.Step({0, 1}, {2, 3});
  EXPECT_EQ(eng.stats().rounds, 2);
  EXPECT_EQ(eng.stats().transmissions, 3);
  EXPECT_GT(eng.stats().receptions, 0);
  eng.ResetStats();
  EXPECT_EQ(eng.stats().rounds, 0);
}

}  // namespace
}  // namespace dcc::sinr
