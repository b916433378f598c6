#include "dcc/sim/runner.h"

#include <gtest/gtest.h>

#include "dcc/sim/coverage.h"

namespace dcc::sim {
namespace {

sinr::Network LineNetwork(int n, double pitch) {
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) pts.push_back({i * pitch, 0.0});
  return sinr::Network::WithSequentialIds(std::move(pts),
                                          sinr::Params::Default());
}

TEST(ExecTest, RoundsAdvanceEvenWhenSilent) {
  const auto net = LineNetwork(3, 0.5);
  Exec ex(net);
  ex.RunRound({0, 1, 2}, [](std::size_t) { return std::nullopt; },
              [](std::size_t, const Message&) {});
  EXPECT_EQ(ex.rounds(), 1);
  ex.ChargeRounds(10);
  EXPECT_EQ(ex.rounds(), 11);
  EXPECT_THROW(ex.ChargeRounds(-1), InvalidArgument);
}

TEST(ExecTest, BackgroundTransmitterIndexValidated) {
  const auto net = LineNetwork(2, 0.5);
  Exec ex(net);
  EXPECT_THROW(ex.SetBackgroundTransmitters({5}, Message{}), InvalidArgument);
}

TEST(ExecTest, SingleTransmitterDelivers) {
  const auto net = LineNetwork(3, 0.5);
  Exec ex(net);
  int heard = 0;
  const int tx_count = ex.RunRound(
      {0},
      [&](std::size_t) {
        Message m;
        m.src = net.id(0);
        m.a = 77;
        return std::optional<Message>(m);
      },
      [&](std::size_t listener, const Message& m) {
        EXPECT_EQ(m.a, 77);
        EXPECT_TRUE(listener == 1 || listener == 2);
        ++heard;
      });
  EXPECT_EQ(tx_count, 1);
  EXPECT_EQ(heard, 2);  // both within range 1
}

TEST(ExecTest, TransmitterDoesNotHearItself) {
  const auto net = LineNetwork(2, 0.5);
  Exec ex(net);
  ex.RunRound(
      {0, 1},
      [&](std::size_t i) {
        if (i != 0) return std::optional<Message>();
        Message m;
        m.src = net.id(0);
        return std::optional<Message>(m);
      },
      [&](std::size_t listener, const Message&) { EXPECT_NE(listener, 0u); });
}

TEST(ExecTest, MessageRoutingMatchesSender) {
  // Two far-apart transmitters: each nearby listener hears the right one.
  std::vector<Vec2> pts{{0, 0}, {0.3, 0}, {10, 0}, {10.3, 0}};
  const auto net = sinr::Network::WithSequentialIds(pts, sinr::Params::Default());
  Exec ex(net);
  ex.RunRound(
      {0, 2},
      [&](std::size_t i) {
        Message m;
        m.src = net.id(i);
        m.a = static_cast<std::int64_t>(i);
        return std::optional<Message>(m);
      },
      [&](std::size_t listener, const Message& m) {
        if (listener == 1) {
          EXPECT_EQ(m.a, 0);
        }
        if (listener == 3) {
          EXPECT_EQ(m.a, 2);
        }
      });
}

TEST(ExecTest, ObserverSeesRounds) {
  const auto net = LineNetwork(3, 0.5);
  Exec ex(net);
  int calls = 0;
  ex.SetObserver([&](Round, const std::vector<std::size_t>&,
                     const std::vector<sinr::Reception>&) { ++calls; });
  ex.RunRound({0}, [&](std::size_t) {
    Message m;
    return std::optional<Message>(m);
  }, [](std::size_t, const Message&) {});
  ex.RunRound({0}, [](std::size_t) { return std::nullopt; },
              [](std::size_t, const Message&) {});
  EXPECT_EQ(calls, 2);
}

TEST(ExecTest, OutOfRangeCandidateRejected) {
  const auto net = LineNetwork(4, 0.5);
  Exec ex(net);
  const Exec::Decide transmit = [](std::size_t) {
    return std::optional<Message>(Message{});
  };
  const Exec::Hear ignore = [](std::size_t, const Message&) {};
  EXPECT_THROW(ex.RunRound({0, 7}, transmit, ignore), InvalidArgument);
  EXPECT_EQ(ex.rounds(), 0);
  // The rejected round left no transmitter behind.
  EXPECT_EQ(ex.RunRound({1}, transmit, ignore), 1);
  EXPECT_EQ(ex.rounds(), 1);
}

// Nodes at x = 0, 0.5, 1 and 5 with comm radius 0.8: the comm graph is
// 0-1, 1-2, and node 3 has no neighbors. Observer calls are fed directly.
TEST(NeighborCoverageTest, CountsCommNeighborsCumulativelyAndPerRound) {
  const auto net = sinr::Network::WithSequentialIds(
      {{0.0, 0.0}, {0.5, 0.0}, {1.0, 0.0}, {5.0, 0.0}},
      sinr::Params::Default());
  NeighborCoverage cov(net, {0, 1, 3});  // node 2 is not a member
  EXPECT_EQ(cov.covered(), 1u);          // node 3, vacuously
  const Exec::Observer observe = cov.Observer();

  observe(0, {1}, {{0, 1, 2.0}});  // 1 reaches 0 of {0, 2}
  observe(1, {1}, {{2, 1, 2.0}});  // ... then 2: covered, never in one round
  EXPECT_EQ(cov.covered(), 2u);
  EXPECT_EQ(cov.covered_in_one_round(), 0u);

  observe(2, {0}, {{1, 0, 2.0}, {2, 0, 2.0}});  // 2 is beyond comm range
  observe(3, {2}, {{1, 2, 2.0}});               // a non-member never counts
  EXPECT_EQ(cov.covered(), 3u);
  EXPECT_EQ(cov.covered_in_one_round(), 1u);  // node 0 in round 2

  observe(4, {3}, {});  // an isolated member covers itself in one round
  EXPECT_EQ(cov.covered(), 3u);
  EXPECT_EQ(cov.covered_in_one_round(), 2u);
}

}  // namespace
}  // namespace dcc::sim
