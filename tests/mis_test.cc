#include "dcc/mis/linial.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "dcc/common/rng.h"
#include "dcc/mis/local_mis.h"

namespace dcc::mis {
namespace {

LocalGraph PathGraph(int n) {
  LocalGraph g;
  g.adj.resize(static_cast<std::size_t>(n));
  for (int i = 0; i + 1 < n; ++i) {
    g.adj[static_cast<std::size_t>(i)].push_back(static_cast<std::size_t>(i + 1));
    g.adj[static_cast<std::size_t>(i + 1)].push_back(static_cast<std::size_t>(i));
  }
  return g;
}

LocalGraph RandomBoundedDegreeGraph(int n, int degree, std::uint64_t seed) {
  LocalGraph g;
  g.adj.resize(static_cast<std::size_t>(n));
  Xoshiro256ss rng(seed);
  for (int e = 0; e < n * degree / 2; ++e) {
    const auto a = rng.NextBelow(static_cast<std::uint64_t>(n));
    const auto b = rng.NextBelow(static_cast<std::uint64_t>(n));
    if (a == b) continue;
    auto& na = g.adj[a];
    auto& nb = g.adj[b];
    if (na.size() >= static_cast<std::size_t>(degree) ||
        nb.size() >= static_cast<std::size_t>(degree)) {
      continue;
    }
    if (std::find(na.begin(), na.end(), b) != na.end()) continue;
    na.push_back(b);
    nb.push_back(a);
  }
  return g;
}

std::vector<std::int64_t> SequentialIds(int n) {
  std::vector<std::int64_t> ids(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = i + 1;
  return ids;
}

TEST(LinialPlanTest, ReachesFixpointQuickly) {
  const auto plan = LinialPlan(1 << 16, 4);
  // log* shaped: a handful of rounds.
  EXPECT_GE(plan.size(), 1u);
  EXPECT_LE(plan.size(), 6u);
  // Color spaces strictly shrink.
  for (std::size_t i = 0; i + 1 < plan.size(); ++i) {
    EXPECT_LT(plan[i + 1].m, plan[i].m);
  }
}

TEST(LinialPlanTest, DegreeConstraintRespected) {
  for (const int delta : {2, 4, 8}) {
    for (const auto& round : LinialPlan(1 << 20, delta)) {
      EXPECT_GT(round.q, static_cast<std::int64_t>(delta) * round.t);
    }
  }
}

TEST(LinialStepTest, ProducesDistinctColorsForNeighbors) {
  // A clique of delta+1 nodes with distinct colors stays properly colored.
  const LinialRound round{11, 2, 1000};
  const std::vector<std::int64_t> colors{5, 123, 777};
  for (std::size_t v = 0; v < colors.size(); ++v) {
    std::vector<std::int64_t> ncs;
    for (std::size_t u = 0; u < colors.size(); ++u) {
      if (u != v) ncs.push_back(colors[u]);
    }
    const auto nv = LinialStep(colors[v], ncs, round);
    EXPECT_GE(nv, 0);
    EXPECT_LT(nv, round.q * round.q);
    for (const std::int64_t cu : ncs) {
      // A neighbor mapping through the same round from a different color
      // at the same evaluation point would differ; full properness is
      // checked by the whole-graph test below.
      (void)cu;
    }
  }
}

TEST(LinialColorReductionTest, ProperColoringOnPath) {
  const int n = 200;
  const LocalGraph g = PathGraph(n);
  std::vector<std::int64_t> colors(SequentialIds(n));
  for (auto& c : colors) --c;  // 0-based colors
  const auto run = LinialColorReduction(g, colors, 1 << 14, 2);
  EXPECT_LT(run.num_colors, 200);
  EXPECT_LE(run.local_rounds, 6);
  for (std::size_t v = 0; v + 1 < static_cast<std::size_t>(n); ++v) {
    EXPECT_NE(run.colors[v], run.colors[v + 1]);
  }
}

TEST(MisFromColoringTest, IndependentAndMaximal) {
  const int n = 300;
  const LocalGraph g = RandomBoundedDegreeGraph(n, 4, 99);
  std::vector<std::int64_t> colors(SequentialIds(n));
  for (auto& c : colors) --c;
  const auto reduced = LinialColorReduction(g, colors, 1 << 12, 4);
  const auto mis = MisFromColoring(g, reduced.colors, reduced.num_colors);
  EXPECT_TRUE(g.IsIndependent(mis.in_mis));
  EXPECT_TRUE(g.IsDominating(mis.in_mis));
}

TEST(LinialMisTest, FullPipeline) {
  const int n = 256;
  const LocalGraph g = RandomBoundedDegreeGraph(n, 5, 3);
  const auto mis = LinialMis(g, SequentialIds(n), 1 << 12);
  EXPECT_TRUE(g.IsIndependent(mis.in_mis));
  EXPECT_TRUE(g.IsDominating(mis.in_mis));
}

TEST(LinialMisTest, LocalRoundsGrowLikeLogStar) {
  // Rounds should be essentially flat as n doubles (log* growth).
  int prev = 0;
  for (const int logn : {8, 10, 12, 14}) {
    const int n = 1 << logn;
    const LocalGraph g = RandomBoundedDegreeGraph(std::min(n, 1024), 3,
                                                  static_cast<std::uint64_t>(logn));
    const auto mis = LinialMis(g, SequentialIds(static_cast<int>(g.size())),
                               n * 4);
    if (prev > 0) {
      EXPECT_LE(mis.local_rounds, prev + 40);
    }
    prev = mis.local_rounds;
  }
}

TEST(LocalMinimaStepTest, MinJoins) {
  const std::vector<std::pair<NodeId, MisState>> ns{
      {5, MisState::kUndecided}, {9, MisState::kUndecided}};
  EXPECT_EQ(LocalMinimaStep(3, MisState::kUndecided, ns), MisState::kInMis);
  EXPECT_EQ(LocalMinimaStep(7, MisState::kUndecided, ns),
            MisState::kUndecided);
}

TEST(LocalMinimaStepTest, DominationBeatsJoining) {
  const std::vector<std::pair<NodeId, MisState>> ns{{9, MisState::kInMis}};
  EXPECT_EQ(LocalMinimaStep(3, MisState::kUndecided, ns),
            MisState::kDominated);
}

TEST(LocalMinimaStepTest, DecidedStatesFrozen) {
  EXPECT_EQ(LocalMinimaStep(3, MisState::kInMis, {}), MisState::kInMis);
  EXPECT_EQ(LocalMinimaStep(3, MisState::kDominated, {}),
            MisState::kDominated);
}

TEST(LocalMinimaMisTest, ConvergesOnRandomGraphs) {
  const LocalGraph g = RandomBoundedDegreeGraph(400, 4, 17);
  const auto run = LocalMinimaMis(g, SequentialIds(400), 50);
  EXPECT_TRUE(run.all_decided);
  std::vector<bool> in(g.size());
  for (std::size_t v = 0; v < g.size(); ++v) {
    in[v] = run.state[v] == MisState::kInMis;
  }
  EXPECT_TRUE(g.IsIndependent(in));
  EXPECT_TRUE(g.IsDominating(in));
}

TEST(LocalMinimaMisTest, IndependenceHoldsEvenWhenCapped) {
  // Adversarial decreasing-ID path: slow convergence, but whatever joined
  // stays independent.
  const int n = 60;
  const LocalGraph g = PathGraph(n);
  std::vector<std::int64_t> ids(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = n - i;
  const auto run = LocalMinimaMis(g, ids, 3);  // deliberately tiny cap
  std::vector<bool> in(g.size());
  for (std::size_t v = 0; v < g.size(); ++v) {
    in[v] = run.state[v] == MisState::kInMis;
  }
  EXPECT_TRUE(g.IsIndependent(in));
}

// The runners over an explicit LOCAL round, as the SINR protocols call
// them: GraphRound delivers along the edges, and every runner spends one
// call of the round per LOCAL round it reports.
LocalRound CountingRound(const LocalGraph& g,
                         const std::vector<std::int64_t>& ids, int& calls) {
  return [round = GraphRound(g, ids), &calls](
             const std::vector<std::int64_t>& out, Inbox& inbox) {
    ++calls;
    round(out, inbox);
  };
}

TEST(GraphRoundTest, DeliversEachNeighborsWord) {
  const LocalGraph g = PathGraph(3);
  const std::vector<std::int64_t> ids{10, 20, 30};
  Inbox inbox(3, {{99, 99}});  // stale entries are replaced
  GraphRound(g, ids)({7, 8, 9}, inbox);
  using Heard = std::vector<std::pair<NodeId, std::int64_t>>;
  EXPECT_EQ(inbox[0], (Heard{{20, 8}}));
  EXPECT_EQ(inbox[1], (Heard{{10, 7}, {30, 9}}));
  EXPECT_EQ(inbox[2], (Heard{{20, 8}}));
  GraphRound(g)({7, 8, 9}, inbox);  // no ids: senders named by index
  EXPECT_EQ(inbox[1], (Heard{{0, 7}, {2, 9}}));
}

TEST(LocalMinimaMisTest, WithoutStopRunsToTheCap) {
  const LocalGraph g = RandomBoundedDegreeGraph(200, 4, 5);
  const auto ids = SequentialIds(200);
  int calls = 0;
  const auto stopped =
      LocalMinimaMis(CountingRound(g, ids, calls), ids, 40, true);
  EXPECT_EQ(calls, stopped.local_rounds);
  EXPECT_LT(stopped.local_rounds, 40);
  calls = 0;
  const auto full =
      LocalMinimaMis(CountingRound(g, ids, calls), ids, 40, false);
  EXPECT_EQ(calls, 40);
  EXPECT_EQ(full.local_rounds, 40);
  EXPECT_EQ(full.state, stopped.state);  // the fixpoint is final
  EXPECT_EQ(full.state, LocalMinimaMis(g, ids, 40).state);
}

TEST(MisFromColoringTest, StopWhenDecidedKeepsTheSet) {
  const LocalGraph g = RandomBoundedDegreeGraph(300, 4, 8);
  const auto ids = SequentialIds(300);
  std::vector<std::int64_t> colors(ids);
  for (auto& c : colors) --c;
  int calls = 0;
  const auto red = LinialColorReduction(CountingRound(g, ids, calls), colors,
                                        1 << 12, 4);
  EXPECT_EQ(calls, red.local_rounds);
  EXPECT_EQ(red.colors, LinialColorReduction(g, colors, 1 << 12, 4).colors);
  calls = 0;
  const auto early = MisFromColoring(CountingRound(g, ids, calls), red.colors,
                                     red.num_colors, true);
  EXPECT_EQ(calls, early.local_rounds);
  EXPECT_LT(early.local_rounds, red.num_colors);
  const auto full = MisFromColoring(g, red.colors, red.num_colors);
  EXPECT_EQ(full.local_rounds, red.num_colors);
  EXPECT_EQ(early.in_mis, full.in_mis);
  EXPECT_TRUE(g.IsIndependent(full.in_mis));
  EXPECT_TRUE(g.IsDominating(full.in_mis));
}

class LocalMinimaSweep : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(LocalMinimaSweep, IndependentOnAllShapes) {
  const auto [n, deg] = GetParam();
  const LocalGraph g = RandomBoundedDegreeGraph(
      n, deg, static_cast<std::uint64_t>(n * 31 + deg));
  const auto run = LocalMinimaMis(g, SequentialIds(n), 30);
  std::vector<bool> in(g.size());
  for (std::size_t v = 0; v < g.size(); ++v) {
    in[v] = run.state[v] == MisState::kInMis;
  }
  EXPECT_TRUE(g.IsIndependent(in));
  if (run.all_decided) {
    EXPECT_TRUE(g.IsDominating(in));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LocalMinimaSweep,
                         ::testing::Combine(::testing::Values(50, 200, 500),
                                            ::testing::Values(2, 4, 6)));

}  // namespace
}  // namespace dcc::mis
