#include "dcc/scenario/dynamics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "dcc/common/rng.h"
#include "dcc/scenario/scenario.h"
#include "dcc/sinr/engine.h"
#include "dcc/workload/generators.h"

namespace dcc::scenario {
namespace {

ScenarioSpec SmallDynamicSpec() {
  ScenarioSpec spec;
  spec.topology_params.Set("n", "40");
  spec.topology_params.Set("side", "4");
  spec.sinr.id_space = 4096;
  spec.dynamics.Set("model", "waypoint");
  spec.dynamics.Set("epochs", "3");
  spec.dynamics.Set("speed", "0.5");
  spec.dynamics.Set("churn", "0.1");
  spec.dynamics.Set("side", "4");
  return spec;
}

TEST(DynamicsTest, EveryEpochProducesAValidClustering) {
  const auto spec = SmallDynamicSpec();
  const RunReport rep = RunScenario(spec, 1);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.dynamic.model, "waypoint");
  ASSERT_EQ(rep.dynamic.epochs.size(), 3u);
  for (const auto& em : rep.dynamic.epochs) {
    EXPECT_EQ(em.Get("unassigned"), 0.0);
    EXPECT_EQ(em.Get("ok"), 1.0);
    EXPECT_GE(em.Get("members"), 1.0);
    EXPECT_GT(em.Get("rounds"), 0.0);
  }
  // Epoch 0 has no predecessor; every later epoch reports survival in [0,1].
  EXPECT_FALSE(rep.dynamic.epochs[0].Has("survival"));
  for (std::size_t e = 1; e < rep.dynamic.epochs.size(); ++e) {
    const double s = rep.dynamic.epochs[e].Get("survival");
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  EXPECT_EQ(rep.metrics.Get("epochs"), 3.0);
  EXPECT_GT(rep.metrics.Get("rounds_total"), 0.0);
}

TEST(DynamicsTest, GridEngineMatchesExactOnMovingNetwork) {
  // The same dynamic scenario under both interference strategies: the
  // grid engine, re-tiled every epoch, must reproduce the exact engine's
  // protocol execution epoch for epoch, metric for metric.
  auto spec = SmallDynamicSpec();
  spec.dynamics.Set("model", "walk");
  spec.engine.mode = sinr::Engine::Mode::kExact;
  const RunReport exact = RunScenario(spec, 2);
  spec.engine.mode = sinr::Engine::Mode::kGrid;
  const RunReport grid = RunScenario(spec, 2);
  ASSERT_TRUE(exact.ok) << exact.error;
  ASSERT_TRUE(grid.ok) << grid.error;
  ASSERT_EQ(exact.dynamic.epochs.size(), grid.dynamic.epochs.size());
  for (std::size_t e = 0; e < exact.dynamic.epochs.size(); ++e) {
    EXPECT_EQ(exact.dynamic.epochs[e].entries(),
              grid.dynamic.epochs[e].entries())
        << "epoch " << e;
  }
  EXPECT_EQ(exact.metrics.entries(), grid.metrics.entries());
}

TEST(DynamicsTest, EngineStepMatchesExactWhileNodesMove) {
  // Engine-level pin: random per-round motion, with one grid engine and one
  // exact engine built before the first move and stepped every round with
  // nothing but SetPositions in between. Reusing the exact engine is the
  // point: its reception reach depends on positions too, so both engines
  // must follow every move on their own. Odd rounds have about 110
  // transmitters, more than Engine::kExactMaxTransmitters, so the grid
  // engine resolves them on its re-tiled grid path; even rounds have about
  // 27, which both engines resolve with the exact kernel. With the
  // engines' position version check disabled, the two diverge within the
  // first ten rounds.
  const int n = 220;
  const double side = 9.0;
  auto pts = workload::UniformSquare(n, side, 21);
  sinr::Network net = workload::MakeNetwork(pts, sinr::Params::Default(), 22);

  sinr::Engine::Options grid_opts;
  grid_opts.mode = sinr::Engine::Mode::kGrid;
  grid_opts.cell = 1.5;
  grid_opts.coverage = Box{{0.0, 0.0}, {side, side}};
  const sinr::Engine grid_engine(net, grid_opts);
  sinr::Engine::Options exact_opts;
  exact_opts.mode = sinr::Engine::Mode::kExact;
  const sinr::Engine exact_engine(net, exact_opts);

  Xoshiro256ss rng(23);
  std::vector<sinr::Reception> out_grid, out_exact;
  for (int round = 0; round < 40; ++round) {
    for (auto& p : pts) {
      p.x = std::clamp(p.x + 0.4 * (2.0 * rng.NextDouble() - 1.0), 0.0, side);
      p.y = std::clamp(p.y + 0.4 * (2.0 * rng.NextDouble() - 1.0), 0.0, side);
    }
    net.SetPositions(pts);

    std::vector<std::size_t> tx, listeners;
    const std::uint64_t one_in = round % 2 == 0 ? 8 : 2;
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      (rng.NextBelow(one_in) == 0 ? tx : listeners).push_back(i);
    }
    if (tx.empty()) tx.push_back(listeners.back()), listeners.pop_back();
    grid_engine.StepInto(tx, listeners, out_grid);
    exact_engine.StepInto(tx, listeners, out_exact);

    ASSERT_EQ(out_grid.size(), out_exact.size()) << "round " << round;
    auto key = [](const sinr::Reception& r) {
      return std::pair(r.listener, r.sender);
    };
    auto by_key = [&](const sinr::Reception& a, const sinr::Reception& b) {
      return key(a) < key(b);
    };
    std::sort(out_grid.begin(), out_grid.end(), by_key);
    std::sort(out_exact.begin(), out_exact.end(), by_key);
    for (std::size_t i = 0; i < out_grid.size(); ++i) {
      EXPECT_EQ(key(out_grid[i]), key(out_exact[i])) << "round " << round;
      EXPECT_NEAR(out_grid[i].sinr, out_exact[i].sinr,
                  1e-9 * out_exact[i].sinr);
    }
  }
}

TEST(DynamicsTest, ChurnedNodesLeaveAndRejoinTheIndex) {
  auto spec = SmallDynamicSpec();
  spec.dynamics.Set("epochs", "6");
  spec.dynamics.Set("churn", "0.4");
  spec.engine.mode = sinr::Engine::Mode::kGrid;
  const RunReport rep = RunScenario(spec, 5);
  ASSERT_TRUE(rep.ok) << rep.error;
  // With churn this aggressive some epoch must have seen movement in the
  // member count, and every epoch still clusters all members.
  double joined = 0, left = 0;
  for (const auto& em : rep.dynamic.epochs) {
    EXPECT_EQ(em.Get("unassigned"), 0.0);
    joined += em.Get("joined");
    left += em.Get("left");
  }
  EXPECT_GT(joined + left, 0.0);
}

TEST(DynamicsTest, UnknownDynamicsKeysAreRejected) {
  auto spec = SmallDynamicSpec();
  spec.dynamics.Set("bogus", "1");
  const RunReport rep = RunScenario(spec, 1);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("bogus"), std::string::npos) << rep.error;
}

TEST(DynamicsTest, UnknownModelListsRegisteredOnes) {
  auto spec = SmallDynamicSpec();
  spec.dynamics.Set("model", "teleport");
  const RunReport rep = RunScenario(spec, 1);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("waypoint"), std::string::npos) << rep.error;
}

TEST(DynamicsTest, DynamicsRequireClusteringAndNoFaults) {
  auto spec = SmallDynamicSpec();
  spec.algo = "local_broadcast";
  EXPECT_FALSE(RunScenario(spec, 1).ok);
  spec.algo = "clustering";
  spec.faults = 2;
  EXPECT_FALSE(RunScenario(spec, 1).ok);
}

TEST(DynamicsTest, SpecRoundTripsThroughFlags) {
  const auto spec = SmallDynamicSpec();
  EXPECT_TRUE(IsDynamic(spec));
  const ScenarioSpec parsed = ScenarioSpec::FromArgs(spec.ToArgs());
  EXPECT_EQ(parsed, spec);
  EXPECT_EQ(parsed.dynamics, spec.dynamics);
  EXPECT_FALSE(IsDynamic(ScenarioSpec{}));
  EXPECT_THROW(ScenarioSpec::FromArgs({"--dynamics="}), InvalidArgument);
  // Strict ParamMap grammar: a trailing comma is malformed, not ignored.
  EXPECT_THROW(ScenarioSpec::FromArgs({"--dynamics=model=waypoint,"}),
               InvalidArgument);
}

TEST(DynamicsTest, RunsAreSeedDeterministic) {
  const auto spec = SmallDynamicSpec();
  const RunReport a = RunScenario(spec, 9);
  const RunReport b = RunScenario(spec, 9);
  std::ostringstream ja, jb;
  a.PrintJson(ja);
  b.PrintJson(jb);
  EXPECT_EQ(ja.str(), jb.str());
}

}  // namespace
}  // namespace dcc::scenario
