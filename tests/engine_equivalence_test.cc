// Grid-indexed Engine::Step must reproduce the exact-mode oracle: same
// receptions (listener, sender) with the same SINR values, on randomized
// networks with and without shadowing, across transmitter densities and
// forced tile sizes. Both modes skip listeners beyond every transmitter's
// reception reach, so both are also checked against a test-local brute
// force that resolves every listener from Network::Gain. A kGrid round of
// at most Engine::kExactMaxTransmitters transmitters runs the exact kernel,
// so every case also has a round above that for the grid path. Also pins
// down that Engine::Stats counters survived the layered-engine refactor.
#include "dcc/sinr/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dcc/sinr/propagation.h"
#include "dcc/workload/generators.h"

namespace dcc::sinr {
namespace {

struct Scenario {
  std::int64_t n;
  double side;
  double shadowing_spread;
  std::int64_t tx_period;  // every tx_period-th node transmits
  double cell;             // grid tile size; 0 = auto
  double power = 0.0;      // transmission power; 0 = noise * beta (range 1)
  double alpha = 3.0;      // path-loss exponent
};

// Names each instance by its fields, e.g.
// RandomNetworks/EngineEquivalence.GridReproducesExactReceptions/
// n200_side14_shadow0p5_period2_cell0 in ctest, so the names are stable
// and selectable with -R ('p' stands for the decimal point).
void PrintTo(const Scenario& sc, std::ostream* os) {
  const auto num = [](double v) {
    std::ostringstream out;
    out << v;
    std::string s = out.str();
    std::replace(s.begin(), s.end(), '.', 'p');
    return s;
  };
  *os << "n" << sc.n << "_side" << num(sc.side) << "_shadow"
      << num(sc.shadowing_spread) << "_period" << sc.tx_period << "_cell"
      << num(sc.cell);
  if (sc.power != 0.0) *os << "_power" << num(sc.power);
  if (sc.alpha != 3.0) *os << "_alpha" << num(sc.alpha);
}

void SplitTxListeners(std::size_t n, std::int64_t period,
                      std::vector<std::size_t>& tx,
                      std::vector<std::size_t>& listeners) {
  tx.clear();
  listeners.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (i % static_cast<std::size_t>(period) == 0) {
      tx.push_back(i);
    } else {
      listeners.push_back(i);
    }
  }
}

void ExpectBitIdentical(const std::vector<Reception>& want,
                        const std::vector<Reception>& got,
                        const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(want[k].listener, got[k].listener) << label << " k=" << k;
    EXPECT_EQ(want[k].sender, got[k].sender) << label << " k=" << k;
    EXPECT_EQ(want[k].sinr, got[k].sinr) << label << " k=" << k;
  }
}

void ExpectSameReceptions(const std::vector<Reception>& exact,
                          const std::vector<Reception>& grid,
                          std::size_t n_tx, const std::string& label) {
  ASSERT_EQ(exact.size(), grid.size()) << label;
  for (std::size_t k = 0; k < exact.size(); ++k) {
    EXPECT_EQ(exact[k].listener, grid[k].listener) << label << " k=" << k;
    EXPECT_EQ(exact[k].sender, grid[k].sender) << label << " k=" << k;
    // Grid mode sums a listener's close and far gains apart, which
    // reassociates the sum: SINR values agree to >= 9 significant digits,
    // except that at extreme SINRs the `total - best` interference
    // subtraction amplifies summation-order noise by ~sinr (in both
    // modes), hence the eps * |T| * sinr cancellation term.
    const double s = exact[k].sinr;
    const double tol =
        s * (1e-9 + std::numeric_limits<double>::epsilon() *
                        static_cast<double>(n_tx) * s);
    EXPECT_NEAR(s, grid[k].sinr, tol) << label << " k=" << k;
  }
}

// The independent oracle: every listener resolved from Network::Gain (the
// propagation model, not the engine's gain table) over every transmitter
// with ResolveExact's arithmetic, with no reach and no spatial index.
std::vector<Reception> BruteForce(const Network& net,
                                  const std::vector<std::size_t>& tx,
                                  const std::vector<std::size_t>& listeners) {
  std::vector<Reception> out;
  for (const std::size_t u : listeners) {
    double total = 0.0;
    double best = -1.0;
    std::size_t best_tx = 0;
    for (const std::size_t v : tx) {
      const double g = net.Gain(v, u);
      total += g;
      if (g > best) {
        best = g;
        best_tx = v;
      }
    }
    const double interference = total - best;
    const double sinr = best / (net.params().noise + interference);
    if (sinr >= net.params().beta) out.push_back(Reception{u, best_tx, sinr});
  }
  return out;
}

// Checks one round of an exact and a grid engine against the brute force:
// the exact engine bit for bit (same arithmetic, same order). The grid
// engine runs the exact kernel on a round of at most
// Engine::kExactMaxTransmitters transmitters, so it matches bit for bit
// too; a larger round takes its grid path, which builds tile states, and
// matches within ExpectSameReceptions' tolerance.
void ExpectRoundMatchesBruteForce(const Engine& exact, const Engine& grid,
                                  const std::vector<std::size_t>& tx,
                                  const std::vector<std::size_t>& listeners,
                                  const std::string& label) {
  const std::vector<Reception> want = BruteForce(exact.net(), tx, listeners);
  ExpectBitIdentical(want, exact.Step(tx, listeners), label + " exact");
  const std::int64_t tile_states = grid.stats().tile_states_computed;
  const std::vector<Reception> got = grid.Step(tx, listeners);
  const bool grid_path = tx.size() > Engine::kExactMaxTransmitters;
  EXPECT_EQ(grid.stats().tile_states_computed > tile_states, grid_path)
      << label << " |T|=" << tx.size();
  if (grid_path) {
    ExpectSameReceptions(want, got, tx.size(), label + " grid");
  } else {
    ExpectBitIdentical(want, got, label + " grid");
  }
}

// The round as given, then three more ways that reach the exact kernel's
// edges: the listener span reversed (its lanes gather the gain rows in
// another order), every third listener (other vector tails) and the first
// transmitter alone.
void ExpectMatchesBruteForce(const Engine& exact, const Engine& grid,
                             const std::vector<std::size_t>& tx,
                             const std::vector<std::size_t>& listeners,
                             const std::string& label) {
  ExpectRoundMatchesBruteForce(exact, grid, tx, listeners, label);
  const std::vector<std::size_t> reversed(listeners.rbegin(),
                                          listeners.rend());
  ExpectRoundMatchesBruteForce(exact, grid, tx, reversed,
                               label + " reversed");
  std::vector<std::size_t> third;
  for (std::size_t i = 0; i < listeners.size(); i += 3) {
    third.push_back(listeners[i]);
  }
  ExpectRoundMatchesBruteForce(exact, grid, tx, third, label + " every third");
  ASSERT_FALSE(tx.empty()) << label;
  ExpectRoundMatchesBruteForce(exact, grid, {tx.front()}, listeners,
                               label + " one transmitter");
}

class EngineEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(EngineEquivalence, GridReproducesExactReceptions) {
  const Scenario sc = GetParam();
  Params params = Params::Default(sc.alpha);
  params.id_space = 1 << 16;
  if (sc.power != 0.0) params.power = sc.power;
  auto pts = workload::UniformSquare(static_cast<int>(sc.n), sc.side,
                                    /*seed=*/17 + sc.n);
  std::vector<NodeId> ids(pts.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<NodeId>(2 * i + 3);  // non-sequential ids
  }
  const Network net(pts, ids, params,
                    Shadowing{sc.shadowing_spread, /*seed=*/99});

  const Engine exact(net, {.mode = Engine::Mode::kExact});
  const Engine grid(net, {.mode = Engine::Mode::kGrid, .cell = sc.cell});
  ASSERT_EQ(exact.mode(), Engine::Mode::kExact);
  ASSERT_EQ(grid.mode(), Engine::Mode::kGrid);

  std::vector<std::size_t> tx, listeners;
  SplitTxListeners(net.size(), sc.tx_period, tx, listeners);
  const auto label = ::testing::PrintToString(sc.n) + "/" +
                     ::testing::PrintToString(sc.tx_period);
  ExpectMatchesBruteForce(exact, grid, tx, listeners, label);

  // And on a second, sparser round with the same engines (scratch reuse).
  SplitTxListeners(net.size(), 4 * sc.tx_period, tx, listeners);
  ExpectMatchesBruteForce(exact, grid, tx, listeners, label + " round2");

  // And on a crowded round, the complement split: every third node listens
  // and the rest transmit, more than Engine::kExactMaxTransmitters on every
  // network here, so the grid engine resolves it on its grid path.
  SplitTxListeners(net.size(), 3, listeners, tx);
  ASSERT_GT(tx.size(), Engine::kExactMaxTransmitters);
  ExpectMatchesBruteForce(exact, grid, tx, listeners, label + " crowded");
}

INSTANTIATE_TEST_SUITE_P(
    RandomNetworks, EngineEquivalence,
    ::testing::Values(
        // No shadowing, dense and sparse transmitter sets, auto tile size.
        Scenario{200, 14.0, 0.0, 2, 0.0}, Scenario{200, 14.0, 0.0, 16, 0.0},
        // Forced tiny tiles exercise multi-tile classification at small n.
        Scenario{150, 12.0, 0.0, 4, 1.0},
        // Shadowed gains widen the envelope bounds; both densities.
        Scenario{200, 14.0, 0.5, 2, 0.0}, Scenario{200, 14.0, 0.25, 8, 1.5},
        // Dense network (clustered interference) and a sparse one.
        Scenario{300, 8.0, 0.0, 4, 0.0}, Scenario{100, 40.0, 0.0, 4, 2.0},
        // Power above noise * beta: transmission range (3.3 / 1.5)^(1/3)
        // ~ 1.3, so the reach is not the unit disk.
        Scenario{200, 14.0, 0.0, 4, 0.0, 3.3},
        // Off alpha = 3 the gains and the grid path's bounds take pow and
        // the portable kernels: a steeper and a flatter path loss, forced
        // tiny tiles, and shadowing.
        Scenario{200, 14.0, 0.0, 4, 0.0, 0.0, 4.0},
        Scenario{150, 12.0, 0.0, 4, 1.0, 0.0, 4.0},
        Scenario{200, 14.0, 0.0, 2, 0.0, 0.0, 2.5},
        Scenario{200, 14.0, 0.4, 4, 0.0, 0.0, 2.5}));

TEST(EngineEquivalenceTest, LargeNetworkBeyondGainMatrix) {
  // Above Engine::kGainMatrixLimit every gain, shadowed or not, comes from
  // the gain kernel and kAuto resolves to kGrid; compare against the
  // brute force over Network::Gain.
  Params params = Params::Default();
  params.id_space = 1 << 16;
  const auto pts = workload::UniformSquare(2500, 50.0, 7);
  std::vector<NodeId> ids(pts.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<NodeId>(i + 1);
  }
  for (const double spread : {0.0, 0.4}) {
    const Network net(pts, ids, params, Shadowing{spread, 11});
    ASSERT_GT(net.size(), Engine::kGainMatrixLimit);

    const Engine exact(net, {.mode = Engine::Mode::kExact});
    const Engine automatic(net);  // defaults: kAuto
    ASSERT_EQ(automatic.mode(), Engine::Mode::kGrid);

    std::vector<std::size_t> tx, listeners;
    SplitTxListeners(net.size(), 8, tx, listeners);
    ExpectMatchesBruteForce(exact, automatic, tx, listeners,
                            "large spread=" + std::to_string(spread));
  }
}

TEST(EngineEquivalenceTest, ReachKeepsEveryReceivableListener) {
  // Four transmitters 10 apart, each ringed by listeners at distances
  // 0.80, 0.81, ..., 1.40, which spans the edge of reception under the
  // paper's range, a larger power (range ~1.3) and shadowed gains (up to
  // 1.5x, range ~1.14): a reach even 2% short drops receptions the brute
  // force keeps. The same rings are also heard with 61 more transmitters
  // in a block about 40 away, a round of 65 that the grid engine resolves
  // on its grid path, reach included.
  std::vector<Vec2> pts;
  std::vector<std::size_t> tx, listeners;
  for (const Vec2 c : {Vec2{0, 0}, Vec2{10, 0}, Vec2{0, 10}, Vec2{10, 10}}) {
    tx.push_back(pts.size());
    pts.push_back(c);
    for (int k = 0; k <= 60; ++k) {
      const double d = 0.8 + 0.01 * k;
      const double angle = 2.39996 * k;  // golden angle: spread around c
      listeners.push_back(pts.size());
      pts.push_back({c.x + d * std::cos(angle), c.y + d * std::sin(angle)});
    }
  }
  std::vector<std::size_t> crowd = tx;
  for (int k = 0; k < 61; ++k) {
    crowd.push_back(pts.size());
    pts.push_back({40.0 + 0.5 * (k % 8), 40.0 + 0.5 * (k / 8)});
  }
  ASSERT_EQ(crowd.size(), Engine::kExactMaxTransmitters + 1);
  std::vector<NodeId> ids(pts.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<NodeId>(i + 1);
  Params strong = Params::Default();
  strong.power = 3.3;
  const Params def = Params::Default();
  const std::vector<std::pair<std::string, Network>> nets = {
      {"default", Network(pts, ids, def)},
      {"power3.3", Network(pts, ids, strong)},
      {"shadowed", Network(pts, ids, def, Shadowing{0.5, 11})}};
  for (const auto& [label, net] : nets) {
    const Engine exact(net, {.mode = Engine::Mode::kExact});
    const Engine grid(net, {.mode = Engine::Mode::kGrid, .cell = 1.0});
    ExpectMatchesBruteForce(exact, grid, tx, listeners, label);
    ExpectMatchesBruteForce(exact, grid, crowd, listeners, label + " crowd");
    // Not vacuous: in both rounds some reception lands in the outer 5% of
    // the range.
    const double range = net.params().TransmissionRange();
    for (const auto* round : {&tx, &crowd}) {
      const auto recs = BruteForce(net, *round, listeners);
      EXPECT_TRUE(
          std::any_of(recs.begin(), recs.end(), [&](const Reception& r) {
            return net.Distance(r.sender, r.listener) > 0.95 * range;
          }))
          << label << " |T|=" << round->size();
    }
  }
}

TEST(EngineEquivalenceTest, StepIntoMatchesStepAndReusesBuffer) {
  Params params = Params::Default();
  auto pts = workload::UniformSquare(120, 9.0, 31);
  const Network net = Network::WithSequentialIds(std::move(pts), params);
  const Engine eng(net, {.mode = Engine::Mode::kGrid});

  std::vector<std::size_t> tx, listeners;
  SplitTxListeners(net.size(), 3, tx, listeners);
  const auto from_step = eng.Step(tx, listeners);

  std::vector<Reception> out;
  out.reserve(net.size());
  const auto* data_before = out.data();
  eng.StepInto(tx, listeners, out);
  ASSERT_EQ(out.size(), from_step.size());
  for (std::size_t k = 0; k < out.size(); ++k) {
    EXPECT_EQ(out[k].listener, from_step[k].listener);
    EXPECT_EQ(out[k].sender, from_step[k].sender);
  }
  // A second call must reuse the buffer, not reallocate.
  eng.StepInto(tx, listeners, out);
  EXPECT_EQ(out.data(), data_before);
}

TEST(EngineEquivalenceTest, StatsCountersSurviveRefactor) {
  // Regression: the refactored engine keeps the legacy counter semantics —
  // rounds counts Step calls (even empty ones), transmissions sums |T|,
  // receptions sums successful deliveries — in both modes.
  Params params = Params::Default();
  auto pts = workload::UniformSquare(150, 10.0, 41);
  const Network net = Network::WithSequentialIds(std::move(pts), params);

  for (const auto mode : {Engine::Mode::kExact, Engine::Mode::kGrid}) {
    Engine eng(net, {.mode = mode});
    std::vector<std::size_t> tx, listeners;
    SplitTxListeners(net.size(), 10, tx, listeners);
    const auto recs1 = eng.Step(tx, listeners);
    const auto recs2 = eng.Step({0}, {1, 2, 3});
    eng.Step({}, {});  // counted as a round, no transmissions
    EXPECT_EQ(eng.stats().rounds, 3);
    EXPECT_EQ(eng.stats().transmissions,
              static_cast<std::int64_t>(tx.size()) + 1);
    EXPECT_EQ(eng.stats().receptions,
              static_cast<std::int64_t>(recs1.size() + recs2.size()));
    eng.ResetStats();
    EXPECT_EQ(eng.stats().rounds, 0);
    EXPECT_EQ(eng.stats().transmissions, 0);
    EXPECT_EQ(eng.stats().receptions, 0);
  }

  // Grid mode accounts every listener of a round its grid path resolves
  // (more than kExactMaxTransmitters transmitters) as either pruned or
  // exact-resolved; a smaller round runs the exact kernel and counts
  // neither.
  Engine grid(net, {.mode = Engine::Mode::kGrid});
  std::vector<std::size_t> tx, listeners;
  SplitTxListeners(net.size(), 5, tx, listeners);
  ASSERT_LE(tx.size(), Engine::kExactMaxTransmitters);
  grid.Step(tx, listeners);
  EXPECT_EQ(grid.stats().grid_pruned, 0);
  EXPECT_EQ(grid.stats().grid_exact_fallbacks, 0);
  SplitTxListeners(net.size(), 2, tx, listeners);
  ASSERT_GT(tx.size(), Engine::kExactMaxTransmitters);
  grid.Step(tx, listeners);
  EXPECT_EQ(grid.stats().grid_pruned + grid.stats().grid_exact_fallbacks,
            static_cast<std::int64_t>(listeners.size()));
}

TEST(EngineEquivalenceTest, GridRunsTheExactKernelUpToTheCutover) {
  // One rule per round: a kGrid round of kExactMaxTransmitters
  // transmitters is resolved by the exact kernel, every SINR bit included,
  // and leaves the three grid counters alone; one more transmitter takes
  // the grid path.
  Params params = Params::Default();
  params.id_space = 1 << 16;
  const Network net = Network::WithSequentialIds(
      workload::UniformSquare(300, 14.0, 61), params);
  const Engine exact(net, {.mode = Engine::Mode::kExact});
  const Engine grid(net, {.mode = Engine::Mode::kGrid});
  std::vector<std::size_t> tx, listeners;
  for (std::size_t i = 0; i < net.size(); ++i) {
    (i < Engine::kExactMaxTransmitters ? tx : listeners).push_back(i);
  }
  const std::vector<Reception> want = exact.Step(tx, listeners);
  ASSERT_FALSE(want.empty());
  ExpectBitIdentical(want, grid.Step(tx, listeners), "64");
  EXPECT_EQ(grid.stats().grid_pruned, 0);
  EXPECT_EQ(grid.stats().grid_exact_fallbacks, 0);
  EXPECT_EQ(grid.stats().tile_states_computed, 0);

  tx.push_back(listeners.front());
  listeners.erase(listeners.begin());
  ASSERT_EQ(tx.size(), Engine::kExactMaxTransmitters + 1);
  const std::vector<Reception> brute = BruteForce(net, tx, listeners);
  ASSERT_FALSE(brute.empty());
  ExpectSameReceptions(brute, grid.Step(tx, listeners), tx.size(), "65");
  EXPECT_GT(grid.stats().tile_states_computed, 0);
  EXPECT_EQ(grid.stats().grid_pruned + grid.stats().grid_exact_fallbacks,
            static_cast<std::int64_t>(listeners.size()));
}

TEST(EngineEquivalenceTest, ExactModeHasIdenticalLegacyBehavior) {
  // The deterministic boundary case from engine_test must hold in both
  // modes, each skipping listeners beyond the reception reach: a lone
  // transmitter is received at distance exactly 1 (SINR == beta) and not
  // at 1.01.
  std::vector<Vec2> pts{{0, 0}, {0.5, 0}, {1.0, 0}, {1.01, 0}};
  const Network net = Network::WithSequentialIds(pts, Params::Default());
  for (const auto mode : {Engine::Mode::kExact, Engine::Mode::kGrid}) {
    const Engine eng(net, {.mode = mode, .cell = 0.5});
    const auto recs = eng.Step({0}, {1, 2, 3});
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].listener, 1u);
    EXPECT_EQ(recs[1].listener, 2u);
  }
}

// A transmitter cannot listen: a listener span that holds one aborts the
// round, serial or sharded, in kExact with and without the engine's gain
// table and on kGrid's grid path (a round of more than
// kExactMaxTransmitters transmitters).
TEST(EngineEquivalenceDeathTest, TransmitterInListenerSpanAborts) {
  // The engines below run pool threads, which fork() would not copy.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Params params = Params::Default();
  params.id_space = 1 << 16;
  const Network with_matrix = Network::WithSequentialIds(
      workload::UniformSquare(200, 14.0, 5), params);
  const Network without_matrix = Network::WithSequentialIds(
      workload::UniformSquare(2100, 46.0, 5), params);
  ASSERT_LE(with_matrix.size(), Engine::kGainMatrixLimit);
  ASSERT_GT(without_matrix.size(), Engine::kGainMatrixLimit);
  struct Case {
    const char* label;
    const Network& net;
    Engine::Mode mode;
    std::int64_t tx_period;
  };
  for (const Case& c : {Case{"exact", with_matrix, Engine::Mode::kExact, 4},
                        Case{"exact without matrix", without_matrix,
                             Engine::Mode::kExact, 4},
                        Case{"grid", with_matrix, Engine::Mode::kGrid, 2}}) {
    std::vector<std::size_t> tx, listeners;
    SplitTxListeners(c.net.size(), c.tx_period, tx, listeners);
    listeners.push_back(tx[tx.size() / 2]);
    for (const int threads : {1, 3}) {
      const Engine eng(c.net, {.mode = c.mode, .threads = threads});
      ASSERT_EQ(eng.threads(), threads);
      EXPECT_DEATH(eng.Step(tx, listeners), "DCC_CHECK failed")
          << c.label << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace dcc::sinr
