// The round memo must be invisible except for speed: every round of the
// all-listening Engine::StepInto, hit or miss, equals the explicit
// StepInto of a second engine, which never memoises, run on the complement
// listener list — receptions bit for bit (listener, sender, SINR bits) and
// Stats (rounds, transmissions, receptions and the grid counters) after
// every round. The sequences replay a small pool of transmitter sequences,
// so most rounds repeat one the memo already holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dcc/common/rng.h"
#include "dcc/sim/runner.h"
#include "dcc/sinr/engine.h"
#include "dcc/sinr/network.h"
#include "dcc/workload/generators.h"

namespace dcc {
namespace {

using sinr::Engine;
using sinr::Network;
using sinr::Params;
using sinr::Reception;
using sinr::Shadowing;
using Sequence = std::vector<std::size_t>;

Engine::Options Options(Engine::Mode mode, int threads = 1) {
  Engine::Options options;
  options.mode = mode;
  options.threads = threads;
  return options;
}

Network MakeUniformNet(int n, double side, double shadowing_spread,
                       std::uint64_t seed) {
  Params params = Params::Default();
  params.id_space = 1 << 17;
  auto pts = workload::UniformSquare(n, side, seed);
  std::vector<NodeId> ids(pts.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<NodeId>(3 * i + 5);
  }
  return Network(std::move(pts), std::move(ids), params,
                 Shadowing{shadowing_spread, /*seed=*/17});
}

// Every node of [0, n) that `tx` does not name, in node order.
Sequence Complement(std::size_t n, std::span<const std::size_t> tx) {
  std::vector<char> is_tx(n, 0);
  for (const std::size_t v : tx) is_tx[v] = 1;
  Sequence out;
  for (std::size_t u = 0; u < n; ++u) {
    if (!is_tx[u]) out.push_back(u);
  }
  return out;
}

// `count` distinct nodes of [0, n) in random order.
Sequence RandomSequence(std::size_t n, std::size_t count, Xoshiro256ss& rng) {
  Sequence all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(all[i], all[i + rng.NextBelow(n - i)]);
  }
  all.resize(count);
  return all;
}

void ExpectSameReceptions(const std::vector<Reception>& want,
                          const std::vector<Reception>& got,
                          const std::string& where) {
  ASSERT_EQ(want.size(), got.size()) << where;
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(want[k].listener, got[k].listener) << where << " k=" << k;
    EXPECT_EQ(want[k].sender, got[k].sender) << where << " k=" << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(want[k].sinr),
              std::bit_cast<std::uint64_t>(got[k].sinr))
        << where << " k=" << k;
  }
}

// parallel_rounds and parallel_small_rounds are left out: a hit dispatches
// nothing, so they count only the rounds the engine resolves.
void ExpectSameStats(const Engine::Stats& want, const Engine::Stats& got,
                     const std::string& where) {
  EXPECT_EQ(want.rounds, got.rounds) << where;
  EXPECT_EQ(want.transmissions, got.transmissions) << where;
  EXPECT_EQ(want.receptions, got.receptions) << where;
  EXPECT_EQ(want.grid_pruned, got.grid_pruned) << where;
  EXPECT_EQ(want.grid_exact_fallbacks, got.grid_exact_fallbacks) << where;
  EXPECT_EQ(want.tile_states_computed, got.tile_states_computed) << where;
}

// One engine running the all-listening StepInto beside a second one, with
// the same options, running the explicit StepInto on the complement.
class Replay {
 public:
  Replay(const Network& net, const Engine::Options& options)
      : net_(net), memo_(net, options), fresh_(net, options) {}

  void Run(const Sequence& tx, const std::string& where) {
    memo_.StepInto(tx, got_);
    fresh_.StepInto(tx, Complement(net_.size(), tx), want_);
    ExpectSameReceptions(want_, got_, where);
    ExpectSameStats(fresh_.stats(), memo_.stats(), where);
  }

  const std::vector<Reception>& last() const { return got_; }

 private:
  const Network& net_;
  const Engine memo_;
  const Engine fresh_;
  std::vector<Reception> want_, got_;
};

// Replays `picks` rounds drawn from a pool of `pool_size` sequences of
// 1..max_tx transmitters (and the empty one), so most rounds repeat.
void ReplayPool(const Network& net, const Engine::Options& options,
                std::size_t pool_size, std::size_t max_tx, int picks,
                std::uint64_t seed, const std::string& label) {
  Xoshiro256ss rng(seed);
  std::vector<Sequence> pool{{}};
  for (std::size_t i = 0; i < pool_size; ++i) {
    pool.push_back(RandomSequence(net.size(), 1 + rng.NextBelow(max_tx), rng));
  }
  Replay replay(net, options);
  for (int r = 0; r < picks; ++r) {
    const std::size_t p = rng.NextBelow(pool.size());
    replay.Run(pool[p], label + " round " + std::to_string(r) + " sequence " +
                            std::to_string(p));
  }
}

TEST(RoundMemoTest, ExactRoundsMatchRecomputation) {
  for (const double spread : {0.0, 0.5}) {
    const Network net = MakeUniformNet(300, 6.0, spread, 41);
    for (const int threads : {1, 3}) {
      ReplayPool(net, Options(Engine::Mode::kExact, threads), 40, 12, 400, 7,
                 "spread " + std::to_string(spread) + " threads " +
                     std::to_string(threads));
    }
  }
}

TEST(RoundMemoTest, GridPathRoundsAreNeverMemoised) {
  // Rounds above kExactMaxTransmitters take the grid path, whose counters
  // a hit would skip; the rounds at or below it run the exact kernel and
  // are memoised as in kExact.
  const Network net = MakeUniformNet(700, 13.0, 0.0, 1234);
  for (const int threads : {1, 3}) {
    Xoshiro256ss rng(99);
    std::vector<Sequence> pool;
    for (int i = 0; i < 6; ++i) {
      pool.push_back(RandomSequence(net.size(), 4 + rng.NextBelow(60), rng));
      pool.push_back(RandomSequence(
          net.size(), Engine::kExactMaxTransmitters + 1 + rng.NextBelow(80),
          rng));
    }
    Replay replay(net, Options(Engine::Mode::kGrid, threads));
    for (int r = 0; r < 48; ++r) {
      const std::size_t p = rng.NextBelow(pool.size());
      replay.Run(pool[p], "threads " + std::to_string(threads) + " round " +
                              std::to_string(r) + " |T| " +
                              std::to_string(pool[p].size()));
    }
  }
}

TEST(RoundMemoTest, OneSetInTwoOrdersIsTwoEntries) {
  // A listener's sum adds its gains in transmitter order, so one set in two
  // orders may give two sets of SINR bits; a memo keyed on the set would
  // return the first order's bits for the second.
  const Network net = MakeUniformNet(300, 6.0, 0.0, 5);
  Xoshiro256ss rng(3);
  for (const Engine::Mode mode : {Engine::Mode::kExact, Engine::Mode::kGrid}) {
    Replay replay(net, Options(mode));
    bool some_bits_differ = false;
    for (int trial = 0; trial < 20; ++trial) {
      const Sequence forward = RandomSequence(net.size(), 8, rng);
      const Sequence backward(forward.rbegin(), forward.rend());
      const std::string where = "trial " + std::to_string(trial);
      replay.Run(forward, where + " forward");
      const std::vector<Reception> a = replay.last();
      replay.Run(backward, where + " backward");
      const std::vector<Reception> b = replay.last();
      replay.Run(forward, where + " forward again");
      replay.Run(backward, where + " backward again");
      some_bits_differ |= a.size() != b.size();
      for (std::size_t k = 0; k < a.size() && k < b.size(); ++k) {
        some_bits_differ |= std::bit_cast<std::uint64_t>(a[k].sinr) !=
                            std::bit_cast<std::uint64_t>(b[k].sinr);
      }
    }
    // Otherwise the case could not tell the two keys apart.
    EXPECT_TRUE(some_bits_differ);
  }
}

TEST(RoundMemoTest, SetPositionsBetweenReplaysClearsTheMemo) {
  Network net = MakeUniformNet(250, 6.0, 0.0, 77);
  const std::vector<Vec2> before = net.positions();
  std::vector<Vec2> after = before;
  for (Vec2& p : after) p.x *= 0.7;  // a squeeze: most links change
  Xoshiro256ss rng(11);
  std::vector<Sequence> pool;
  for (int i = 0; i < 30; ++i) {
    pool.push_back(RandomSequence(net.size(), 1 + rng.NextBelow(10), rng));
  }
  const Box world{{0.0, 0.0}, {6.0, 6.0}};
  for (const Engine::Mode mode : {Engine::Mode::kExact, Engine::Mode::kGrid}) {
    Engine::Options options = Options(mode);
    options.coverage = world;
    Replay replay(net, options);
    for (int epoch = 0; epoch < 4; ++epoch) {
      net.SetPositions(epoch % 2 == 0 ? before : after);
      for (std::size_t p = 0; p < pool.size(); ++p) {
        replay.Run(pool[p], "epoch " + std::to_string(epoch) + " sequence " +
                                std::to_string(p));
      }
    }
  }
}

TEST(RoundMemoTest, OverflowClearsTheBudgetAndKeepsGoing) {
  // Every single-transmitter round reaches most of this small square, so
  // the distinct rounds need more than twice the budget: the memo clears
  // whole at least twice per pass, and the second pass, in another order,
  // replays entries both cleared and kept.
  const Network net = MakeUniformNet(800, 1.5, 0.0, 8);
  Replay replay(net, Options(Engine::Mode::kExact));
  std::size_t records = 0;
  for (std::size_t v = 0; v < net.size(); ++v) {
    replay.Run({v}, "first pass, transmitter " + std::to_string(v));
    records += 2 + replay.last().size();  // header, key, receptions
  }
  ASSERT_GT(records, 2 * Engine::kRoundMemoRecords);
  for (std::size_t i = 0; i < net.size(); ++i) {
    const std::size_t v = (i * 7) % net.size();  // 7 is prime to 800
    replay.Run({v}, "second pass, transmitter " + std::to_string(v));
  }
}

TEST(RoundMemoTest, ActivityMaskedExecTakesTheExplicitPath) {
  // Under a mask the off nodes neither transmit nor listen, and the mask
  // changes between replays of the same sequences, so neither a memo hit
  // nor the all-listening complement can stand in for the explicit round.
  const Network net = MakeUniformNet(300, 6.0, 0.0, 23);
  sim::Exec ex(net, Options(Engine::Mode::kExact));
  const Engine fresh(net, Options(Engine::Mode::kExact));
  std::vector<Reception> seen, want;
  Sequence seen_tx;
  ex.SetObserver([&](Round, const std::vector<std::size_t>& tx,
                     const std::vector<Reception>& receptions) {
    seen_tx = tx;
    seen = receptions;
  });
  const sim::Exec::Decide transmit = [](std::size_t) {
    return std::optional<sim::Message>(sim::Message{});
  };
  const sim::Exec::Hear ignore = [](std::size_t, const sim::Message&) {};

  Xoshiro256ss rng(5);
  std::vector<Sequence> pool;
  for (int i = 0; i < 12; ++i) {
    pool.push_back(RandomSequence(net.size(), 1 + rng.NextBelow(8), rng));
  }
  std::vector<char> mask(net.size(), 1);
  for (int phase = 0; phase < 4; ++phase) {
    // Phases 0 and 3 run unmasked; 1 and 2 switch different nodes off.
    const bool masked = phase == 1 || phase == 2;
    for (std::size_t u = 0; u < mask.size(); ++u) {
      mask[u] = masked ? (u % 5 != static_cast<std::size_t>(phase)) : 1;
    }
    ex.SetActivityMask(masked ? std::span<const char>(mask)
                              : std::span<const char>());
    for (std::size_t p = 0; p < pool.size(); ++p) {
      const std::string where =
          "phase " + std::to_string(phase) + " sequence " + std::to_string(p);
      ex.RunRound(pool[p], transmit, ignore);
      Sequence tx, listeners;
      for (const std::size_t v : pool[p]) {
        if (mask[v]) tx.push_back(v);
      }
      for (const std::size_t u : Complement(net.size(), tx)) {
        if (mask[u]) listeners.push_back(u);
      }
      ASSERT_EQ(seen_tx, tx) << where;
      if (tx.empty()) {  // the Exec runs no engine round
        EXPECT_TRUE(seen.empty()) << where;
        continue;
      }
      fresh.StepInto(tx, listeners, want);
      ExpectSameReceptions(want, seen, where);
    }
  }
  ExpectSameStats(fresh.stats(), ex.engine().stats(), "whole run");
}

}  // namespace
}  // namespace dcc
