// Golden reception pins for the protocol path: one fixed (spec, seed) per
// case, with the round count, the engine's counters and an order-sensitive
// digest of every (round, listener, sender) reception pinned to the values
// the code produced when they were recorded. A change that reorders a
// transmit set, drops a round or moves a single reception fails here, not
// just in a comparison of two runs of the same build. The last case pins
// the grid path's own counters over fixed engine rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dcc/cluster/clustering.h"
#include "dcc/cluster/sparsify.h"
#include "dcc/cluster/validate.h"
#include "dcc/common/rng.h"
#include "dcc/obs/metrics.h"
#include "dcc/scenario/scenario.h"
#include "dcc/workload/generators.h"

namespace dcc::scenario {
namespace {

constexpr const char* kProbeAlgo = "reception_pins.probe";

struct Observed {
  std::string algo;
  bool transmitters = false;  // digest transmit order, not receptions
  std::uint64_t digest = 0;
  sinr::Engine::Stats stats;
};

void Fold(std::uint64_t& h, std::uint64_t v) {
  h = (h ^ v) * 0x9e3779b97f4a7c15ull;
  h ^= h >> 32;
}

// Folds every (round, listener, sender) reception into `digest`.
sim::Exec::Observer DigestObserver(std::uint64_t& digest) {
  return [&digest](Round r, const std::vector<std::size_t>&,
                   const std::vector<sinr::Reception>& recs) {
    for (const sinr::Reception& rec : recs) {
      Fold(digest, static_cast<std::uint64_t>(r));
      Fold(digest, rec.listener);
      Fold(digest, rec.sender);
    }
  };
}

// Folds every round's transmitters, in the order the round lists them,
// into `digest`. The order is the engine's interference summation order,
// so a protocol that permutes a transmit set changes this digest even
// where every reception stays the same.
sim::Exec::Observer TransmitterDigestObserver(std::uint64_t& digest) {
  return [&digest](Round r, const std::vector<std::size_t>& transmitters,
                   const std::vector<sinr::Reception>&) {
    if (transmitters.empty()) return;
    Fold(digest, static_cast<std::uint64_t>(r));
    for (const std::size_t t : transmitters) Fold(digest, t);
  };
}

// FNV-1a of a report's JSON bytes.
std::uint64_t ReportHash(const RunReport& rep, std::string& json_out) {
  std::ostringstream json;
  rep.PrintJson(json);
  json_out = json.str();
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : json_out) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return h;
}

// Runs the named algorithm with an Exec observer folding every reception
// (or every round's transmitters) into the digest, and keeps the engine's
// counters.
class ProbeAlgorithm final : public Algorithm {
 public:
  explicit ProbeAlgorithm(Observed& obs) : obs_(obs) {}

  RunReport Run(RunContext& ctx) override {
    obs_.digest = 1469598103934665603ull;
    ctx.ex.SetObserver(obs_.transmitters
                           ? TransmitterDigestObserver(obs_.digest)
                           : DigestObserver(obs_.digest));
    RunReport rep = Algorithms().Get(obs_.algo)()->Run(ctx);
    obs_.stats = ctx.ex.engine().stats();
    return rep;
  }

 private:
  Observed& obs_;
};

struct Pins {
  double rounds_total;
  std::int64_t engine_rounds;
  std::int64_t transmissions;
  std::int64_t receptions;
  std::uint64_t digest;
};

// Runs `spec` at seed 1 with its algorithm wrapped in the probe; the
// returned Observed holds the probe's digest and the engine's counters.
const Observed& RunProbed(ScenarioSpec spec, bool transmitters,
                          RunReport& rep) {
  static Observed obs;  // outlives the factory registered below
  obs = Observed{};
  obs.algo = spec.algo;
  obs.transmitters = transmitters;
  Algorithms().Register(
      kProbeAlgo, [] { return std::make_unique<ProbeAlgorithm>(obs); },
      "reception pins probe");
  spec.algo = kProbeAlgo;
  rep = RunScenario(spec, /*seed=*/1);
  return obs;
}

void ExpectPinned(const std::string& topology, const std::string& algo,
                  const std::string& engine, const Pins& want) {
  RunReport rep;
  const Observed& obs = RunProbed(
      ScenarioSpec::FromArgs({"--topology=" + topology, "--algo=" + algo,
                              "--engine=" + engine, "--threads=1"}),
      /*transmitters=*/false, rep);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.metrics.Get("rounds_total"), want.rounds_total);
  EXPECT_EQ(obs.stats.rounds, want.engine_rounds);
  EXPECT_EQ(obs.stats.transmissions, want.transmissions);
  EXPECT_EQ(obs.stats.receptions, want.receptions);
  EXPECT_EQ(obs.digest, want.digest);
}

// The grid engine must reproduce the exact engine's receptions, so both
// clustering cases carry the same pins.
constexpr Pins kClustering{536264, 98431, 211981, 1336839,
                           0xe19748244a65b920ull};

TEST(ReceptionPinsTest, ClusteringExactEngine) {
  ExpectPinned("uniform:n=48,side=3.06", "clustering", "exact", kClustering);
}

TEST(ReceptionPinsTest, ClusteringGridEngine) {
  ExpectPinned("uniform:n=48,side=3.06", "clustering", "grid", kClustering);
}

// The engine's registry counters: one run adds the clustering pins' engine
// rounds and receptions, serial and sharded alike.
TEST(ReceptionPinsTest, EngineRoundAndReceptionCounters) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& rounds = reg.GetCounter("dcc_engine_rounds_total", "");
  obs::Counter& receptions = reg.GetCounter("dcc_engine_receptions_total", "");
  for (const char* threads : {"--threads=1", "--threads=2"}) {
    const ScenarioSpec spec = ScenarioSpec::FromArgs(
        {"--topology=uniform:n=48,side=3.06", "--algo=clustering",
         "--engine=exact", threads});
    const std::int64_t rounds_before = rounds.value();
    const std::int64_t receptions_before = receptions.value();
    const RunReport rep = RunScenario(spec, /*seed=*/1);
    ASSERT_TRUE(rep.ok) << threads << ": " << rep.error;
    EXPECT_EQ(rounds.value() - rounds_before, kClustering.engine_rounds)
        << threads;
    EXPECT_EQ(receptions.value() - receptions_before, kClustering.receptions)
        << threads;
  }
}

TEST(ReceptionPinsTest, GlobalBroadcast) {
  ExpectPinned("connected_uniform:n=64,side=3.54", "global_broadcast", "auto",
               {686138, 51868, 76063, 655497, 0x4822c28536a7e2b6ull});
}

// A dynamic run: mobility and churn between epochs move nodes across grid
// tiles and in and out of the rounds. Pins the totals, the prologue
// counter and a hash of the whole report's bytes, which are the same on a
// serial and on a sharded grid engine.
TEST(ReceptionPinsTest, DynamicWalkWithChurn) {
  obs::Counter& tile_states = obs::MetricsRegistry::Global().GetCounter(
      "dcc_engine_tile_states_total", "");
  for (const char* threads : {"--threads=1", "--threads=2"}) {
    const ScenarioSpec spec = ScenarioSpec::FromArgs(
        {"--topology=uniform:n=32,side=3.5",
         "--dynamics=model=walk,epochs=4,churn=0.3,side=3.5", "--engine=grid",
         "--cell=1.0", threads, "--id-space=4096"});
    const std::int64_t tile_states_before = tile_states.value();
    const RunReport rep = RunScenario(spec, /*seed=*/1);
    ASSERT_TRUE(rep.ok) << threads << ": " << rep.error;
    EXPECT_EQ(rep.metrics.Get("rounds_total"), 1237716) << threads;
    EXPECT_EQ(rep.metrics.Get("joined_total"), 5) << threads;
    EXPECT_EQ(rep.metrics.Get("left_total"), 16) << threads;
    // No round of this n = 32 spec has more than
    // Engine::kExactMaxTransmitters transmitters, so the grid engine
    // resolves every one with the exact kernel and builds no tile state.
    EXPECT_EQ(tile_states.value() - tile_states_before, 0) << threads;
    std::string json;
    EXPECT_EQ(ReportHash(rep, json), 0x2e80e4d15d3a3ba6ull)
        << threads << ": " << json;
  }
}

// Report-byte pins for the schedule callers the reception pins above do not
// cover, at seed 1 on the global broadcast case's topology. local_broadcast
// installs its own Exec observer, so only its report bytes can pin it. SNS
// guarantees coverage only at constant density; at this one (Gamma 23) it
// misses a few pairs and its report says ok: false, which the bytes pin too.
void ExpectReportPinned(const std::string& algo, std::uint64_t want) {
  const ScenarioSpec spec = ScenarioSpec::FromArgs(
      {"--topology=connected_uniform:n=64,side=3.54", "--algo=" + algo});
  const RunReport rep = RunScenario(spec, /*seed=*/1);
  std::string json;
  EXPECT_EQ(ReportHash(rep, json), want) << json;
}

TEST(ReceptionPinsTest, LocalBroadcastReport) {
  ExpectReportPinned("local_broadcast", 0x00159df42015c31cull);
}

TEST(ReceptionPinsTest, LeaderElectionReport) {
  ExpectReportPinned("leader_election", 0xc73bb2fc38934cb4ull);
}

TEST(ReceptionPinsTest, WakeupReport) {
  ExpectReportPinned("wakeup", 0xd7b29dccde73d89bull);
}

TEST(ReceptionPinsTest, SnsReport) { ExpectReportPinned("sns", 0xdaf52916b0511ff6ull); }

// SMSB source order: wakeup and leader_election pass their sources in ID
// order, and that order becomes each round's transmitter order. The seed-1
// reports above do not depend on it, so these digests pin it directly.
// With one SMSB phase per epoch, wakeup's first epoch wakes only part of
// the network, so later epochs pass several cluster centers as sources.
void ExpectTransmittersPinned(const std::string& algo, std::uint64_t want) {
  RunReport rep;
  const Observed& obs = RunProbed(
      ScenarioSpec::FromArgs(
          {"--topology=connected_uniform:n=64,side=3.54", "--algo=" + algo}),
      /*transmitters=*/true, rep);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(obs.digest, want);
}

TEST(ReceptionPinsTest, WakeupTransmitOrder) {
  ExpectTransmittersPinned("wakeup:max_phases=1", 0xc8d4b5549cbae369ull);
}

TEST(ReceptionPinsTest, LeaderElectionTransmitOrder) {
  ExpectTransmittersPinned("leader_election", 0xa35c74ab030adf8full);
}

// The local broadcast baselines' coverage oracles feed these reports.
TEST(ReceptionPinsTest, TdmaLocalReport) {
  ExpectReportPinned("tdma_local", 0x76cf9c8ddf3c035cull);
}

TEST(ReceptionPinsTest, GridTdmaReport) {
  ExpectReportPinned("grid_tdma", 0x33bc717fb859202bull);
}

TEST(ReceptionPinsTest, RandLocalKnownReport) {
  ExpectReportPinned("rand_local_known", 0x1081d6c3e5faf74dull);
}

TEST(ReceptionPinsTest, RandLocalUnknownReport) {
  ExpectReportPinned("rand_local_unknown", 0x8231f74a2e8e8dcdull);
}

// MIS-path pins: the LOCAL-model MIS loops of Sparsify and RadiusReduction,
// run directly on an Exec over the theory-mode test network (24 nodes, id
// space 256), where other tests check only contracts. `run` gets the Exec,
// the whole node set and its density.
struct ExecPins {
  Round rounds;
  std::int64_t transmissions;
  std::int64_t receptions;
  std::uint64_t digest;
};

template <typename RunFn>
void ExpectExecPinned(RunFn run, const ExecPins& want) {
  sinr::Params params = sinr::Params::Default();
  params.id_space = 256;
  const sinr::Network net =
      workload::MakeNetwork(workload::UniformSquare(24, 2.0, 5), params, 3);
  std::vector<std::size_t> all(net.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  sim::Exec ex(net);
  std::uint64_t digest = 1469598103934665603ull;
  ex.SetObserver(DigestObserver(digest));
  run(ex, all, cluster::SubsetDensity(net, all));
  EXPECT_EQ(ex.rounds(), want.rounds);
  EXPECT_EQ(ex.engine().stats().transmissions, want.transmissions);
  EXPECT_EQ(ex.engine().stats().receptions, want.receptions);
  EXPECT_EQ(digest, want.digest);
}

// Linial color reduction, then the color-class sweep and the Y flags.
void LinialSparsify(bool early_stop, const ExecPins& want) {
  ExpectExecPinned(
      [early_stop](sim::Exec& ex, const std::vector<std::size_t>& all,
                   int gamma) {
        cluster::Profile prof = cluster::Profile::Practical(256);
        prof.use_linial_mis = true;
        prof.early_stop = early_stop;
        const std::vector<ClusterId> none(ex.net().size(), kNoCluster);
        cluster::Sparsify(ex, prof, all, none, gamma, /*clustered=*/false, 1);
      },
      want);
}

TEST(ReceptionPinsTest, LinialSparsifyEarlyStop) {
  LinialSparsify(true, {36380, 43696, 219354, 0x4119c4eaf5ba725dull});
}

TEST(ReceptionPinsTest, LinialSparsifyFullSweep) {
  LinialSparsify(false, {928200, 598780, 3338521, 0xd98a93f4969ef9c0ull});
}

// Without early stopping every local-minima MIS, in the sparsifications
// and in radius reduction, runs to its round cap; radius reduction's
// internal sparsifications take the clustered Y path.
TEST(ReceptionPinsTest, ClusteringFullRoundCaps) {
  ExpectExecPinned(
      [](sim::Exec& ex, const std::vector<std::size_t>& all, int gamma) {
        cluster::Profile prof = cluster::Profile::Practical(256);
        prof.early_stop = false;
        cluster::BuildClustering(ex, prof, all, gamma, 1);
      },
      {4223260, 568177, 5311112, 0xc5cd0ee5eaac025cull});
}

// The grid path's own counters, which receptions alone do not pin: a bound
// that moves a prune decision but keeps every reception would pass every
// other test. Fixed seeded rounds of |T| in {65, 128, 300, 512} on the
// 64 x 64 lattice at pitch 0.442 and on a uniform n = 4096 network of side
// 28 (both above the gain table, so kAuto takes the grid path), each pinned
// to its grid_pruned, grid_exact_fallbacks and tile_states_computed totals
// and a digest of its (round, listener, sender) receptions, serial and on
// three shards alike. SINR bits are left out: the fallback's far sweep
// still differs in its last bits between avx512f hosts and others.
struct GridPins {
  std::int64_t pruned;
  std::int64_t fallbacks;
  std::int64_t tile_states;
  std::int64_t receptions;
  std::uint64_t digest;
};

void ExpectGridRoundsPinned(const std::string& label,
                            const sinr::Network& net, int threads,
                            const GridPins& want) {
  const sinr::Engine eng(net, {.threads = threads});
  ASSERT_EQ(eng.mode(), sinr::Engine::Mode::kGrid) << label;
  Xoshiro256ss rng(7);
  std::uint64_t digest = 1469598103934665603ull;
  std::vector<std::size_t> order(net.size());
  std::vector<char> is_tx(net.size());
  std::int64_t round = 0;
  for (const std::size_t n_tx : {65, 128, 300, 512}) {
    for (int rep = 0; rep < 2; ++rep, ++round) {
      // A seeded partial Fisher-Yates draw of n_tx transmitters, listed in
      // draw order; every other node listens, in index order.
      std::iota(order.begin(), order.end(), std::size_t{0});
      for (std::size_t k = 0; k < n_tx; ++k) {
        std::swap(order[k], order[k + rng.NextBelow(net.size() - k)]);
      }
      const std::vector<std::size_t> tx(order.begin(),
                                        order.begin() + n_tx);
      std::fill(is_tx.begin(), is_tx.end(), 0);
      for (const std::size_t v : tx) is_tx[v] = 1;
      std::vector<std::size_t> listeners;
      for (std::size_t u = 0; u < net.size(); ++u) {
        if (!is_tx[u]) listeners.push_back(u);
      }
      for (const sinr::Reception& rec : eng.Step(tx, listeners)) {
        Fold(digest, static_cast<std::uint64_t>(round));
        Fold(digest, rec.listener);
        Fold(digest, rec.sender);
      }
    }
  }
  const sinr::Engine::Stats& st = eng.stats();
  EXPECT_EQ(st.grid_pruned, want.pruned) << label;
  EXPECT_EQ(st.grid_exact_fallbacks, want.fallbacks) << label;
  EXPECT_EQ(st.tile_states_computed, want.tile_states) << label;
  EXPECT_EQ(st.receptions, want.receptions) << label;
  EXPECT_EQ(digest, want.digest) << label << std::hex << " digest 0x" << digest;
}

TEST(ReceptionPinsTest, GridPathRoundCounters) {
  const sinr::Network lattice = sinr::Network::WithSequentialIds(
      workload::Grid(64, 64, 0.442), sinr::Params::Default());
  const sinr::Network uniform = sinr::Network::WithSequentialIds(
      workload::UniformSquare(4096, 28.0, 1), sinr::Params::Default());
  for (const int threads : {1, 3}) {
    const std::string at = " threads=" + std::to_string(threads);
    ExpectGridRoundsPinned("lattice" + at, lattice, threads,
                           {24394, 6364, 512, 6332, 0xd6b3fb4bb850335full});
    ExpectGridRoundsPinned("uniform" + at, uniform, threads,
                           {23084, 7674, 528, 7647, 0xc3ca3e56e3cac1dfull});
  }
}

}  // namespace
}  // namespace dcc::scenario
