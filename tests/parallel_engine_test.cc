// The parallel sharded round engine must be invisible except for speed:
// receptions (listener, sender AND every SINR bit) are pinned identical to
// serial execution across thread counts, engine modes, propagation models,
// and moving/churning networks. Also covers the subsystem's building block:
// WorkerPool fan-out semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dcc/common/rng.h"
#include "dcc/obs/metrics.h"
#include "dcc/parallel/worker_pool.h"
#include "dcc/scenario/scenario.h"
#include "dcc/sinr/engine.h"
#include "dcc/sinr/network.h"
#include "dcc/workload/generators.h"

namespace dcc {
namespace {

using parallel::WorkerPool;
using sinr::Engine;
using sinr::Network;
using sinr::Params;
using sinr::Reception;
using sinr::Shadowing;

// --- WorkerPool -------------------------------------------------------------

TEST(WorkerPoolTest, RunsEveryJobExactlyOnce) {
  WorkerPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  pool.Run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "job " << i;
  }
}

TEST(WorkerPoolTest, ZeroWorkerPoolRunsInline) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.parallelism(), 1);
  std::vector<int> hits(16, 0);
  const auto caller = std::this_thread::get_id();
  pool.Run(hits.size(), [&](std::size_t i) {
    hits[i] = std::this_thread::get_id() == caller ? 1 : -1;
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(WorkerPoolTest, NestedRunKeepsExactlyOnceSemantics) {
  WorkerPool pool(2);
  std::vector<std::atomic<int>> hits(4 * 8);
  for (auto& h : hits) h = 0;
  pool.Run(4, [&](std::size_t outer) {
    // A worker calling back into its own pool must not deadlock. The inner
    // fan-out publishes tickets to this worker's own deque — idle workers
    // may steal them — and the calling worker joins until the inner task
    // completes. Every inner job still runs exactly once.
    pool.Run(8, [&](std::size_t inner) { ++hits[outer * 8 + inner]; });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "job " << i;
  }
}

TEST(WorkerPoolTest, NestedRunFromEveryWorkerStress) {
  // Three levels of nesting from every participant at once: the
  // refcounted task blocks, per-worker deques, and the injection queue
  // all churn concurrently. Run under TSan in CI; the assertion here is
  // exactly-once completion, the sanitizer checks the rest.
  WorkerPool pool(4);
  constexpr std::size_t kOuter = 4, kMid = 4, kInner = 8;
  for (int iter = 0; iter < 8; ++iter) {
    std::vector<std::atomic<int>> hits(kOuter * kMid * kInner);
    for (auto& h : hits) h = 0;
    pool.Run(kOuter, [&](std::size_t o) {
      pool.Run(kMid, [&](std::size_t m) {
        pool.Run(kInner, [&](std::size_t i) {
          ++hits[(o * kMid + m) * kInner + i];
        });
      });
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "iter " << iter << " job " << i;
    }
  }
}

TEST(WorkerPoolTest, MaxWorkersCapsParticipants) {
  WorkerPool pool(3);
  std::vector<std::thread::id> by_job(64);
  pool.Run(by_job.size(),
           [&](std::size_t i) { by_job[i] = std::this_thread::get_id(); }, 2);
  const std::set<std::thread::id> distinct(by_job.begin(), by_job.end());
  EXPECT_LE(distinct.size(), 2u);
}

TEST(WorkerPoolTest, FirstJobExceptionPropagatesAndPoolSurvives) {
  WorkerPool pool(2);
  EXPECT_THROW(
      pool.Run(32,
               [&](std::size_t i) {
                 if (i == 7) throw InvalidArgument("job 7 failed");
               }),
      InvalidArgument);
  // The pool stays usable after a failed fan-out.
  std::atomic<int> done{0};
  pool.Run(8, [&](std::size_t) { ++done; });
  EXPECT_EQ(done, 8);
}

TEST(WorkerPoolTest, SharedPoolIsOneInstance) {
  WorkerPool& a = WorkerPool::Shared();
  WorkerPool& b = WorkerPool::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.parallelism(), 1);
}

// --- Engine: parallel == serial, bit for bit --------------------------------

void SplitTxListeners(std::size_t n, int period, std::vector<std::size_t>& tx,
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

// Parallel decomposition reorders no floating-point operation, so the
// comparison is exact — not a tolerance check.
void ExpectBitIdentical(const std::vector<Reception>& serial,
                        const std::vector<Reception>& par,
                        const std::string& label) {
  ASSERT_EQ(serial.size(), par.size()) << label;
  for (std::size_t k = 0; k < serial.size(); ++k) {
    EXPECT_EQ(serial[k].listener, par[k].listener) << label << " k=" << k;
    EXPECT_EQ(serial[k].sender, par[k].sender) << label << " k=" << k;
    EXPECT_EQ(serial[k].sinr, par[k].sinr) << label << " k=" << k;
  }
}

Network MakeUniformNet(int n, double side, double shadowing_spread,
                       std::uint64_t seed) {
  Params params = Params::Default();
  params.id_space = 1 << 17;
  auto pts = workload::UniformSquare(n, side, seed);
  std::vector<NodeId> ids(pts.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<NodeId>(2 * i + 3);  // non-sequential ids
  }
  return Network(std::move(pts), std::move(ids), params,
                 Shadowing{shadowing_spread, /*seed=*/99});
}

void ExpectParallelMatchesSerial(const Network& net, Engine::Options base,
                                 const std::vector<int>& thread_counts,
                                 const std::string& label) {
  Engine::Options serial_opts = base;
  serial_opts.threads = 1;
  const Engine serial(net, serial_opts);
  std::vector<std::size_t> tx, listeners;
  std::vector<Reception> want, got;
  // Dense and mid splits, and one of at most kExactMaxTransmitters
  // transmitters, which every mode resolves with the exact kernel.
  const auto sparse = static_cast<int>(
      (net.size() + Engine::kExactMaxTransmitters - 1) /
      Engine::kExactMaxTransmitters);
  for (const int period : {2, 7, std::max(sparse, 2)}) {
    SplitTxListeners(net.size(), period, tx, listeners);
    if (period == sparse) {
      ASSERT_LE(tx.size(), Engine::kExactMaxTransmitters);
    }
    serial.ResetStats();
    serial.StepInto(tx, listeners, want);
    for (const int threads : thread_counts) {
      Engine::Options par_opts = base;
      par_opts.threads = threads;
      const Engine par(net, par_opts);
      EXPECT_EQ(par.threads(), threads);
      par.StepInto(tx, listeners, got);
      const std::string where = label + " period=" + std::to_string(period) +
                                " threads=" + std::to_string(threads);
      ExpectBitIdentical(want, got, where);
      EXPECT_EQ(par.stats().grid_pruned, serial.stats().grid_pruned) << where;
      EXPECT_EQ(par.stats().grid_exact_fallbacks,
                serial.stats().grid_exact_fallbacks)
          << where;
      EXPECT_EQ(par.stats().tile_states_computed,
                serial.stats().tile_states_computed)
          << where;
      if (threads > 1 && !listeners.empty()) {
        EXPECT_GT(par.stats().parallel_rounds, 0)
            << label << ": round was not actually dispatched";
      }
    }
  }
}

TEST(ParallelEngineTest, GridBitIdenticalAcrossThreadCounts) {
  const Network net = MakeUniformNet(700, 13.0, 0.0, 1234);
  ExpectParallelMatchesSerial(net, {.mode = Engine::Mode::kGrid},
                              {1, 2, 3, 5, 7, 8, 16}, "grid");
}

TEST(ParallelEngineTest, ExactBitIdenticalAcrossThreadCounts) {
  const Network net = MakeUniformNet(400, 10.0, 0.0, 99);
  ExpectParallelMatchesSerial(net, {.mode = Engine::Mode::kExact},
                              {1, 2, 3, 5, 7, 8, 16}, "exact");
}

TEST(ParallelEngineTest, BitIdenticalAboveTheGainTableLimit) {
  // No gain table: the exact kernel and the grid path's close scans read
  // coordinates through the gain kernel, in every shard.
  const Network net = MakeUniformNet(2200, 20.0, 0.0, 4242);
  ASSERT_GT(net.size(), Engine::kGainMatrixLimit);
  ExpectParallelMatchesSerial(net, {.mode = Engine::Mode::kExact},
                              {1, 2, 3, 7}, "exact above the table");
  ExpectParallelMatchesSerial(net, {.mode = Engine::Mode::kGrid},
                              {1, 2, 3, 7}, "grid above the table");
}

TEST(ParallelEngineTest, ShadowedGridRoundsTakeTheBatchedFallbackIdentically) {
  // Shadowed grid rounds scan their close tiles with the gain kernel, the
  // links' ids beside their coordinates, and defer every listener their
  // bounds keep to the batched fallback, as unshadowed rounds do; every
  // thread count must give serial's receptions bit for bit.
  const Network net = MakeUniformNet(500, 11.0, 0.4, 7);
  ASSERT_TRUE(net.propagation().shadowed());
  ExpectParallelMatchesSerial(net, {.mode = Engine::Mode::kGrid},
                              {2, 3, 8}, "grid+shadowing");
  std::vector<std::size_t> tx, listeners;
  SplitTxListeners(net.size(), 2, tx, listeners);
  const Engine grid(net, {.mode = Engine::Mode::kGrid});
  std::vector<Reception> out;
  grid.StepInto(tx, listeners, out);
  EXPECT_GT(grid.stats().grid_exact_fallbacks, 0);
}

TEST(ParallelEngineTest, OddShardCountsOnFewTiles) {
  // A huge tile side leaves very few tiles, so most cuts land inside one
  // tile's listeners and adjacent shards share that tile.
  const Network net = MakeUniformNet(300, 8.0, 0.0, 31);
  ExpectParallelMatchesSerial(net, {.mode = Engine::Mode::kGrid, .cell = 4.0},
                              {3, 5, 7, 16}, "few-tiles");
}

TEST(ParallelEngineTest, TileBoundaryStress) {
  // Positions pinned to exact tile-grid lines (multiples of the cell side,
  // including the coverage corners) exercise the boundary ownership of
  // TileAt; sharding must agree with serial no matter which side of a cut
  // a boundary tile lands on.
  constexpr double kCell = 2.0;
  constexpr double kSide = 10.0;
  Xoshiro256ss rng(2024);
  std::vector<Vec2> pts;
  std::vector<NodeId> ids;
  int next_id = 1;
  for (int gx = 0; gx <= 5; ++gx) {
    for (int gy = 0; gy <= 5; ++gy) {
      pts.push_back({gx * kCell, gy * kCell});  // every grid-line crossing
      ids.push_back(next_id++);
    }
  }
  for (int i = 0; i < 264; ++i) {  // random mix: on-line and interior
    const double x = rng.NextBelow(2) == 0
                         ? kCell * static_cast<double>(rng.NextBelow(6))
                         : kSide * rng.NextDouble();
    const double y = rng.NextBelow(2) == 0
                         ? kCell * static_cast<double>(rng.NextBelow(6))
                         : kSide * rng.NextDouble();
    pts.push_back({x, y});
    ids.push_back(next_id++);
  }
  Params params = Params::Default();
  params.id_space = 1 << 16;
  const Network net(std::move(pts), std::move(ids), params);
  ExpectParallelMatchesSerial(net, {.mode = Engine::Mode::kGrid, .cell = kCell},
                              {2, 3, 7}, "tile-boundary");
}

TEST(ParallelEngineTest, MovingChurningNetworkStaysIdentical) {
  const int n = 500;
  const double side = 11.0;
  Network net = MakeUniformNet(n, side, 0.0, 555);
  Engine::Options base{.mode = Engine::Mode::kGrid};
  base.coverage = Box{{0.0, 0.0}, {side, side}};
  Engine::Options par_opts = base;
  par_opts.threads = 3;
  // Both engines follow SetPositions on their own: each re-tiles its grid
  // on the first step after a move.
  const Engine serial(net, base);
  const Engine par(net, par_opts);

  Xoshiro256ss rng(777);
  std::vector<char> active(n, 1);
  std::vector<Vec2> pos = net.positions();
  std::vector<std::size_t> tx, listeners;
  std::vector<Reception> want, got;
  for (int epoch = 0; epoch < 6; ++epoch) {
    // Random walk inside the coverage box.
    for (int i = 0; i < n; ++i) {
      if (!active[i]) continue;
      pos[i].x = std::min(side, std::max(0.0, pos[i].x +
                                                  0.6 * (rng.NextDouble() - 0.5)));
      pos[i].y = std::min(side, std::max(0.0, pos[i].y +
                                                  0.6 * (rng.NextDouble() - 0.5)));
    }
    // Churn: ~5% leave, previously-left nodes rejoin at fresh positions.
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
    serial.StepInto(tx, listeners, want);
    par.StepInto(tx, listeners, got);
    ExpectBitIdentical(want, got, "epoch " + std::to_string(epoch));
  }
  EXPECT_GT(par.stats().parallel_rounds, 0);
}

TEST(ParallelEngineTest, SmallRoundsFallBackToSerialExecution) {
  const Network net = MakeUniformNet(64, 4.0, 0.0, 3);
  Engine::Options opts{.mode = Engine::Mode::kGrid};
  opts.threads = 8;
  const Engine par(net, opts);
  const std::vector<std::size_t> tx = {0, 1, 2};
  // 4 listeners < kMinListenersPerShard * 8: not worth a dispatch.
  const std::vector<std::size_t> listeners = {10, 11, 12, 13};
  const Engine serial(net, {.mode = Engine::Mode::kGrid});
  ExpectBitIdentical(serial.Step(tx, listeners), par.Step(tx, listeners),
                     "small round");
  EXPECT_EQ(par.stats().parallel_rounds, 0);
  EXPECT_EQ(par.stats().parallel_small_rounds, 1);
}

TEST(ParallelEngineTest, SingleTileGridRoundDispatchesBitIdentically) {
  // cell >= side leaves one tile: shards cut the listener order, not the
  // tiles, so the round is dispatched under the same listener grain as an
  // exact round and still produces serial results. Its 75 transmitters
  // (more than kExactMaxTransmitters) put it on the grid path.
  const Network net = MakeUniformNet(300, 4.0, 0.0, 21);
  Engine::Options opts{.mode = Engine::Mode::kGrid, .cell = 8.0};
  opts.threads = 4;
  const Engine par(net, opts);
  const Engine serial(net, {.mode = Engine::Mode::kGrid, .cell = 8.0});
  std::vector<std::size_t> tx, listeners;
  SplitTxListeners(net.size(), 4, tx, listeners);
  ASSERT_GT(tx.size(), Engine::kExactMaxTransmitters);
  ExpectBitIdentical(serial.Step(tx, listeners), par.Step(tx, listeners),
                     "one tile");
  EXPECT_EQ(par.stats().parallel_rounds, 1);
  EXPECT_EQ(par.stats().parallel_small_rounds, 0);
  EXPECT_EQ(par.stats().tile_states_computed, 1);
}

TEST(ParallelEngineTest, SweepTailDonatesIdleWorkersToNestedEngines) {
  // Models a sweep's tail: an outer fan-out with fewer jobs than pool
  // participants leaves workers idle while the last runs' engines grind.
  // Each engine publishes its shard tickets to its own worker's deque, so
  // the idle workers steal them — nested rounds scale instead of running
  // inline. The outer fan-out goes through the injection queue and the
  // pool only counts deque steals, so a nonzero pool steal count proves a
  // donated worker executed a nested engine's shard.
  WorkerPool pool(3);
  const Network net = MakeUniformNet(700, 13.0, 0.0, 1234);
  std::vector<std::size_t> tx, listeners;
  SplitTxListeners(net.size(), 7, tx, listeners);
  const Engine serial(net, {.mode = Engine::Mode::kGrid});
  std::vector<Reception> want;
  serial.StepInto(tx, listeners, want);

  Engine::Options opts{.mode = Engine::Mode::kGrid};
  opts.threads = 3;
  opts.pool = &pool;
  const Engine a(net, opts);
  const Engine b(net, opts);
  std::vector<Reception> got_a, got_b;
  // One of the two outer jobs may land on the caller thread (whose nested
  // tickets go through the injection queue and are never counted as
  // steals), and a worker can drain its own deque before anyone steals —
  // so retry the fan-out until a steal is observed. In practice the first
  // batch is enough; the bound only caps a pathological scheduler.
  std::atomic<std::int64_t> rounds{0};
  for (int batch = 0; batch < 40; ++batch) {
    pool.Run(2, [&](std::size_t job) {
      const Engine& eng = job == 0 ? a : b;
      auto& got = job == 0 ? got_a : got_b;
      for (int r = 0; r < 8; ++r) {
        got.clear();
        eng.StepInto(tx, listeners, got);
        ++rounds;
      }
    });
    ExpectBitIdentical(want, got_a, "stolen-shards A");
    ExpectBitIdentical(want, got_b, "stolen-shards B");
    if (pool.steal_count() > 0) break;
  }
  EXPECT_EQ(a.stats().parallel_rounds + b.stats().parallel_rounds, rounds)
      << "nested rounds must dispatch, not degrade to inline execution";
  EXPECT_GT(pool.steal_count(), 0u)
      << "no idle worker ever stole a nested shard ticket";
}

// --- Scenario plumbing ------------------------------------------------------

// A process-wide engine counter (obs/metrics.h); the scenario runners add
// each run's engine stats to it once the run ends.
std::int64_t EngineCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name, "").value();
}

TEST(ParallelScenarioTest, ParallelRunReportsSectionAndIdenticalMetrics) {
  // What the decomposition did is reported through the metrics registry:
  // a serial run dispatches no round, a sharded one does, and only rounds
  // the grid path resolves build tile-state prologues. Not one report
  // metric changes.
  const char* kDispatched = "dcc_engine_rounds_dispatched_total";
  const char* kTileStates = "dcc_engine_tile_states_total";
  for (const Engine::Mode mode : {Engine::Mode::kExact, Engine::Mode::kGrid}) {
    const std::string label =
        mode == Engine::Mode::kGrid ? "engine=grid" : "engine=exact";
    scenario::ScenarioSpec spec;
    spec.topology_params.Set("n", "40");
    spec.topology_params.Set("side", "3.5");
    spec.sinr.id_space = 4096;
    spec.engine.mode = mode;

    std::int64_t dispatched = EngineCounter(kDispatched);
    const scenario::RunReport serial = RunScenario(spec, 1);
    ASSERT_TRUE(serial.ok) << label << ": " << serial.error;
    EXPECT_EQ(EngineCounter(kDispatched), dispatched) << label;

    spec.engine.threads = 3;
    dispatched = EngineCounter(kDispatched);
    const std::int64_t tile_states = EngineCounter(kTileStates);
    const scenario::RunReport par = RunScenario(spec, 1);
    ASSERT_TRUE(par.ok) << label << ": " << par.error;
    EXPECT_GT(EngineCounter(kDispatched), dispatched) << label;
    // n = 40: no round has more than Engine::kExactMaxTransmitters
    // transmitters, so the grid engine runs only the exact kernel too.
    EXPECT_EQ(EngineCounter(kTileStates), tile_states) << label;
    ASSERT_EQ(serial.metrics.entries().size(), par.metrics.entries().size())
        << label;
    for (std::size_t i = 0; i < serial.metrics.entries().size(); ++i) {
      EXPECT_EQ(serial.metrics.entries()[i], par.metrics.entries()[i])
          << label;
    }
  }

  // Decay on a 24 x 24 lattice has rounds of more than
  // kExactMaxTransmitters transmitters, which the sharded grid engine
  // resolves on its grid path.
  const auto decay = scenario::ScenarioSpec::FromArgs(
      {"--topology=grid:rows=24,cols=24,pitch=0.442", "--algo=decay_global",
       "--engine=grid", "--threads=3"});
  const std::int64_t tile_states = EngineCounter(kTileStates);
  const scenario::RunReport rep = RunScenario(decay, 1);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_GT(EngineCounter(kTileStates), tile_states);
}

TEST(ParallelScenarioTest, SweepOccupyingThePoolStillShardsItsEngines) {
  // Pre-stealing, an engine inside an occupied pool ran its rounds inline
  // (a nested fan-out could not execute anywhere else, so dispatching was
  // pure overhead). With per-worker deques, nested shard tickets are
  // published where idle tail-end workers can steal them — so sweep runs
  // dispatch exactly the rounds the same runs dispatch at top level, and
  // every metric stays identical to the serial sweep.
  scenario::ScenarioSpec spec;
  spec.topology_params.Set("n", "32");
  spec.topology_params.Set("side", "3");
  spec.sinr.id_space = 4096;
  spec.seeds = {1, 2};
  const std::vector<scenario::RunReport> serial = RunSweep(spec);

  spec.threads = 2;
  spec.engine.threads = 2;  // what --threads=2 sets
  const char* kDispatched = "dcc_engine_rounds_dispatched_total";
  const std::int64_t before = EngineCounter(kDispatched);
  const std::vector<scenario::RunReport> par = RunSweep(spec);
  const std::int64_t sweep_dispatched = EngineCounter(kDispatched) - before;
  std::int64_t top_level_dispatched = 0;
  for (const std::uint64_t seed : spec.seeds) {
    const std::int64_t at = EngineCounter(kDispatched);
    RunScenario(spec, seed);
    const std::int64_t dispatched = EngineCounter(kDispatched) - at;
    EXPECT_GT(dispatched, 0) << "seed " << seed;
    top_level_dispatched += dispatched;
  }
  EXPECT_EQ(sweep_dispatched, top_level_dispatched)
      << "engines nested in an occupied pool must dispatch like top-level "
         "ones";
  ASSERT_EQ(serial.size(), par.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    ASSERT_TRUE(par[i].ok) << par[i].error;
    ASSERT_EQ(serial[i].metrics.entries().size(),
              par[i].metrics.entries().size());
    for (std::size_t j = 0; j < serial[i].metrics.entries().size(); ++j) {
      EXPECT_EQ(serial[i].metrics.entries()[j], par[i].metrics.entries()[j]);
    }
  }
}

TEST(ParallelScenarioTest, SweepRunReportsMatchTopLevelRunsByteForByte) {
  // A report is a pure function of (spec, seed): a run nested in a
  // multi-seed sweep — whose engine shards may be stolen by idle sweep
  // workers — must print exactly the bytes a top-level run of the same
  // (spec, seed) prints. Scheduling telemetry (steals) lives in the pool's
  // metrics, never in the report. One Sparse Network Schedule (the
  // clustering building block) keeps each run to ~530 rounds, every one
  // of them dispatched across shards.
  for (const int threads : {2, 4}) {
    scenario::ScenarioSpec spec;
    spec.topology_params.Set("n", "48");
    spec.topology_params.Set("side", "6");
    spec.algo = "sns";
    spec.sinr.id_space = 4096;
    spec.seeds = {1, 2, 3, 4};
    spec.threads = threads;
    spec.engine.threads = threads;  // what --threads sets
    const std::vector<scenario::RunReport> sweep = RunSweep(spec);
    ASSERT_EQ(sweep.size(), spec.seeds.size());
    for (const scenario::RunReport& nested : sweep) {
      ASSERT_TRUE(nested.ok) << nested.error;
      std::ostringstream nested_json, top_json;
      nested.PrintJson(nested_json);
      RunScenario(spec, nested.seed).PrintJson(top_json);
      EXPECT_EQ(nested_json.str(), top_json.str())
          << "threads=" << threads << " seed=" << nested.seed;
    }
  }
}

TEST(ParallelScenarioTest, ReportBytesMatchAcrossThreadCounts) {
  // A report is a pure function of (spec, seed): a run prints the same
  // bytes at every engine thread count, 0 (one shard per hardware thread)
  // included. How the rounds were cut is telemetry, counted in the metrics
  // registry. The grid spec keeps the auto tile side, which covers this
  // field with one tile.
  for (const Engine::Mode mode : {Engine::Mode::kExact, Engine::Mode::kGrid}) {
    const std::string label =
        mode == Engine::Mode::kGrid ? "engine=grid" : "engine=exact";
    scenario::ScenarioSpec spec;
    spec.topology_params.Set("n", "40");
    spec.topology_params.Set("side", "3.5");
    spec.sinr.id_space = 4096;
    spec.engine.mode = mode;
    std::string serial_json;
    for (const int threads : {1, 0, 2, 4}) {
      spec.engine.threads = threads;
      const std::int64_t dispatched =
          EngineCounter("dcc_engine_rounds_dispatched_total");
      const scenario::RunReport rep = RunScenario(spec, 1);
      ASSERT_TRUE(rep.ok) << label << ": " << rep.error;
      const std::string at = label + " threads=" + std::to_string(threads);
      if (threads > 1) {
        EXPECT_GT(EngineCounter("dcc_engine_rounds_dispatched_total"),
                  dispatched)
            << at;
      }
      std::ostringstream json;
      rep.PrintJson(json);
      if (threads == 1) {
        serial_json = json.str();
      } else {
        EXPECT_EQ(json.str(), serial_json) << at;
      }
    }
  }
}

TEST(ParallelScenarioTest, ThreadsFlagDrivesEngineAndRoundTrips) {
  const auto spec = scenario::ScenarioSpec::FromArgs(
      {"--topology=uniform:n=32,side=3", "--algo=clustering", "--seeds=1",
       "--threads=4"});
  EXPECT_EQ(spec.threads, 4);
  EXPECT_EQ(spec.engine.threads, 4);
  EXPECT_EQ(scenario::ScenarioSpec::FromArgs(spec.ToArgs()), spec);
  // 0 (one shard per hardware thread) is not the default (serial engines),
  // so the printed spec keeps it.
  const auto hw = scenario::ScenarioSpec::FromArgs(
      {"--topology=uniform:n=32,side=3", "--threads=0"});
  EXPECT_EQ(hw.threads, 0);
  EXPECT_EQ(hw.engine.threads, 0);
  EXPECT_NE(hw.ToString().find("--threads=0"), std::string::npos)
      << hw.ToString();
  const auto replayed = scenario::ScenarioSpec::FromArgs(hw.ToArgs());
  EXPECT_EQ(replayed.engine.threads, 0);
  EXPECT_EQ(replayed, hw);
  // Bounded to [0, 4096]: an absurd shard count must fail validation, not
  // allocation.
  EXPECT_THROW(scenario::ScenarioSpec::FromArgs({"--threads=100000"}),
               InvalidArgument);
  EXPECT_THROW(scenario::ScenarioSpec::FromArgs({"--threads=-1"}),
               InvalidArgument);
}

}  // namespace
}  // namespace dcc
