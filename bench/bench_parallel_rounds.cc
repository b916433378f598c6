// bench_parallel_rounds — the scaling axis of the sharded round engine:
// one grid-mode SINR round decomposed across K shards on the shared
// WorkerPool, versus the same round serial.
//
// For each n in {4096, 16384, 65536} (--full extends the ladder to 262144
// and 1048576) and each transmitter regime — dense (every 8th node
// transmits, the acceptance-target workload), sparse (every 64th) and
// dynamic (a mobility + churn epoch loop that re-tiles the grid every
// epoch) — the bench walks a thread ladder {1, 2, 4, ..., hw}: it first
// pins the parallel round's receptions bit-identical to threads=1, then
// times ms/round and reports the speedup over the serial engine.
//
// A far-field-specific regime rides along at a fixed size:
//   sparse_wide  n=65536 single-thread, every 16th node transmits across
//                thousands of 2.0-side tiles — the far-field-dominated
//                workload. Timed with the pyramid descent (the default
//                pyramid_min_occupied) and with the flat walk forced
//                (pyramid_min_occupied = SIZE_MAX); the pyramid's speedup
//                column is the acceptance target (>= 2x).
//
// Flags:
//   --compare_json   one JSON object per line (dcc.bench.parallel_rounds.v1)
//   --full           extend the size ladder
//
// Every line's min_shard is the engine's listener grain,
// Engine::kMinListenersPerShard.
//
// CI uploads the JSON as BENCH_parallel.json and scripts/bench_trend.py
// appends key configs to the tracked BENCH_trend.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "dcc/parallel/worker_pool.h"
#include "dcc/sinr/engine.h"
#include "dcc/workload/generators.h"

namespace {

using Clock = std::chrono::steady_clock;
using dcc::Box;
using dcc::Vec2;
using dcc::sinr::Engine;
using dcc::sinr::Network;
using dcc::sinr::Reception;

Network MakeNet(int n) {
  dcc::sinr::Params params = dcc::sinr::Params::Default();
  params.id_space = std::max<std::int64_t>(4 * n, 1 << 16);
  auto pts = dcc::workload::UniformSquare(
      n, std::sqrt(static_cast<double>(n)), 42);
  return dcc::workload::MakeNetwork(std::move(pts), params, 7);
}

void Split(std::size_t n, std::size_t period, std::vector<std::size_t>& tx,
           std::vector<std::size_t>& listeners) {
  tx.clear();
  listeners.clear();
  for (std::size_t i = 0; i < n; ++i) {
    (i % period == 0 ? tx : listeners).push_back(i);
  }
}

bool SameReceptions(const std::vector<Reception>& a,
                    const std::vector<Reception>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].listener != b[i].listener || a[i].sender != b[i].sender ||
        a[i].sinr != b[i].sinr) {
      return false;
    }
  }
  return true;
}

// ms per round, over enough rounds to fill ~300 ms of wall clock.
double TimeRounds(const Engine& eng, const std::vector<std::size_t>& tx,
                  const std::vector<std::size_t>& listeners) {
  std::vector<Reception> out;
  const auto w0 = Clock::now();
  eng.StepInto(tx, listeners, out);  // warmup sizes the scratch
  const double warm_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - w0).count();
  const int rounds = std::max(3, static_cast<int>(300.0 / (warm_ms + 0.01)));
  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) eng.StepInto(tx, listeners, out);
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return ms / rounds;
}

std::vector<int> ThreadLadder() {
  const int hw = dcc::parallel::WorkerPool::Shared().parallelism();
  std::vector<int> ladder{1, 2};
  for (int t = 4; t <= hw; t *= 2) ladder.push_back(t);
  if (std::find(ladder.begin(), ladder.end(), hw) == ladder.end()) {
    ladder.push_back(hw);
  }
  std::sort(ladder.begin(), ladder.end());
  return ladder;
}

// --- Dynamic regime: mobility + churn epochs over the parallel engine. ---

constexpr int kEpochs = 4;
constexpr int kRoundsPerEpoch = 6;
constexpr std::size_t kChurnPeriod = 41;  // ~2.4% of nodes off per epoch

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Deterministic per-epoch displacement of every node from its base
// position, up to 0.5 per axis (absolute, not cumulative, so every pass
// sees the identical trajectory).
void JitterPositions(const std::vector<Vec2>& base, int epoch,
                     std::vector<Vec2>& out) {
  out.resize(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    const std::uint64_t h =
        Mix(i * 2654435761ull + static_cast<std::uint64_t>(epoch) * 40503ull);
    const double dx =
        (static_cast<double>(h & 0xffffffffu) / 4294967295.0 - 0.5);
    const double dy =
        (static_cast<double>(h >> 32) / 4294967295.0 - 0.5);
    out[i] = Vec2{base[i].x + dx, base[i].y + dy};
  }
}

// One full epoch loop: per epoch, move every node (the engine re-tiles its
// grid and rebuilds its reach on the epoch's first round), drop the churn
// slice, then run the round schedule. Appends every reception to
// `digest` (the cross-config identity witness) and returns ms/round over
// the whole pass.
double DynamicPass(const Network& base_net, Engine::Options opts,
                   std::vector<Reception>& digest) {
  Network net = base_net;  // mutable copy: mobility rewrites positions
  const std::vector<Vec2> base = net.positions();
  Box box = dcc::BoundingBox(base);
  box.lo.x -= 1.0;
  box.lo.y -= 1.0;
  box.hi.x += 1.0;
  box.hi.y += 1.0;
  opts.coverage = box;
  Engine eng(net, opts);

  std::vector<Vec2> pts;
  std::vector<std::size_t> tx, listeners;
  std::vector<Reception> out;
  const auto t0 = Clock::now();
  for (int e = 0; e < kEpochs; ++e) {
    JitterPositions(base, e, pts);
    net.SetPositions(pts);
    tx.clear();
    listeners.clear();
    for (std::size_t i = 0; i < net.size(); ++i) {
      // Rotating churn slice: node i is off during epoch e iff
      // (i + e) % kChurnPeriod == 0, and an off node neither transmits nor
      // listens.
      if ((i + static_cast<std::size_t>(e)) % kChurnPeriod == 0) continue;
      (i % 8 == 0 ? tx : listeners).push_back(i);
    }
    for (int r = 0; r < kRoundsPerEpoch; ++r) {
      eng.StepInto(tx, listeners, out);
      digest.insert(digest.end(), out.begin(), out.end());
    }
  }
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return ms / (kEpochs * kRoundsPerEpoch);
}

void EmitLine(bool json, int n, const char* regime, std::size_t n_tx,
              std::size_t n_listen, int threads, double ms, double speedup,
              bool identical, int* bad, const char* farfield = "pyramid") {
  *bad += identical ? 0 : 1;
  const std::size_t min_shard = Engine::kMinListenersPerShard;
  if (json) {
    std::cout << "{\"schema\": \"dcc.bench.parallel_rounds.v1\", "
              << "\"n\": " << n << ", \"regime\": \"" << regime
              << "\", \"tx\": " << n_tx << ", \"listeners\": " << n_listen
              << ", \"threads\": " << threads << ", \"min_shard\": "
              << min_shard << ", \"farfield\": \"" << farfield
              << "\", \"ms_per_round\": " << ms << ", \"speedup\": " << speedup
              << ", \"identical\": " << (identical ? "true" : "false")
              << "}\n";
  } else {
    std::printf("%7d  %-11s  %7d  %8zu  %-7s  %8.3f  %7.2fx  %s\n", n,
                regime, threads, min_shard, farfield, ms, speedup,
                identical ? "yes" : "NO");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compare_json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else {
      std::cerr << "usage: bench_parallel_rounds [--compare_json] [--full]\n";
      return 2;
    }
  }

  std::vector<int> sizes{4096, 16384, 65536};
  if (full) {
    sizes.push_back(262144);
    sizes.push_back(1048576);
  }
  const std::vector<int> ladder = ThreadLadder();

  if (!json) {
    std::cout << "parallel sharded rounds (grid engine, shared pool; hw "
                 "parallelism "
              << dcc::parallel::WorkerPool::Shared().parallelism() << ")\n"
              << "      n  regime       threads     grain  farfield  "
                 "ms/round   speedup  identical\n";
  }

  int bad = 0;
  for (const int n : sizes) {
    const Network net = MakeNet(n);
    std::vector<std::size_t> tx, listeners;

    // Static regimes: a fixed round repeated.
    for (const auto& [regime, period] :
         {std::pair<const char*, std::size_t>{"dense", 8},
          std::pair<const char*, std::size_t>{"sparse", 64}}) {
      Split(net.size(), period, tx, listeners);
      const Engine serial(net, {.mode = Engine::Mode::kGrid});
      const std::vector<Reception> want = serial.Step(tx, listeners);
      const double serial_ms = TimeRounds(serial, tx, listeners);
      for (const int threads : ladder) {
        Engine::Options opts{.mode = Engine::Mode::kGrid};
        opts.threads = threads;
        const Engine par(net, opts);
        const bool identical = SameReceptions(want, par.Step(tx, listeners));
        const double ms =
            threads == 1 ? serial_ms : TimeRounds(par, tx, listeners);
        EmitLine(json, n, regime, tx.size(), listeners.size(), threads, ms,
                 serial_ms / ms, identical, &bad);
      }
    }

    // Dynamic regime: mobility + churn epochs; identity is checked over
    // the concatenated receptions of the whole identical mutation
    // sequence.
    {
      std::vector<Reception> want;
      const Engine::Options base_opts{.mode = Engine::Mode::kGrid};
      const double serial_ms = DynamicPass(net, base_opts, want);
      const std::size_t n_tx = (net.size() + 7) / 8;
      EmitLine(json, n, "dynamic", n_tx, net.size() - n_tx, 1, serial_ms, 1.0,
               true, &bad);
      for (const int threads : ladder) {
        if (threads == 1) continue;
        Engine::Options opts = base_opts;
        opts.threads = threads;
        std::vector<Reception> got;
        const double ms = DynamicPass(net, opts, got);
        EmitLine(json, n, "dynamic", n_tx, net.size() - n_tx, threads, ms,
                 serial_ms / ms, SameReceptions(want, got), &bad);
      }
    }
  }
  // --- sparse_wide: the far-field-dominated workload. A single-thread
  // round at n=65536 with an explicit 2.0 cell (128x128 = 16384 tiles) and
  // every 16th node transmitting, so the 4096 transmitters occupy well over
  // a thousand tiles. The pyramid's speedup over the flat walk is the
  // acceptance column (target >= 2x). ---
  {
    const int n = 65536;
    const Network net = MakeNet(n);
    std::vector<std::size_t> tx, listeners;
    Split(net.size(), 16, tx, listeners);
    Engine::Options flat_opts{.mode = Engine::Mode::kGrid};
    flat_opts.cell = 2.0;
    Engine::Options pyr_opts = flat_opts;
    flat_opts.pyramid_min_occupied = std::numeric_limits<std::size_t>::max();
    const Engine flat(net, flat_opts);
    const Engine pyr(net, pyr_opts);
    const std::vector<Reception> want = flat.Step(tx, listeners);
    const bool identical = SameReceptions(want, pyr.Step(tx, listeners));
    const double flat_ms = TimeRounds(flat, tx, listeners);
    const double pyr_ms = TimeRounds(pyr, tx, listeners);
    EmitLine(json, n, "sparse_wide", tx.size(), listeners.size(), 1, flat_ms,
             1.0, true, &bad, "flat");
    EmitLine(json, n, "sparse_wide", tx.size(), listeners.size(), 1, pyr_ms,
             flat_ms / pyr_ms, identical, &bad, "pyramid");
  }

  if (bad > 0) {
    std::cerr << "bench_parallel_rounds: " << bad
              << " configurations diverged from serial receptions\n";
    return 1;
  }
  return 0;
}
