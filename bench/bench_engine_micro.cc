// Engine micro-benchmarks (google-benchmark): SINR round throughput with
// the engine's gain table vs on-the-fly gains, exact vs grid-indexed
// interference resolution, schedule execution overhead, and selector
// membership cost. These gate how large the protocol experiments can run.
// Receptions of the two engine modes are checked equal by
// tests/engine_equivalence_test.cc, not here.
#include <benchmark/benchmark.h>

#include <cmath>

#include "dcc/cluster/profile.h"
#include "dcc/sel/ssf.h"
#include "dcc/sim/runner.h"
#include "dcc/sinr/engine.h"
#include "dcc/workload/generators.h"

namespace dcc {
namespace {

sinr::Network MakeNet(int n, std::int64_t id_space) {
  sinr::Params params = sinr::Params::Default();
  params.id_space = id_space;
  auto pts = workload::UniformSquare(n, std::sqrt(static_cast<double>(n)),
                                     42);
  return workload::MakeNetwork(std::move(pts), params, 7);
}

// Every 8th node transmits — the dense-transmitter regime of the
// acceptance target.
void DenseTxSplit(std::size_t n, std::vector<std::size_t>& tx,
                  std::vector<std::size_t>& listeners) {
  tx.clear();
  listeners.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 8 == 0) {
      tx.push_back(i);
    } else {
      listeners.push_back(i);
    }
  }
}

void BM_EngineStepDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto net = MakeNet(n, 1 << 16);
  const sinr::Engine eng(net);
  std::vector<std::size_t> tx, listeners;
  for (int i = 0; i < n; ++i) {
    if (i % 8 == 0) {
      tx.push_back(static_cast<std::size_t>(i));
    } else {
      listeners.push_back(static_cast<std::size_t>(i));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.Step(tx, listeners));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tx.size()) *
                          static_cast<std::int64_t>(listeners.size()));
}
BENCHMARK(BM_EngineStepDense)->Arg(64)->Arg(256)->Arg(1024);

// Exact vs grid-indexed interference resolution on one dense round.
// state.range(0) = n, state.range(1) = 0 (exact) or 1 (grid).
void BM_EngineStepMode(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto net = MakeNet(n, 1 << 20);
  const auto mode = state.range(1) == 0 ? sinr::Engine::Mode::kExact
                                        : sinr::Engine::Mode::kGrid;
  const sinr::Engine eng(net, {.mode = mode});
  std::vector<std::size_t> tx, listeners;
  DenseTxSplit(net.size(), tx, listeners);
  std::vector<sinr::Reception> out;
  for (auto _ : state) {
    eng.StepInto(tx, listeners, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tx.size()) *
                          static_cast<std::int64_t>(listeners.size()));
}
BENCHMARK(BM_EngineStepMode)
    ->ArgsProduct({{256, 1024, 4096, 16384}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_EngineStepSparseTx(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto net = MakeNet(n, 1 << 16);
  const sinr::Engine eng(net);
  std::vector<std::size_t> tx{0, static_cast<std::size_t>(n / 2)};
  std::vector<std::size_t> listeners;
  for (int i = 1; i < n; ++i) {
    if (i != n / 2) listeners.push_back(static_cast<std::size_t>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.Step(tx, listeners));
  }
}
BENCHMARK(BM_EngineStepSparseTx)->Arg(256)->Arg(1024);

void BM_ExecRoundOverhead(benchmark::State& state) {
  const auto net = MakeNet(256, 1 << 16);
  sim::Exec ex(net);
  std::vector<std::size_t> all(net.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  for (auto _ : state) {
    ex.RunRound(
        all,
        [](std::size_t i) -> std::optional<sim::Message> {
          if (i % 16 != 0) return std::nullopt;
          return sim::Message{};
        },
        [](std::size_t, const sim::Message&) {});
  }
}
BENCHMARK(BM_ExecRoundOverhead);

void BM_SsfMembership(benchmark::State& state) {
  const auto ssf = sel::Ssf::Construct(1 << 16, 8);
  std::int64_t r = 0, x = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssf.Member(r, x));
    r = (r + 1) % ssf.size();
    x = (x % (1 << 16)) + 1;
  }
}
BENCHMARK(BM_SsfMembership);

void BM_WssMembership(benchmark::State& state) {
  const auto prof = cluster::Profile::Practical(1 << 16);
  const auto sched = prof.MakeWss(1 << 16, 1);
  std::int64_t r = 0;
  NodeId x = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched->Transmits(r, x, 1));
    r = (r + 1) % sched->size();
    x = (x % (1 << 16)) + 1;
  }
}
BENCHMARK(BM_WssMembership);

// Engine construction, which fills the gain table (n^2 gains; the reach
// and the scratch are the rest). 2048 is Engine::kGainMatrixLimit, the
// largest table, where the fill's memory order shows.
void BM_GainMatrixConstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sinr::Params params = sinr::Params::Default();
  params.id_space = 1 << 16;
  const sinr::Network net = sinr::Network::WithSequentialIds(
      workload::UniformSquare(n, std::sqrt(static_cast<double>(n)), 3),
      params);
  for (auto _ : state) {
    const sinr::Engine eng(net);
    benchmark::DoNotOptimize(&eng);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GainMatrixConstruction)
    ->Arg(128)
    ->Arg(512)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dcc

BENCHMARK_MAIN();
