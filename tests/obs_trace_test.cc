// The tracing layer's two hard promises, exercised end to end:
//
//  1. Thread safety (gated under TSan in CI): Emit from every WorkerPool
//     worker concurrently — per-thread buffers mean no data races, and a
//     pool Run's join orders every recorded event before the Drain.
//
//  2. Pure observation: receptions are BIT-identical with tracing on or
//     off, at threads {1, 4}. The trace must never feed back into
//     scheduling, so flipping the tracer cannot move a single reception
//     bit anywhere in the engine / parallel stack.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "dcc/common/rng.h"
#include "dcc/obs/trace.h"
#include "dcc/parallel/worker_pool.h"
#include "dcc/scenario/scenario.h"
#include "dcc/sinr/engine.h"

namespace dcc {
namespace {

using obs::EventKind;
using obs::Tracer;
using obs::TraceSummary;
using scenario::ScenarioSpec;
using sinr::Engine;
using sinr::Reception;

TEST(ObsConcurrencyTest, EmitFromEveryWorkerIsRaceFree) {
  parallel::WorkerPool pool(4);
  Tracer& t = Tracer::Global();
  t.Enable(/*ring_capacity=*/1 << 12);
  const std::uint32_t span_id = t.Intern("obs_test.worker_span");
  const std::uint32_t ctr_id = t.Intern("obs_test.worker_ctr");
  std::atomic<int> jobs_run{0};
  pool.Run(64, [&](std::size_t i) {
    for (int k = 0; k < 50; ++k) {
      t.Emit(span_id, EventKind::kBegin);
      t.Emit(ctr_id, EventKind::kCounter, static_cast<std::int64_t>(i));
      t.Emit(span_id, EventKind::kEnd);
    }
    jobs_run.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(jobs_run.load(), 64);
  // The pool join ordered every Emit before this Drain.
  std::ostringstream os;
  const TraceSummary sum = t.Drain(os);
  EXPECT_EQ(sum.events + sum.dropped, 64 * 50 * 3);
  EXPECT_GE(sum.threads, 1);
}

// Interleaved Enable cycles: a thread whose slot points at a drained
// buffer must re-register, never write through the stale pointer.
TEST(ObsConcurrencyTest, EnableCyclesInvalidateStaleThreadSlots) {
  parallel::WorkerPool pool(2);
  Tracer& t = Tracer::Global();
  const std::uint32_t id = t.Intern("obs_test.cycle");
  for (int cycle = 0; cycle < 3; ++cycle) {
    t.Enable(1 << 10);
    pool.Run(8, [&](std::size_t) { t.Emit(id, EventKind::kInstant); });
    std::ostringstream os;
    const TraceSummary sum = t.Drain(os);
    EXPECT_EQ(sum.events, 8) << "cycle " << cycle;
  }
}

// --- Bit-identity with tracing on vs off -----------------------------------

constexpr int kRounds = 6;

bool Transmits(std::uint64_t seed, int round, std::size_t i) {
  return HashCombine(HashCombine(seed, static_cast<std::uint64_t>(round)),
                     static_cast<std::uint64_t>(i)) %
             6 ==
         0;
}

// Runs the fixed round schedule at `threads` and returns the concatenated
// reception stream.
std::vector<Reception> RunSchedule(const sinr::Network& net,
                                   std::uint64_t seed, int threads) {
  Engine::Options opts;
  opts.mode = Engine::Mode::kGrid;
  opts.cell = 1.5;
  opts.threads = threads;
  Engine engine(net, opts);

  const std::size_t n = net.size();
  std::vector<Reception> all, out;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::size_t> tx, listeners;
    for (std::size_t i = 0; i < n; ++i) {
      (Transmits(seed, round, i) ? tx : listeners).push_back(i);
    }
    engine.StepInto(tx, listeners, out);
    all.insert(all.end(), out.begin(), out.end());
  }
  return all;
}

void ExpectBitIdentical(const std::vector<Reception>& ref,
                        const std::vector<Reception>& got,
                        const std::string& label) {
  ASSERT_EQ(ref.size(), got.size()) << label;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i].listener, got[i].listener) << label << " entry " << i;
    ASSERT_EQ(ref[i].sender, got[i].sender) << label << " entry " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(ref[i].sinr),
              std::bit_cast<std::uint64_t>(got[i].sinr))
        << label << " entry " << i << ": SINR bits differ";
  }
}

void RunBitIdentityConfig(int threads) {
  const std::string label = "threads=" + std::to_string(threads);
  SCOPED_TRACE(label);
  const std::uint64_t seed = 23;
  const ScenarioSpec spec =
      ScenarioSpec::FromArgs({"--topology=uniform:n=400,side=12"});
  const sinr::Network net = scenario::BuildScenarioNetwork(spec, seed);

  Tracer::Global().Disable();
  const std::vector<Reception> untraced = RunSchedule(net, seed, threads);
  ASSERT_GT(untraced.size(), 0u);

  Tracer::Global().Enable();
  const std::vector<Reception> traced = RunSchedule(net, seed, threads);
  std::ostringstream os;
  const TraceSummary sum = Tracer::Global().Drain(os);
  // The traced run must actually have recorded engine spans...
  EXPECT_GT(sum.events, 0) << label;
  // ...without perturbing one reception bit.
  ExpectBitIdentical(untraced, traced, label);
}

TEST(ObsEquivalenceTest, Threads1Ranks0) { RunBitIdentityConfig(1); }
TEST(ObsEquivalenceTest, Threads4Ranks0) { RunBitIdentityConfig(4); }

}  // namespace
}  // namespace dcc
