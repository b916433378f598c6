// Structured result of one scenario run: the spec coordinates that produced
// it, a pass/fail verdict from the algorithm's validator, and a named-metric
// recorder (round counts, validation measurements, diagnostics). Serializes
// to schema-stable JSON ("dcc.run_report.v1") for downstream tooling.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dcc/stats/recorder.h"

namespace dcc::sinr {
class Engine;
}  // namespace dcc::sinr

namespace dcc::scenario {

struct RunReport {
  std::string topology;
  std::string algo;
  std::uint64_t seed = 0;
  // Verdict of the algorithm's own validation (geometric postconditions,
  // coverage, agreement...). A run that threw has ok = false and `error`.
  bool ok = false;
  std::string error;
  stats::Recorder metrics;

  // Dynamic runs only ("dcc.dynamic.v1"): one metric set per epoch
  // (rounds, clusters, unassigned, survival...). Static runs leave it
  // empty and the JSON omits the section entirely.
  struct DynamicSection {
    std::string model;          // mobility model name
    double epoch_len = 0.0;     // simulated time per epoch
    std::vector<stats::Recorder> epochs;
    bool empty() const { return epochs.empty(); }
  };
  DynamicSection dynamic;

  // Parallel engines only ("dcc.parallel.v1", emitted when the run's
  // engine decomposed rounds into shards): how the round work spread
  // across them. Serial runs leave it empty and the JSON omits the
  // section entirely.
  struct ParallelSection {
    int threads = 0;  // resolved shard count (Engine::threads())
    std::int64_t rounds_parallel = 0;  // rounds dispatched across shards
    // Rounds a parallel engine ran inline because dispatching could not
    // win: under the listener grain, an indivisible tile plan, or the
    // engine nested inside a pool-occupying sweep.
    std::int64_t rounds_serial = 0;
    // Cumulative listeners resolved by each shard index, and the load
    // skew max/mean (1 = perfectly balanced; 0 when no round dispatched).
    std::vector<std::int64_t> shard_load;
    double imbalance = 0.0;
    // Per-listener-tile far-field states built in round prologues (a pure
    // function of the round schedule).
    std::int64_t tile_states_computed = 0;
    bool empty() const { return threads == 0; }
  };
  ParallelSection parallel;

  void PrintJson(std::ostream& os) const;
};

// Fills rep.parallel from a parallel engine's cumulative stats; a no-op
// for serial engines (threads() <= 1), leaving the section empty.
void FillParallelSection(RunReport& rep, const sinr::Engine& engine);

// Sweep envelope ("dcc.sweep.v1"): the canonical spec line + all runs.
void PrintSweepJson(std::ostream& os, const std::string& spec_line,
                    const std::vector<RunReport>& runs);

}  // namespace dcc::scenario
