// A ScenarioSpec makes an experiment a *value*: topology + algorithm (both
// resolved by name through the scenario registries), SINR/engine options,
// seeds, round budget and optional fault injection. Specs parse from and
// serialize to a flag list — the same grammar the `dcc_run` CLI speaks —
// so any run is reproducible from one printable line.
//
// Per-seed derivations (overridable for exact replay of legacy benches):
//   topology seed = seed        (point generation)
//   id seed       = seed + 1    (random NodeId injection)
//   nonce         = seed + 2    (selector freshening)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dcc/scenario/param_map.h"
#include "dcc/sinr/engine.h"
#include "dcc/sinr/network.h"

namespace dcc::scenario {

struct ScenarioSpec {
  std::string topology = "uniform";  // TopologyRegistry key
  ParamMap topology_params;          // e.g. n=4096,side=20
  std::string algo = "clustering";   // AlgorithmRegistry key
  ParamMap algo_params;              // algorithm-specific knobs

  sinr::Params sinr = sinr::Params::Default();
  sinr::Shadowing shadowing;       // spread = 0 disables
  sinr::Engine::Options engine;    // interference resolution strategy

  std::vector<std::uint64_t> seeds = {1};
  std::optional<std::uint64_t> id_seed;  // default seed + 1
  std::optional<std::uint64_t> nonce;    // default seed + 2

  // Optional size grid: sweep one topology parameter over these values
  // (e.g. key "n", values {"1024","4096"}); the sweep then runs the full
  // values x seeds grid. Empty key = seeds only.
  std::string sweep_key;
  std::vector<std::string> sweep_values;

  // Dynamic scenario (empty = static run): mobility + churn parameters,
  // e.g. model=waypoint,epochs=8,speed=0.5,churn=0.05. Driver keys (model,
  // epochs, epoch_len, churn, join, side) are consumed by the dynamics
  // runner, the rest by the mobility model's factory; unknown keys are
  // rejected. See scenario/dynamics.h.
  ParamMap dynamics;

  Round max_rounds = 0;  // 0 = per-algorithm default budget
  int faults = 0;        // always-on background transmitters (jammers)
  // Sweep parallelism; 0 = hardware concurrency. The --threads flag also
  // copies its value into engine.threads (round-level sharding), so one
  // knob drives both layers; programmatic specs may set them separately.
  int threads = 0;

  // Parses a flag list (e.g. {"--topology=uniform:n=128,side=5",
  // "--algo=clustering", "--seeds=1..8"}). Unknown flags or malformed
  // values throw InvalidArgument. FromArgs(ToArgs(s)) == s.
  static ScenarioSpec FromArgs(const std::vector<std::string>& args);

  // Canonical flag list: always emits --topology/--algo/--seeds, other
  // flags only when they differ from their defaults.
  std::vector<std::string> ToArgs() const;

  // ToArgs joined with spaces — the printable one-line form.
  std::string ToString() const;

  // Order-invariant content key: ToString() with every ParamMap
  // (topology, algorithm, dynamics) sorted by key and --threads left out.
  // Two specs that spell the same parameters in a different order share a
  // key; any semantic difference — and only a semantic difference —
  // changes it (defaults are elided exactly as in ToArgs, and a report is
  // the same bytes at every thread count). This is the key the service
  // caches content-address on (src/dcc/service/cache.h) and what
  // `dcc_run --canonical` prints.
  std::string CanonicalKey() const;

  friend bool operator==(const ScenarioSpec& a, const ScenarioSpec& b) {
    return a.ToString() == b.ToString();
  }
};

// Parses a seed list: "7", "1..8" (inclusive), or "1,5,9".
std::vector<std::uint64_t> ParseSeeds(const std::string& text);

}  // namespace dcc::scenario
