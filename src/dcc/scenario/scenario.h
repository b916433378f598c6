// Executing ScenarioSpecs: one run per seed, or a seed sweep on a thread
// pool. This is the umbrella header of the scenario layer — include this
// to drive experiments, registry.h to extend it.
#pragma once

#include <cstdint>
#include <vector>

#include "dcc/scenario/registry.h"
#include "dcc/scenario/report.h"
#include "dcc/scenario/spec.h"

namespace dcc::scenario {

// Runs the spec once under `seed`: resolve the topology, build the network
// (ids from id_seed, default seed+1), inject faults, resolve and run the
// algorithm, validate. Never throws — a failed run returns a report with
// ok = false and the error message.
RunReport RunScenario(const ScenarioSpec& spec, std::uint64_t seed);

// The two halves of a static RunScenario, split so the service layer can
// reuse one generated network across every request that shares it
// (src/dcc/service): BuildScenarioNetwork resolves the topology and builds
// the network, communication graph included — the expensive,
// algorithm-independent prefix (it throws on bad specs); RunScenarioOnNetwork
// runs the algorithm half against a prebuilt network it never writes, so
// concurrent runs may share one instance (it never throws — failures land
// in the report). The network must come from BuildScenarioNetwork on a spec
// whose topology/sinr/shadowing/id_seed coordinates match, under the same
// seed: a network built otherwise may still have to build its graph on
// first use (sinr::Network::CommGraph), which is a write.
sinr::Network BuildScenarioNetwork(const ScenarioSpec& spec,
                                   std::uint64_t seed);
RunReport RunScenarioOnNetwork(const ScenarioSpec& spec, std::uint64_t seed,
                               const sinr::Network& net);

// Runs the spec over its sweep grid — spec.seeds, crossed with
// spec.sweep_values over topology parameter spec.sweep_key when set — on
// the process-wide parallel::WorkerPool, capped at spec.threads workers
// (0 = the pool's full parallelism). Every run builds its own
// Network/Exec, so the result is independent of the thread count and
// equal to serial execution; reports come back in grid order
// (value-major, then seed). Engines inside a pool-occupying sweep still
// dispatch their rounds: the shard tickets go on the running worker's own
// deque, and workers freed by the sweep's tail steal them; a single-job
// sweep leaves the pool to the engine's shards.
std::vector<RunReport> RunSweep(const ScenarioSpec& spec);

}  // namespace dcc::scenario
