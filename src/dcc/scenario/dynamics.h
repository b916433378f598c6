// Dynamic scenarios: mobility + churn driving per-epoch re-clustering.
//
// A dynamic run executes `epochs` epochs of `epoch_len` simulated time
// each. Epoch 0 clusters the freshly generated topology; every later epoch
// (1) advances the mobility model and (2) applies the churn process (a
// leave clears the node's activity bit, a join sets it and respawns the
// node), then writes the positions to the Network in place (the engine
// re-tiles its grid and rebuilds its reception reach on its next round),
// and (3) re-runs clustering over the active member set, validating the
// geometric postconditions against the *current* positions and measuring
// how much of the previous epoch's cluster structure survived.
//
// Driver keys of the `dynamics` ParamMap (all others go to the mobility
// model's factory; unknown keys are rejected):
//   model      mobility model name in MobilityModels()     (waypoint)
//   epochs     number of epochs                            (8)
//   epoch_len  simulated time per epoch                    (1)
//   churn      leave rate, events/node/time                (0)
//   join       rejoin rate for inactive nodes              (= churn)
//   side       world box [0,side]^2; 0 = bounding box of the
//              generated points                            (0)
//
// Per-seed derivations extend the static ones: the mobility and churn
// streams are salted hashes of the run seed, independent of the topology,
// id and nonce streams.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "dcc/mobility/model.h"
#include "dcc/scenario/registry.h"
#include "dcc/scenario/spec.h"

namespace dcc::scenario {

// Builds a mobility model from the (shared) dynamics ParamMap. The factory
// owns interpreting its model-specific keys; leftovers fail the run.
using MobilityFactory = std::function<std::unique_ptr<mobility::MobilityModel>(
    const ParamMap& params, const Box& world, std::uint64_t seed)>;

using MobilityRegistry = Registry<MobilityFactory>;

// Process-wide registry, pre-loaded with waypoint, walk (Gauss-Markov) and
// group (RPGM). Extend like the other registries: one Register call.
MobilityRegistry& MobilityModels();

// True iff the spec requests a dynamic run; RunScenario dispatches here.
bool IsDynamic(const ScenarioSpec& spec);

// Runs one dynamic scenario under `seed`. Requires algo "clustering" (the
// stability metrics are defined on clusterings) and no fault injection.
// Fills RunReport::dynamic with one metric set per epoch; `ok` iff every
// epoch produced a valid clustering with zero unassigned members.
RunReport RunDynamicScenario(const ScenarioSpec& spec, std::uint64_t seed);

}  // namespace dcc::scenario
