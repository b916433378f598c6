// Sparsification (Alg. 2, Lemmas 8-9) and SparsificationU (Alg. 3).
//
// Sparsification repeatedly builds a proximity graph on the active set,
// picks an independent set Y (clustered sets: local ID minima; unclustered
// sets: a LOCAL-model MIS simulated over schedule replays), links non-Y
// nodes with Y-neighbors to parents, and retires both children and parents
// from the active set. It returns Active ∪ Prnts — a 3/4-density
// sparsification for clustered sets — together with the *exchange stages*
// (transmit table + participant snapshot) later replayed for tree
// communication (labeling, cluster inheritance).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dcc/cluster/profile.h"
#include "dcc/cluster/proximity.h"
#include "dcc/sim/runner.h"

namespace dcc::cluster {

// One proximity-exchange stage: the exchange schedule's transmit table
// over the exact participant snapshot, enough to replay it and reproduce
// every H-edge delivery.
struct ExchangeStage {
  sim::TransmitTable table;
  std::vector<sim::Participant> participants;
};

struct ParentLink {
  NodeId parent = kNoNode;
  int stage = -1;  // index into the owning result's `stages`
};

struct SparsifyResult {
  std::vector<std::size_t> returned;  // node indices: Active ∪ Prnts
  std::unordered_map<NodeId, ParentLink> links;  // child id -> link
  std::vector<ExchangeStage> stages;
  Round rounds = 0;
  int iterations_run = 0;
};

// Alg. 2. `active` are node indices; `cluster_of` is indexed by node index
// (ignored when `clustered` is false). `gamma` is the density bound
// driving the iteration count.
SparsifyResult Sparsify(sim::Exec& ex, const Profile& prof,
                        const std::vector<std::size_t>& active,
                        const std::vector<ClusterId>& cluster_of, int gamma,
                        bool clustered, std::uint64_t nonce);

// Alg. 3: l_uncl chained unclustered sparsifications. sets[0] is the input
// set; sets[i] the result of the i-th call. Stage indices in `links` refer
// to the concatenated `stages`.
struct SparsifyChain {
  std::vector<std::vector<std::size_t>> sets;
  std::unordered_map<NodeId, ParentLink> links;
  std::vector<ExchangeStage> stages;
  Round rounds = 0;
};

SparsifyChain SparsifyU(sim::Exec& ex, const Profile& prof,
                        const std::vector<std::size_t>& active, int gamma,
                        std::uint64_t nonce);

}  // namespace dcc::cluster
