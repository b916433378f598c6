// ProximityGraphConstruction (Alg. 1, Lemma 7).
//
// Builds, for a (clustered) active set, a constant-degree graph H that
// contains every close pair (Definition 1) as an edge, in O(log N) rounds:
//
//   Exchange phase:      execute the wss/wcss schedule S once; every node
//                        records who it heard and in which rounds.
//   Filtering phase:     v drops w from its candidate set if v heard some
//                        u != w in a round where the public schedule had w
//                        transmitting — the "witnessed" implicit collision
//                        detection. Candidate sets larger than kappa purge.
//   Confirmation phase:  kappa repetitions of S; repetition j carries v's
//                        j-th candidate <v, u>; mutual candidates become
//                        edges.
//
// S is tabulated once over `parts`; the exchange, the filter and the kappa
// confirmations all read that table. The returned adjacency uses positions
// into `parts`. The table is returned so callers can replay S: every
// reception along an H-edge that happened in the exchange phase recurs in
// any replay whose transmitter sets are subsets of the exchange-phase ones
// (the SINR "subset argument": removing interferers can only help the
// strongest sender). A replay in which every participant transmits has
// exactly the exchange phase's transmitter sets, so it delivers every
// H-edge in both directions: a ReplayRound over H is a LOCAL round on H.
#pragma once

#include <cstdint>
#include <vector>

#include "dcc/cluster/profile.h"
#include "dcc/mis/linial.h"
#include "dcc/sim/runner.h"
#include "dcc/sim/schedule.h"

namespace dcc::cluster {

struct ProximityResult {
  // adj[p] = positions (into parts) of p's H-neighbors; degree <= kappa.
  std::vector<std::vector<std::size_t>> adj;
  sim::TransmitTable table;  // S over `parts`
  Round rounds = 0;
};

// `clustered` selects the wcss (cluster-aware) variant; in that mode
// messages from other clusters are ignored and edges stay intra-cluster.
ProximityResult BuildProximityGraph(sim::Exec& ex, const Profile& prof,
                                    const std::vector<sim::Participant>& parts,
                                    bool clustered, std::uint64_t nonce);

// One LOCAL round (mis::LocalRound) as one replay of `table` over `parts`:
// participant p transmits the word out[p] in every local round the table
// selects it, and keeps in inbox[p] the words it hears from participants —
// from its H-neighbors adj[p] only when `adj` is given. The arguments must
// outlive the returned round.
mis::LocalRound ReplayRound(
    sim::Exec& ex, const sim::TransmitTable& table,
    const std::vector<sim::Participant>& parts,
    const std::vector<std::vector<std::size_t>>* adj = nullptr);

}  // namespace dcc::cluster
