// Capped local-minima MIS: the fast deterministic MIS that Sparsify (with
// `use_linial_mis = false`) and RadiusReduction run.
//
// Each round, every undecided node that holds the minimum ID among the
// undecided nodes of its closed neighborhood joins the MIS; undecided
// neighbors of MIS nodes leave as "dominated". After `max_rounds` rounds
// remaining undecided nodes are left undecided (callers treat them as
// outside the MIS and not dominated).
//
// Properties: the joined set is always independent; domination is complete
// when the cap suffices (empirically a handful of rounds on geometric
// proximity graphs; worst case is a decreasing-ID path). The sparsification
// algorithms only need per-dense-area progress, which round 1 already
// provides (the locally minimal node of the neighborhood joins); see
// docs/PAPER_MAP.md, "Deviations from the paper", for why this substitution
// is safe and how validators guard it.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dcc/common/types.h"
#include "dcc/mis/linial.h"

namespace dcc::mis {

// One node's local-minima round: `id`/`state` are the node's own, and
// `neighbors` are the (id, state) pairs it heard this round.
MisState LocalMinimaStep(NodeId id, MisState state,
                         std::span<const std::pair<NodeId, MisState>> neighbors);

struct PartialMisRun {
  std::vector<MisState> state;
  int local_rounds = 0;
  bool all_decided = false;
};

// At most `max_rounds` LOCAL rounds, in each of which every node sends its
// MisState and then takes one LocalMinimaStep; `ids[v]` is node v's id.
// With `stop_at_fixpoint`, stops after the first round that changes no
// state.
PartialMisRun LocalMinimaMis(const LocalRound& round,
                             const std::vector<std::int64_t>& ids,
                             int max_rounds, bool stop_at_fixpoint);
// Over GraphRound(g, ids), stopping at the fixpoint.
PartialMisRun LocalMinimaMis(const LocalGraph& g,
                             const std::vector<std::int64_t>& ids,
                             int max_rounds);

}  // namespace dcc::mis
