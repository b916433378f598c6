#include "dcc/mis/local_mis.h"

#include <algorithm>

namespace dcc::mis {

MisState LocalMinimaStep(
    NodeId id, MisState state,
    std::span<const std::pair<NodeId, MisState>> neighbors) {
  if (state != MisState::kUndecided) return state;
  bool neighbor_in_mis = false;
  bool is_min = true;
  for (const auto& [nid, nstate] : neighbors) {
    if (nstate == MisState::kInMis) neighbor_in_mis = true;
    if (nstate == MisState::kUndecided && nid < id) is_min = false;
  }
  if (neighbor_in_mis) return MisState::kDominated;
  if (is_min) return MisState::kInMis;
  return MisState::kUndecided;
}

PartialMisRun LocalMinimaMis(const LocalRound& round,
                             const std::vector<std::int64_t>& ids,
                             int max_rounds, bool stop_at_fixpoint) {
  PartialMisRun run;
  run.state.assign(ids.size(), MisState::kUndecided);
  std::vector<std::int64_t> out(ids.size());
  Inbox inbox(ids.size());
  std::vector<std::pair<NodeId, MisState>> heard;
  for (int r = 0; r < max_rounds; ++r) {
    for (std::size_t v = 0; v < ids.size(); ++v) {
      out[v] = static_cast<std::int64_t>(run.state[v]);
    }
    round(out, inbox);
    bool changed = false;
    for (std::size_t v = 0; v < ids.size(); ++v) {
      heard.clear();
      for (const auto& [id, s] : inbox[v]) {
        heard.emplace_back(id, static_cast<MisState>(s));
      }
      const MisState next = LocalMinimaStep(ids[v], run.state[v], heard);
      changed = changed || next != run.state[v];
      run.state[v] = next;
    }
    ++run.local_rounds;
    if (stop_at_fixpoint && !changed) break;
  }
  run.all_decided =
      std::none_of(run.state.begin(), run.state.end(),
                   [](MisState s) { return s == MisState::kUndecided; });
  return run;
}

PartialMisRun LocalMinimaMis(const LocalGraph& g,
                             const std::vector<std::int64_t>& ids,
                             int max_rounds) {
  DCC_REQUIRE(ids.size() == g.size(), "LocalMinimaMis: ids size mismatch");
  return LocalMinimaMis(GraphRound(g, ids), ids, max_rounds,
                        /*stop_at_fixpoint=*/true);
}

}  // namespace dcc::mis
