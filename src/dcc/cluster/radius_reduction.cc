#include "dcc/cluster/radius_reduction.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "dcc/cluster/full_sparsify.h"
#include "dcc/cluster/proximity.h"
#include "dcc/mis/local_mis.h"
#include "dcc/obs/trace.h"

namespace dcc::cluster {

namespace {
constexpr std::int32_t kNewClusterMsg = 133;
}  // namespace

RadiusReductionStats RadiusReduction(sim::Exec& ex, const Profile& prof,
                                     const std::vector<std::size_t>& members,
                                     std::vector<ClusterId>& cluster_of,
                                     int gamma, std::uint64_t nonce) {
  DCC_TRACE_SPAN("cluster.radius_reduction");
  const sinr::Network& net = ex.net();
  const std::int64_t N = net.params().id_space;
  const Round start = ex.rounds();
  RadiusReductionStats stats;

  std::vector<std::size_t> X = members;  // still-unassigned nodes
  std::unordered_map<std::size_t, ClusterId> newcluster;

  // Early stopping may run up to 4 * rr_iters iterations (Profile).
  const int hard_cap = prof.early_stop ? 4 * prof.rr_iters : prof.rr_iters;
  for (int it = 0; it < hard_cap && !X.empty(); ++it) {
    const std::uint64_t it_nonce = HashCombine(nonce, 0x3000u + it);

    // 1) Thin X to a constant-density core (keeps >= 1 node per cluster).
    FullSparsifyResult full = FullSparsify(ex, prof, X, cluster_of,
                                           std::max(gamma, 2), it_nonce);
    const std::vector<std::size_t>& core = full.final_set();
    if (core.empty()) break;

    std::vector<sim::Participant> core_parts;
    std::vector<std::int64_t> core_ids;
    for (const std::size_t idx : core) {
      core_parts.push_back(sim::Participant{idx, net.id(idx), kNoCluster});
      core_ids.push_back(net.id(idx));
    }

    // One SNS per iteration, tabulated over the core; every LOCAL round
    // below is one replay of it.
    const auto sns = prof.MakeSns(N, it_nonce);
    const sim::TransmitTable core_sns = sim::Tabulate(*sns, core_parts);
    const mis::LocalRound core_round = ReplayRound(ex, core_sns, core_parts);

    // 2) Hello round: each core node learns the core nodes it hears — the
    //    graph G of Alg. 5 line 5. Every later replay has the same
    //    transmitter sets, so the MIS rounds deliver exactly along G.
    mis::Inbox hello(core.size());
    core_round(std::vector<std::int64_t>(core.size(), 0), hello);

    // 3) MIS of G via local-minima rounds.
    const mis::PartialMisRun mis_run = mis::LocalMinimaMis(
        core_round, core_ids, std::max(prof.mis_rounds, 1), prof.early_stop);

    // 4) Centers broadcast over SNS; unassigned members adopt the first
    //    center they hear (Alg. 5 lines 7-10).
    std::vector<sim::Participant> centers;
    for (std::size_t p = 0; p < core_parts.size(); ++p) {
      if (mis_run.state[p] == mis::MisState::kInMis) {
        centers.push_back(core_parts[p]);
      }
    }
    if (centers.empty()) continue;  // nothing decided; try next iteration
    std::unordered_set<std::size_t> x_set(X.begin(), X.end());
    sim::ExecuteSchedule(
        ex, sim::Tabulate(*sns, centers), centers,
        [&](std::size_t p, std::int64_t) -> std::optional<sim::Message> {
          sim::Message m;
          m.src = centers[p].id;
          m.kind = kNewClusterMsg;
          return m;
        },
        [&](std::size_t listener, std::size_t, const sim::Message& m,
            std::int64_t) {
          if (m.kind != kNewClusterMsg) return;
          if (!x_set.count(listener)) return;
          if (newcluster.count(listener)) return;  // first reception wins
          newcluster.emplace(listener, m.src);
        });
    for (const auto& c : centers) {
      newcluster[c.index] = c.id;  // centers name their own cluster
    }

    // 5) Retire assigned nodes.
    std::vector<std::size_t> next_x;
    for (const std::size_t idx : X) {
      if (!newcluster.count(idx)) next_x.push_back(idx);
    }
    X = std::move(next_x);
    stats.iterations = it + 1;
  }

  for (const auto& [idx, phi] : newcluster) cluster_of[idx] = phi;
  stats.unassigned = X.size();
  stats.rounds = ex.rounds() - start;
  return stats;
}

}  // namespace dcc::cluster
