#include "dcc/bcast/wakeup.h"

#include <algorithm>
#include <set>

#include "dcc/bcast/smsb.h"
#include "dcc/cluster/clustering.h"

namespace dcc::bcast {

WakeupResult RunWakeup(sim::Exec& ex, const cluster::Profile& prof,
                       const std::vector<std::pair<std::size_t, Round>>&
                           spontaneous,
                       int gamma, int max_phases, std::uint64_t nonce) {
  DCC_REQUIRE(!spontaneous.empty(), "RunWakeup: need a spontaneous wake-up");
  const sinr::Network& net = ex.net();
  WakeupResult res;
  res.awake_at.assign(net.size(), Round{-1});

  Round first = spontaneous[0].second;
  for (const auto& [idx, r] : spontaneous) first = std::min(first, r);
  // Align the clock: the epoch scheme starts executions at multiples of the
  // (publicly computable) epoch length; we charge rounds from the first
  // spontaneous wake-up.
  const Round start = ex.rounds();

  for (int epoch = 0; epoch < 8; ++epoch) {
    ++res.epochs;
    const Round now = ex.rounds() - start + first;
    // Nodes awake before this epoch's start participate.
    std::vector<std::size_t> awake;
    for (const auto& [idx, r] : spontaneous) {
      if (r <= now && res.awake_at[idx] < 0) res.awake_at[idx] = r;
    }
    for (std::size_t i = 0; i < net.size(); ++i) {
      if (res.awake_at[i] >= 0) awake.push_back(i);
    }
    if (awake.empty()) continue;

    // Cluster the awake set; the centers, in ID order, become the SMSB
    // source set (source order is each round's transmitter order).
    cluster::ClusteringResult cl = cluster::BuildClustering(
        ex, prof, awake, gamma, HashCombine(nonce, 0x8000u + epoch));
    std::set<ClusterId> centers_ids;
    for (const std::size_t idx : awake) {
      if (cl.cluster_of[idx] != kNoCluster) centers_ids.insert(cl.cluster_of[idx]);
    }
    std::vector<std::size_t> centers;
    for (const ClusterId phi : centers_ids) {
      if (net.HasId(phi)) centers.push_back(net.IndexOf(phi));
    }
    if (centers.empty()) centers.push_back(awake.front());

    SmsbResult sm = SmsBroadcast(ex, prof, centers, gamma, max_phases,
                                 HashCombine(nonce, 0x8100u + epoch));
    for (std::size_t i = 0; i < net.size(); ++i) {
      if (sm.awake_phase[i] >= 0 && res.awake_at[i] < 0) {
        res.awake_at[i] = ex.rounds() - start + first;
      }
    }
    const bool done = std::all_of(res.awake_at.begin(), res.awake_at.end(),
                                  [](Round r) { return r >= 0; });
    if (done) break;
  }

  res.all_awake = std::all_of(res.awake_at.begin(), res.awake_at.end(),
                              [](Round r) { return r >= 0; });
  res.rounds = ex.rounds() - start;
  return res;
}

}  // namespace dcc::bcast
