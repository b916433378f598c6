#include "dcc/bcast/leader_election.h"

#include <set>

#include "dcc/bcast/smsb.h"
#include "dcc/cluster/clustering.h"

namespace dcc::bcast {

LeaderElectionResult ElectLeader(sim::Exec& ex, const cluster::Profile& prof,
                                 const std::vector<std::size_t>& members,
                                 int gamma, int max_phases,
                                 std::uint64_t nonce) {
  const sinr::Network& net = ex.net();
  LeaderElectionResult res;
  const Round start = ex.rounds();

  // 1) Cluster; centers form the candidate set S (pairwise > 1-eps apart),
  //    kept in ID order so each probe's sources are too.
  cluster::ClusteringResult cl =
      cluster::BuildClustering(ex, prof, members, gamma, nonce);
  std::set<ClusterId> center_ids;
  for (const std::size_t idx : members) {
    if (cl.cluster_of[idx] != kNoCluster) center_ids.insert(cl.cluster_of[idx]);
  }
  DCC_CHECK(!center_ids.empty());

  // 2) Binary search over [1, N]: probe = SMSB from centers in [lo, mid].
  //    Every probe either reaches everyone (range non-empty) or no one.
  NodeId lo = 1, hi = net.params().id_space;
  while (lo < hi) {
    const NodeId mid = lo + (hi - lo) / 2;
    std::vector<std::size_t> src;
    for (const ClusterId phi : center_ids) {
      if (phi >= lo && phi <= mid && net.HasId(phi)) {
        src.push_back(net.IndexOf(phi));
      }
    }
    ++res.probes;
    // A node's observation bit is "I received the probe's broadcast or I
    // was one of its sources"; SMSB correctness makes the bit uniform
    // network-wide, equal to "the probed range holds a center".
    const bool heard = !src.empty();
    if (!src.empty()) {
      SmsbResult sm = SmsBroadcast(ex, prof, src, gamma, max_phases,
                                   HashCombine(nonce, 0x9000u + res.probes));
      if (!sm.all_awake) {
        // Partial propagation would desynchronize nodes' ranges; surface
        // loudly in results rather than silently disagreeing.
        res.agreed = false;
        res.leader = kNoNode;
        res.rounds = ex.rounds() - start;
        return res;
      }
    } else {
      // Empty probe: nodes listen through an (empty) SMSB window; charge
      // one SNS worth of rounds, which is what phase 0 would cost.
      ex.ChargeRounds(prof.SnsLen(net.params().id_space));
    }
    if (heard) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }

  res.leader = lo;
  // The leader must be one of the centers (the minimum-ID center).
  res.agreed = (res.leader == *center_ids.begin());
  res.rounds = ex.rounds() - start;
  return res;
}

}  // namespace dcc::bcast
