#include "dcc/bcast/local_broadcast.h"

#include <algorithm>

#include "dcc/bcast/sns.h"
#include "dcc/cluster/clustering.h"
#include "dcc/cluster/labeling.h"
#include "dcc/sim/coverage.h"

namespace dcc::bcast {

namespace {
constexpr std::int32_t kPayloadMsg = 201;
}  // namespace

LocalBroadcastResult LocalBroadcast(sim::Exec& ex,
                                    const cluster::Profile& prof,
                                    const std::vector<std::size_t>& members,
                                    int gamma, std::uint64_t nonce) {
  const sinr::Network& net = ex.net();
  LocalBroadcastResult res;
  res.members = members.size();
  const Round start = ex.rounds();

  // Stage 1: 1-clustering of the whole set (Theorem 1).
  cluster::ClusteringResult cl =
      cluster::BuildClustering(ex, prof, members, gamma, nonce);
  res.clustering_rounds = cl.rounds;
  res.cluster_of = cl.cluster_of;

  // Stage 2: imperfect labeling within clusters (Lemma 11).
  cluster::LabelingResult lab = cluster::ImperfectLabeling(
      ex, prof, members, res.cluster_of, gamma, HashCombine(nonce, 0x6001u));
  res.labeling_rounds = lab.rounds;

  // Success oracle over the SNS runs: which comm-graph neighbors heard
  // each member, cumulatively and within one round.
  sim::NeighborCoverage cov(net, members);
  ex.SetObserver(cov.Observer());

  // Stage 3: Delta runs of SNS, the l-th by nodes labeled l. The label
  // bound is the clustered density (<= gamma), a public quantity.
  const Round sns_start = ex.rounds();
  const int max_label = std::max(gamma, lab.max_label);
  for (int l = 1; l <= max_label; ++l) {
    std::vector<sim::Participant> parts;
    for (const std::size_t idx : members) {
      const auto it = lab.label.find(net.id(idx));
      if (it != lab.label.end() && it->second == l) {
        parts.push_back(
            sim::Participant{idx, net.id(idx), res.cluster_of[idx]});
      }
    }
    if (parts.empty() && prof.early_stop) continue;
    RunSns(
        ex, prof, parts,
        [&](std::size_t) -> std::optional<sim::Message> {
          sim::Message m;
          m.kind = kPayloadMsg;
          return m;
        },
        [&](std::size_t, const sim::Message&) {},
        HashCombine(nonce, 0x6100u + l));
  }
  res.sns_rounds = ex.rounds() - sns_start;
  ex.SetObserver(nullptr);

  res.covered_single_round = cov.covered_in_one_round();
  res.covered_cumulative = cov.covered();
  res.rounds = ex.rounds() - start;
  return res;
}

}  // namespace dcc::bcast
