#include "dcc/cluster/clustering.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "dcc/cluster/radius_reduction.h"
#include "dcc/cluster/sparsify.h"
#include "dcc/common/math_util.h"
#include "dcc/obs/trace.h"

namespace dcc::cluster {

namespace {

constexpr std::int32_t kInheritMsg = 141;

// One phase-1 level: the set it started from and the sparsification record.
struct Level {
  std::vector<std::size_t> in_set;
  SparsifyResult sp;
  int lambda = 1;  // density bound in force when the level was created
};

}  // namespace

ClusteringResult BuildClustering(sim::Exec& ex, const Profile& prof,
                                 const std::vector<std::size_t>& members,
                                 int gamma, std::uint64_t nonce) {
  DCC_TRACE_SPAN("cluster.build");
  const sinr::Network& net = ex.net();
  const Round start = ex.rounds();
  ClusteringResult res;
  res.cluster_of.assign(net.size(), kNoCluster);
  if (members.empty()) return res;

  const std::vector<ClusterId> no_clusters(net.size(), kNoCluster);

  // --- Phase 1: thinning chain -------------------------------------------
  const int k = CeilLog43(std::max(1.0, static_cast<double>(gamma)));
  std::vector<Level> levels;
  std::vector<std::size_t> X = members;
  double lambda = static_cast<double>(gamma);
  int idle_levels = 0;
  for (int i = 1; i <= k && idle_levels < 2; ++i) {
    for (int j = 0; j < prof.l_uncl; ++j) {
      const int lam = std::max(2, static_cast<int>(std::ceil(lambda)));
      Level lev;
      lev.in_set = X;
      lev.lambda = lam;
      lev.sp = Sparsify(ex, prof, X, no_clusters, lam, /*clustered=*/false,
                        HashCombine(nonce, (0x4000u + i) * 131 + j));
      X = lev.sp.returned;
      const bool progressed = X.size() < lev.in_set.size();
      levels.push_back(std::move(lev));
      if (prof.early_stop) idle_levels = progressed ? 0 : idle_levels + 1;
      if (idle_levels >= 2) break;
    }
    lambda *= 0.75;
  }
  res.levels = static_cast<int>(levels.size());

  // --- Phase 2: re-clustering ----------------------------------------------
  // The final core self-clusters.
  for (const std::size_t idx : X) res.cluster_of[idx] = net.id(idx);

  for (int lev_i = static_cast<int>(levels.size()) - 1; lev_i >= 0; --lev_i) {
    const Level& lev = levels[static_cast<std::size_t>(lev_i)];

    // Inheritance: replay each exchange stage; nodes that already hold a
    // cluster broadcast it; children listen for their recorded parent.
    for (const ExchangeStage& stage : lev.sp.stages) {
      sim::ExecuteSchedule(
          ex, stage.table, stage.participants,
          [&](std::size_t p, std::int64_t) -> std::optional<sim::Message> {
            const std::size_t idx = stage.participants[p].index;
            if (res.cluster_of[idx] == kNoCluster) return std::nullopt;
            sim::Message m;
            m.src = net.id(idx);
            m.kind = kInheritMsg;
            m.a = res.cluster_of[idx];
            return m;
          },
          [&](std::size_t listener, std::size_t p, const sim::Message& m,
              std::int64_t) {
            if (m.kind != kInheritMsg || p == sim::kNotParticipant) return;
            if (res.cluster_of[listener] != kNoCluster) return;
            const auto lit = lev.sp.links.find(net.id(listener));
            if (lit == lev.sp.links.end()) return;
            if (lit->second.parent != m.src) return;
            res.cluster_of[listener] = static_cast<ClusterId>(m.a);
          });
    }

    // All of lev.in_set now carries a (<= 2)-radius clustering; reduce it.
    // Build the member list restricted to nodes that do hold a cluster
    // (equal to in_set when every link delivered; validators check).
    std::vector<std::size_t> cl_members;
    cl_members.reserve(lev.in_set.size());
    for (const std::size_t idx : lev.in_set) {
      if (res.cluster_of[idx] != kNoCluster) cl_members.push_back(idx);
    }
    RadiusReduction(ex, prof, cl_members, res.cluster_of,
                    std::max(4, lev.lambda),
                    HashCombine(nonce, 0x5000u + lev_i));
  }

  for (const std::size_t idx : members) {
    if (res.cluster_of[idx] == kNoCluster) ++res.unassigned;
  }
  res.rounds = ex.rounds() - start;
  return res;
}

}  // namespace dcc::cluster
