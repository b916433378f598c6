#include "dcc/cluster/sparsify.h"

#include <algorithm>
#include <optional>

#include "dcc/mis/local_mis.h"
#include "dcc/obs/trace.h"

namespace dcc::cluster {

namespace {
constexpr std::int32_t kParentClaimMsg = 113;
}  // namespace

SparsifyResult Sparsify(sim::Exec& ex, const Profile& prof,
                        const std::vector<std::size_t>& active,
                        const std::vector<ClusterId>& cluster_of, int gamma,
                        bool clustered, std::uint64_t nonce) {
  DCC_TRACE_SPAN("cluster.sparsify");
  const sinr::Network& net = ex.net();
  const Round start = ex.rounds();
  SparsifyResult res;

  std::vector<std::size_t> cur = active;  // Active
  std::vector<std::size_t> parents;       // Prnts
  std::vector<char> is_parent(net.size(), 0);
  int idle_iters = 0;

  for (int iter = 1; iter <= gamma; ++iter) {
    if (cur.empty()) break;

    // Participants snapshot for this iteration.
    std::vector<sim::Participant> parts;
    parts.reserve(cur.size());
    for (const std::size_t idx : cur) {
      parts.push_back(sim::Participant{
          idx, net.id(idx),
          clustered ? cluster_of[idx] : kNoCluster});
    }

    const std::uint64_t stage_nonce =
        HashCombine(nonce, static_cast<std::uint64_t>(iter));
    ProximityResult prox =
        BuildProximityGraph(ex, prof, parts, clustered, stage_nonce);
    const int stage_index = static_cast<int>(res.stages.size());
    res.stages.push_back(ExchangeStage{std::move(prox.table), parts});
    const ExchangeStage& stage = res.stages.back();
    const mis::LocalRound h_round =
        ReplayRound(ex, stage.table, stage.participants, &prox.adj);

    const std::size_t np = parts.size();
    std::vector<std::int64_t> ids(np);
    for (std::size_t p = 0; p < np; ++p) ids[p] = parts[p].id;

    // --- Independent set Y ------------------------------------------------
    std::vector<std::int64_t> in_y(np, 0);
    if (clustered) {
      // Local minima by ID (v knows its H-neighbors' IDs from Alg. 1).
      for (std::size_t p = 0; p < np; ++p) {
        in_y[p] = std::all_of(prox.adj[p].begin(), prox.adj[p].end(),
                              [&](std::size_t w) { return ids[w] > ids[p]; });
      }
    } else if (prof.use_linial_mis) {
      // Theory path: Linial color reduction + color-class MIS sweep over H
      // (H's degree is at most kappa). Round counts are
      // O((log* N + Delta_H^2) log N); intended for theory-mode runs.
      const mis::MisRun run = mis::LinialMis(
          h_round, ids, net.params().id_space, prof.kappa, prof.early_stop);
      for (std::size_t p = 0; p < np; ++p) in_y[p] = run.in_mis[p];
    } else {
      // Practical path: the capped local-minima MIS over H.
      const mis::PartialMisRun run = mis::LocalMinimaMis(
          h_round, ids, std::max(prof.mis_rounds, 1), prof.early_stop);
      for (std::size_t p = 0; p < np; ++p) {
        in_y[p] = run.state[p] == mis::MisState::kInMis;
      }
    }

    // --- Children link to parents ------------------------------------------
    // One LOCAL round announces the Y flags. NewChl = {v not in Y with a
    // Y-neighbor}; parent = min-ID Y-neighbor.
    mis::Inbox y_flags(np);
    h_round(in_y, y_flags);
    std::vector<NodeId> parent(np, kNoNode);
    for (std::size_t p = 0; p < np; ++p) {
      if (in_y[p]) continue;
      for (const auto& [id, flag] : y_flags[p]) {
        if (flag && (parent[p] == kNoNode || id < parent[p])) parent[p] = id;
      }
    }

    // One replay: children claim their parents; parents learn children.
    std::vector<char> has_children(np, 0);
    sim::ExecuteSchedule(
        ex, stage.table, parts,
        [&](std::size_t p, std::int64_t) -> std::optional<sim::Message> {
          if (parent[p] == kNoNode) return std::nullopt;
          sim::Message m;
          m.src = parts[p].id;
          m.cluster = parts[p].cluster;
          m.kind = kParentClaimMsg;
          m.a = parent[p];
          return m;
        },
        [&](std::size_t, std::size_t p, const sim::Message& m, std::int64_t) {
          if (p != sim::kNotParticipant && m.kind == kParentClaimMsg &&
              m.a == parts[p].id) {
            has_children[p] = 1;
          }
        });

    // --- Retire children and (new) parents from Active ----------------------
    std::vector<std::size_t> next_active;
    int removed = 0;
    for (std::size_t p = 0; p < np; ++p) {
      const std::size_t idx = parts[p].index;
      if (parent[p] != kNoNode) {
        res.links[parts[p].id] = ParentLink{parent[p], stage_index};
        ++removed;
        continue;  // child: retired for good
      }
      if (has_children[p]) {
        if (!is_parent[idx]) {
          is_parent[idx] = 1;
          parents.push_back(idx);
        }
        ++removed;
        continue;  // parent: retired from Active, kept in the return set
      }
      next_active.push_back(idx);
    }
    cur = std::move(next_active);
    res.iterations_run = iter;

    if (removed == 0) {
      ++idle_iters;
      if (prof.early_stop && idle_iters >= 2) break;
    } else {
      idle_iters = 0;
    }
  }

  res.returned = cur;
  res.returned.insert(res.returned.end(), parents.begin(), parents.end());
  std::sort(res.returned.begin(), res.returned.end());
  res.rounds = ex.rounds() - start;
  return res;
}

SparsifyChain SparsifyU(sim::Exec& ex, const Profile& prof,
                        const std::vector<std::size_t>& active, int gamma,
                        std::uint64_t nonce) {
  const Round start = ex.rounds();
  SparsifyChain chain;
  chain.sets.push_back(active);
  const std::vector<ClusterId> empty_clusters(ex.net().size(), kNoCluster);
  for (int i = 0; i < prof.l_uncl; ++i) {
    SparsifyResult r =
        Sparsify(ex, prof, chain.sets.back(), empty_clusters, gamma,
                 /*clustered=*/false, HashCombine(nonce, 0x1000u + i));
    const int stage_offset = static_cast<int>(chain.stages.size());
    for (auto& st : r.stages) chain.stages.push_back(std::move(st));
    for (const auto& [child, link] : r.links) {
      chain.links[child] = ParentLink{link.parent, link.stage + stage_offset};
    }
    chain.sets.push_back(std::move(r.returned));
  }
  chain.rounds = ex.rounds() - start;
  return chain;
}

}  // namespace dcc::cluster
