#include "dcc/cluster/sparsify.h"

#include <algorithm>
#include <optional>

#include "dcc/mis/linial.h"
#include "dcc/mis/local_mis.h"
#include "dcc/obs/trace.h"

namespace dcc::cluster {

namespace {

constexpr std::int32_t kMisStateMsg = 111;
constexpr std::int32_t kInYMsg = 112;
constexpr std::int32_t kParentClaimMsg = 113;
constexpr std::int32_t kColorMsg = 114;

// Replays the stage's transmit table once over its participants;
// `payload(p)` produces the message for participant position p (nullopt =
// silent). Receptions are filtered to participants and delivered as
// positions.
void ReplayOnce(
    sim::Exec& ex, const ExchangeStage& stage,
    const std::function<std::optional<sim::Message>(std::size_t)>& payload,
    const std::function<void(std::size_t, const sim::Message&)>& on_hear) {
  sim::ExecuteSchedule(
      ex, stage.table, stage.participants,
      [&](std::size_t p, std::int64_t) { return payload(p); },
      [&](std::size_t, std::size_t p, const sim::Message& m, std::int64_t) {
        if (p != sim::kNotParticipant) on_hear(p, m);
      });
}

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

    const std::size_t np = parts.size();

    // --- Independent set Y ------------------------------------------------
    std::vector<char> in_y(np, 0);
    // What each node knows about its neighbors' Y-membership.
    std::vector<std::vector<std::size_t>> y_neighbors(np);

    if (clustered) {
      // Local minima by ID (v knows its H-neighbors' IDs from Alg. 1).
      for (std::size_t p = 0; p < np; ++p) {
        bool is_min = true;
        for (const std::size_t w : prox.adj[p]) {
          if (parts[w].id < parts[p].id) {
            is_min = false;
            break;
          }
        }
        in_y[p] = is_min ? 1 : 0;
      }
      // One replay: everyone announces its Y flag; H-neighbors hear it
      // (H-edge deliveries recur under replays — see proximity.h).
      ReplayOnce(
          ex, stage,
          [&](std::size_t p) -> std::optional<sim::Message> {
            sim::Message m;
            m.src = parts[p].id;
            m.cluster = parts[p].cluster;
            m.kind = kInYMsg;
            m.a = in_y[p];
            return m;
          },
          [&](std::size_t p, const sim::Message& m) {
            if (m.kind != kInYMsg) return;
            for (const std::size_t w : prox.adj[p]) {
              if (parts[w].id == m.src) {
                if (m.a) y_neighbors[p].push_back(w);
                return;
              }
            }
          });
    } else if (prof.use_linial_mis) {
      // Theory path: Linial color reduction + color-class MIS sweep over H,
      // one schedule replay per LOCAL round (DESIGN.md §4.2). Round counts
      // are O((log* N + Delta_H^2) log N); intended for theory-mode runs.
      const std::int64_t id_space = ex.net().params().id_space;
      const int deg_bound = prof.kappa;
      std::vector<std::int64_t> color(np);
      for (std::size_t p = 0; p < np; ++p) color[p] = parts[p].id - 1;
      const auto plan = mis::LinialPlan(id_space, deg_bound);
      for (const mis::LinialRound& lr : plan) {
        std::vector<std::vector<std::int64_t>> ncolors(np);
        ReplayOnce(
            ex, stage,
            [&](std::size_t p) -> std::optional<sim::Message> {
              sim::Message m;
              m.src = parts[p].id;
              m.kind = kColorMsg;
              m.a = color[p];
              return m;
            },
            [&](std::size_t p, const sim::Message& m) {
              if (m.kind != kColorMsg) return;
              for (const std::size_t w : prox.adj[p]) {
                if (parts[w].id == m.src) {
                  ncolors[p].push_back(m.a);
                  return;
                }
              }
            });
        for (std::size_t p = 0; p < np; ++p) {
          color[p] = mis::LinialStep(color[p], ncolors[p], lr);
        }
      }
      const std::int64_t num_colors =
          plan.empty() ? id_space : plan.back().q * plan.back().q;
      // Color-class sweep: class c joins unless a neighbor already did.
      std::vector<mis::MisState> state(np, mis::MisState::kUndecided);
      for (std::int64_t cls = 0; cls < num_colors; ++cls) {
        std::vector<std::vector<std::pair<NodeId, mis::MisState>>> inbox(np);
        ReplayOnce(
            ex, stage,
            [&](std::size_t p) -> std::optional<sim::Message> {
              sim::Message m;
              m.src = parts[p].id;
              m.kind = kMisStateMsg;
              m.a = static_cast<std::int64_t>(state[p]);
              return m;
            },
            [&](std::size_t p, const sim::Message& m) {
              if (m.kind != kMisStateMsg) return;
              for (const std::size_t w : prox.adj[p]) {
                if (parts[w].id == m.src) {
                  inbox[p].emplace_back(m.src,
                                        static_cast<mis::MisState>(m.a));
                  return;
                }
              }
            });
        for (std::size_t p = 0; p < np; ++p) {
          if (state[p] != mis::MisState::kUndecided) continue;
          bool neighbor_in = false;
          for (const auto& [nid, ns] : inbox[p]) {
            if (ns == mis::MisState::kInMis) neighbor_in = true;
          }
          if (neighbor_in) {
            state[p] = mis::MisState::kDominated;
          } else if (color[p] == cls) {
            state[p] = mis::MisState::kInMis;
          }
        }
        if (prof.early_stop) {
          bool any_undecided = false;
          for (const auto s : state) {
            if (s == mis::MisState::kUndecided) any_undecided = true;
          }
          if (!any_undecided) break;
        }
      }
      for (std::size_t p = 0; p < np; ++p) {
        in_y[p] = state[p] == mis::MisState::kInMis ? 1 : 0;
      }
      // Final Y-flag broadcast (as in the fast path below).
      ReplayOnce(
          ex, stage,
          [&](std::size_t p) -> std::optional<sim::Message> {
            sim::Message m;
            m.src = parts[p].id;
            m.kind = kInYMsg;
            m.a = in_y[p];
            return m;
          },
          [&](std::size_t p, const sim::Message& m) {
            if (m.kind != kInYMsg) return;
            for (const std::size_t w : prox.adj[p]) {
              if (parts[w].id == m.src) {
                if (m.a) y_neighbors[p].push_back(w);
                return;
              }
            }
          });
    } else {
      // LOCAL-model MIS over H, one schedule replay per LOCAL round.
      std::vector<mis::MisState> state(np, mis::MisState::kUndecided);
      std::vector<std::vector<std::pair<NodeId, mis::MisState>>> inbox(np);
      const int rounds_cap = std::max(prof.mis_rounds, 1);
      for (int r = 0; r < rounds_cap; ++r) {
        for (auto& in : inbox) in.clear();
        ReplayOnce(
            ex, stage,
            [&](std::size_t p) -> std::optional<sim::Message> {
              sim::Message m;
              m.src = parts[p].id;
              m.kind = kMisStateMsg;
              m.a = static_cast<std::int64_t>(state[p]);
              return m;
            },
            [&](std::size_t p, const sim::Message& m) {
              if (m.kind != kMisStateMsg) return;
              // Accept only H-neighbors.
              for (const std::size_t w : prox.adj[p]) {
                if (parts[w].id == m.src) {
                  inbox[p].emplace_back(m.src,
                                        static_cast<mis::MisState>(m.a));
                  return;
                }
              }
            });
        bool changed = false;
        std::vector<mis::MisState> next(state);
        for (std::size_t p = 0; p < np; ++p) {
          next[p] = mis::LocalMinimaStep(parts[p].id, state[p], inbox[p]);
          changed = changed || next[p] != state[p];
        }
        state = std::move(next);
        if (prof.early_stop && !changed) break;
      }
      for (std::size_t p = 0; p < np; ++p) {
        in_y[p] = state[p] == mis::MisState::kInMis ? 1 : 0;
      }
      // Y-neighborhood knowledge from the final states heard: replay once
      // more so every node sees neighbors' final states.
      ReplayOnce(
          ex, stage,
          [&](std::size_t p) -> std::optional<sim::Message> {
            sim::Message m;
            m.src = parts[p].id;
            m.kind = kInYMsg;
            m.a = in_y[p];
            return m;
          },
          [&](std::size_t p, const sim::Message& m) {
            if (m.kind != kInYMsg) return;
            for (const std::size_t w : prox.adj[p]) {
              if (parts[w].id == m.src) {
                if (m.a) y_neighbors[p].push_back(w);
                return;
              }
            }
          });
    }

    // --- Children link to parents ------------------------------------------
    // NewChl = {v not in Y with a Y-neighbor}; parent = min-ID Y-neighbor.
    std::vector<std::optional<std::size_t>> parent_pos(np);
    for (std::size_t p = 0; p < np; ++p) {
      if (in_y[p] || y_neighbors[p].empty()) continue;
      std::size_t best = y_neighbors[p][0];
      for (const std::size_t w : y_neighbors[p]) {
        if (parts[w].id < parts[best].id) best = w;
      }
      parent_pos[p] = best;
    }

    // One replay: children claim their parents; parents learn children.
    std::vector<char> has_children(np, 0);
    ReplayOnce(
        ex, stage,
        [&](std::size_t p) -> std::optional<sim::Message> {
          if (!parent_pos[p]) return std::nullopt;
          sim::Message m;
          m.src = parts[p].id;
          m.cluster = parts[p].cluster;
          m.kind = kParentClaimMsg;
          m.a = parts[*parent_pos[p]].id;
          return m;
        },
        [&](std::size_t p, const sim::Message& m) {
          if (m.kind != kParentClaimMsg) return;
          if (m.a == parts[p].id) has_children[p] = 1;
        });

    // --- Retire children and (new) parents from Active ----------------------
    std::vector<std::size_t> next_active;
    int removed = 0;
    for (std::size_t p = 0; p < np; ++p) {
      const std::size_t idx = parts[p].index;
      if (parent_pos[p]) {
        res.links[parts[p].id] =
            ParentLink{parts[*parent_pos[p]].id, stage_index};
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
