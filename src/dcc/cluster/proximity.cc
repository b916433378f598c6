#include "dcc/cluster/proximity.h"

#include <algorithm>
#include <unordered_map>

namespace dcc::cluster {

namespace {

constexpr std::int32_t kExchangeMsg = 101;
constexpr std::int32_t kConfirmMsg = 102;
constexpr std::int32_t kLocalRoundMsg = 103;

}  // namespace

ProximityResult BuildProximityGraph(sim::Exec& ex, const Profile& prof,
                                    const std::vector<sim::Participant>& parts,
                                    bool clustered, std::uint64_t nonce) {
  const std::int64_t N = ex.net().params().id_space;
  ProximityResult res;
  res.table = sim::Tabulate(
      clustered ? *prof.MakeWcss(N, nonce) : *prof.MakeWss(N, nonce), parts);
  const sim::TransmitTable& S = res.table;
  const Round start = ex.rounds();

  const std::size_t np = parts.size();
  res.adj.assign(np, {});
  if (np == 0) {
    res.rounds = 0;
    return res;
  }

  // Lookup: id -> position in parts.
  std::unordered_map<NodeId, std::size_t> pos_of_id;
  pos_of_id.reserve(np);
  for (std::size_t p = 0; p < np; ++p) pos_of_id.emplace(parts[p].id, p);

  // --- Exchange phase ---------------------------------------------------
  // heard[p]: (local round, sender position), same-cluster only when
  // clustered.
  std::vector<std::vector<std::pair<std::int64_t, std::size_t>>> heard(np);
  sim::ExecuteSchedule(
      ex, S, parts,
      [&](std::size_t p, std::int64_t) -> std::optional<sim::Message> {
        sim::Message m;
        m.src = parts[p].id;
        m.cluster = parts[p].cluster;
        m.kind = kExchangeMsg;
        return m;
      },
      [&](std::size_t, std::size_t p, const sim::Message& m, std::int64_t t) {
        if (p == sim::kNotParticipant) return;
        if (clustered && m.cluster != parts[p].cluster) return;
        const auto sit = pos_of_id.find(m.src);
        if (sit == pos_of_id.end()) return;
        heard[p].emplace_back(t, sit->second);
      });

  // --- Filtering phase (local computation, no rounds) ---------------------
  // Cv: candidate positions per node.
  std::vector<std::vector<std::size_t>> cand(np);
  for (std::size_t p = 0; p < np; ++p) {
    // Distinct heard senders.
    std::vector<std::size_t> uv;
    for (const auto& [t, s] : heard[p]) uv.push_back(s);
    std::sort(uv.begin(), uv.end());
    uv.erase(std::unique(uv.begin(), uv.end()), uv.end());

    for (const std::size_t w : uv) {
      // Drop w if p heard some u != w in a round where the schedule had w
      // transmitting (w's signal was "witnessed away").
      bool keep = true;
      for (const auto& [t, u] : heard[p]) {
        if (u == w) continue;
        if (S.Selects(t, w)) {
          keep = false;
          break;
        }
      }
      if (keep) cand[p].push_back(w);
    }
    if (static_cast<int>(cand[p].size()) > prof.kappa) cand[p].clear();
  }

  // --- Confirmation phase: kappa repetitions of S -------------------------
  // conf[p] = positions w with w in cand[p] that announced p (i.e. p in
  // cand[w] as far as p can tell).
  std::vector<std::vector<std::size_t>> conf(np);
  for (int rep = 0; rep < prof.kappa; ++rep) {
    sim::ExecuteSchedule(
        ex, S, parts,
        [&](std::size_t p, std::int64_t) -> std::optional<sim::Message> {
          if (static_cast<std::size_t>(rep) >= cand[p].size())
            return std::nullopt;
          sim::Message m;
          m.src = parts[p].id;
          m.cluster = parts[p].cluster;
          m.kind = kConfirmMsg;
          m.a = parts[cand[p][static_cast<std::size_t>(rep)]].id;
          return m;
        },
        [&](std::size_t, std::size_t p, const sim::Message& m,
            std::int64_t) {
          if (m.kind != kConfirmMsg || p == sim::kNotParticipant) return;
          if (clustered && m.cluster != parts[p].cluster) return;
          if (m.a != parts[p].id) return;  // not addressed to me
          const auto sit = pos_of_id.find(m.src);
          if (sit == pos_of_id.end()) return;
          // Only candidates can become neighbors.
          const std::size_t w = sit->second;
          if (std::find(cand[p].begin(), cand[p].end(), w) != cand[p].end()) {
            conf[p].push_back(w);
          }
        });
  }

  // --- Edge set: mutual confirmation --------------------------------------
  for (std::size_t p = 0; p < np; ++p) {
    std::sort(conf[p].begin(), conf[p].end());
    conf[p].erase(std::unique(conf[p].begin(), conf[p].end()), conf[p].end());
  }
  for (std::size_t p = 0; p < np; ++p) {
    for (const std::size_t w : conf[p]) {
      if (w <= p) continue;
      if (std::binary_search(conf[w].begin(), conf[w].end(), p)) {
        res.adj[p].push_back(w);
        res.adj[w].push_back(p);
      }
    }
  }
  for (auto& a : res.adj) std::sort(a.begin(), a.end());

  res.rounds = ex.rounds() - start;
  return res;
}

mis::LocalRound ReplayRound(
    sim::Exec& ex, const sim::TransmitTable& table,
    const std::vector<sim::Participant>& parts,
    const std::vector<std::vector<std::size_t>>* adj) {
  return [&ex, &table, &parts, adj](const std::vector<std::int64_t>& out,
                                    mis::Inbox& inbox) {
    for (auto& in : inbox) in.clear();
    sim::ExecuteSchedule(
        ex, table, parts,
        [&](std::size_t p, std::int64_t) -> std::optional<sim::Message> {
          sim::Message m;
          m.src = parts[p].id;
          m.cluster = parts[p].cluster;
          m.kind = kLocalRoundMsg;
          m.a = out[p];
          return m;
        },
        [&](std::size_t, std::size_t p, const sim::Message& m,
            std::int64_t) {
          if (m.kind != kLocalRoundMsg || p == sim::kNotParticipant) return;
          if (adj && std::none_of((*adj)[p].begin(), (*adj)[p].end(),
                                  [&](std::size_t w) {
                                    return parts[w].id == m.src;
                                  })) {
            return;
          }
          inbox[p].emplace_back(m.src, m.a);
        });
  };
}

}  // namespace dcc::cluster
