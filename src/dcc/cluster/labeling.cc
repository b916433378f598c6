#include "dcc/cluster/labeling.h"

#include "dcc/obs/trace.h"

#include <algorithm>
#include <functional>
#include <optional>

namespace dcc::cluster {

namespace {

constexpr std::int32_t kSubtreeSizeMsg = 121;
constexpr std::int32_t kLabelRangeMsg = 122;

}  // namespace

LabelingResult ImperfectLabeling(sim::Exec& ex, const Profile& prof,
                                 const std::vector<std::size_t>& members,
                                 const std::vector<ClusterId>& cluster_of,
                                 int gamma, std::uint64_t nonce) {
  DCC_TRACE_SPAN("cluster.labeling");
  const sinr::Network& net = ex.net();
  const Round start = ex.rounds();
  LabelingResult res;

  FullSparsifyResult forest =
      FullSparsify(ex, prof, members, cluster_of, gamma, nonce);

  // Per-node tree bookkeeping, keyed by NodeId (all entries are knowledge a
  // node legitimately has: its own link and what it heard from children).
  struct TreeInfo {
    std::int64_t subtree = 1;
    // children in deterministic (id) order with their reported sizes and
    // the stage at which they linked.
    std::vector<std::tuple<NodeId, std::int64_t, int>> children;
    std::int64_t lo = 0, hi = 0;  // assigned label range
    bool has_range = false;
  };
  std::unordered_map<NodeId, TreeInfo> info;
  for (const std::size_t idx : members) info[net.id(idx)];

  // children-by-stage for scheduling the replays.
  const int num_stages = static_cast<int>(forest.stages.size());
  std::vector<std::vector<NodeId>> stage_children(
      static_cast<std::size_t>(std::max(num_stages, 1)));
  for (const auto& [child, link] : forest.links) {
    DCC_CHECK(link.stage >= 0 && link.stage < num_stages);
    stage_children[static_cast<std::size_t>(link.stage)].push_back(child);
  }

  // --- Bottom-up: subtree sizes (stages in execution order) ---------------
  for (int s = 0; s < num_stages; ++s) {
    if (stage_children[static_cast<std::size_t>(s)].empty()) continue;
    const ExchangeStage& stage = forest.stages[static_cast<std::size_t>(s)];
    // Dedupe: a parent may hear the same child in several rounds.
    std::unordered_map<NodeId, std::vector<NodeId>> seen;  // parent -> childs
    sim::ExecuteSchedule(
        ex, stage.table, stage.participants,
        [&](std::size_t p, std::int64_t) -> std::optional<sim::Message> {
          const std::size_t idx = stage.participants[p].index;
          const NodeId id = net.id(idx);
          const auto lit = forest.links.find(id);
          if (lit == forest.links.end() || lit->second.stage != s)
            return std::nullopt;
          sim::Message m;
          m.src = id;
          m.cluster = cluster_of[idx];
          m.kind = kSubtreeSizeMsg;
          m.a = lit->second.parent;    // addressee
          m.b = info.at(id).subtree;   // accumulated size
          return m;
        },
        [&](std::size_t listener, std::size_t p, const sim::Message& m,
            std::int64_t) {
          if (m.kind != kSubtreeSizeMsg || p == sim::kNotParticipant) return;
          const NodeId me = net.id(listener);
          if (m.a != me) return;
          auto& kids = seen[me];
          if (std::find(kids.begin(), kids.end(), m.src) != kids.end()) return;
          kids.push_back(m.src);
          auto& ti = info.at(me);
          ti.subtree += m.b;
          ti.children.emplace_back(m.src, m.b, s);
        });
  }

  // Deterministic child order (by id) for range splitting.
  for (auto& [id, ti] : info) {
    std::sort(ti.children.begin(), ti.children.end());
  }

  // --- Roots take [1, subtree] --------------------------------------------
  for (const std::size_t idx : forest.final_set()) {
    auto& ti = info.at(net.id(idx));
    ti.lo = 1;
    ti.hi = ti.subtree;
    ti.has_range = true;
  }

  // Splits [lo+1, hi] among children in id order. Returns child's range.
  const auto child_range = [&](const TreeInfo& ti,
                               NodeId child) -> std::pair<std::int64_t, std::int64_t> {
    std::int64_t next = ti.lo + 1;
    for (const auto& [cid, csz, cstage] : ti.children) {
      if (cid == child) return {next, next + csz - 1};
      next += csz;
    }
    DCC_CHECK_MSG(false, "child_range: unknown child");
    std::abort();
  };

  // --- Top-down: ranges (stages in reverse order) --------------------------
  for (int s = num_stages - 1; s >= 0; --s) {
    const auto& kids = stage_children[static_cast<std::size_t>(s)];
    if (kids.empty()) continue;
    const ExchangeStage& stage = forest.stages[static_cast<std::size_t>(s)];
    for (int rep = 0; rep < prof.label_reps; ++rep) {
      sim::ExecuteSchedule(
          ex, stage.table, stage.participants,
          [&](std::size_t p, std::int64_t) -> std::optional<sim::Message> {
            const std::size_t idx = stage.participants[p].index;
            const NodeId me = net.id(idx);
            const auto iit = info.find(me);
            if (iit == info.end() || !iit->second.has_range)
              return std::nullopt;
            // rep-th child linked at stage s, in id order.
            int count = 0;
            for (const auto& [cid, csz, cstage] : iit->second.children) {
              if (cstage != s) continue;
              if (count == rep) {
                const auto [lo, hi] = child_range(iit->second, cid);
                sim::Message m;
                m.src = me;
                m.cluster = cluster_of[idx];
                m.kind = kLabelRangeMsg;
                m.a = cid;
                m.b = lo;
                m.c = hi;
                return m;
              }
              ++count;
            }
            return std::nullopt;
          },
          [&](std::size_t listener, std::size_t p, const sim::Message& m,
              std::int64_t) {
            if (m.kind != kLabelRangeMsg || p == sim::kNotParticipant) return;
            const NodeId me = net.id(listener);
            if (m.a != me) return;
            auto& ti = info.at(me);
            if (!ti.has_range) {
              ti.lo = m.b;
              ti.hi = m.c;
              ti.has_range = true;
            }
          });
    }
  }

  // --- Final labels ---------------------------------------------------------
  for (const std::size_t idx : members) {
    const NodeId id = net.id(idx);
    const auto& ti = info.at(id);
    // Nodes that never received a range (possible only if label_reps was
    // too small for a very child-heavy stage) fall back to label 1; the
    // validator counts collisions, so miscalibration is loud in tests.
    const int label = ti.has_range ? static_cast<int>(ti.lo) : 1;
    res.label[id] = label;
    res.max_label = std::max(res.max_label, label);
  }
  res.rounds = ex.rounds() - start;
  return res;
}

}  // namespace dcc::cluster
