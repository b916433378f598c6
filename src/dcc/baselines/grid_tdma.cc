#include "dcc/baselines/grid_tdma.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "dcc/sim/coverage.h"

namespace dcc::baselines {

namespace {
constexpr std::int32_t kPayloadMsg = 331;
constexpr double kCell = 0.70710678118;  // 1/sqrt(2): cell-mates within 1
}  // namespace

GridTdmaResult GridTdmaLocalBroadcast(sim::Exec& ex,
                                      const std::vector<std::size_t>& members,
                                      int s) {
  DCC_REQUIRE(s >= 3, "GridTdmaLocalBroadcast: s >= 3");
  const sinr::Network& net = ex.net();
  GridTdmaResult res;
  res.members = members.size();
  res.cell_colors = s * s;

  // Cell assignment and in-cell ranks (granted by the location model).
  struct Slot {
    int color = 0;
    int rank = 0;
  };
  std::map<std::pair<int, int>, std::vector<std::size_t>> cells;
  for (const std::size_t idx : members) {
    const Vec2 p = net.position(idx);
    cells[{static_cast<int>(std::floor(p.x / kCell)),
           static_cast<int>(std::floor(p.y / kCell))}]
        .push_back(idx);
  }
  std::vector<Slot> slot(net.size());
  for (auto& [cell, nodes] : cells) {
    // Deterministic rank: by id.
    std::sort(nodes.begin(), nodes.end(), [&](std::size_t a, std::size_t b) {
      return net.id(a) < net.id(b);
    });
    const int color = ((cell.first % s + s) % s) * s +
                      ((cell.second % s + s) % s);
    for (std::size_t r = 0; r < nodes.size(); ++r) {
      slot[nodes[r]] = Slot{color, static_cast<int>(r)};
    }
    res.max_occupancy =
        std::max(res.max_occupancy, static_cast<int>(nodes.size()));
  }

  sim::NeighborCoverage cov(net, members);
  ex.SetObserver(cov.Observer());

  const Round start = ex.rounds();
  for (int color = 0; color < s * s; ++color) {
    for (int rank = 0; rank < res.max_occupancy; ++rank) {
      ex.RunRound(
          members,
          [&](std::size_t idx) -> std::optional<sim::Message> {
            if (slot[idx].color != color || slot[idx].rank != rank) {
              return std::nullopt;
            }
            sim::Message m;
            m.src = net.id(idx);
            m.kind = kPayloadMsg;
            return m;
          },
          [](std::size_t, const sim::Message&) {});
    }
  }
  ex.SetObserver(nullptr);
  res.covered_nodes = cov.covered();
  res.covered = res.covered_nodes == res.members;
  res.rounds = ex.rounds() - start;
  return res;
}

}  // namespace dcc::baselines
