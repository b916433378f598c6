#include "dcc/sinr/network.h"

#include <algorithm>
#include <queue>

namespace dcc::sinr {

Network::Network(std::vector<Vec2> positions, std::vector<NodeId> ids,
                 Params params, Shadowing shadowing)
    : pos_(std::move(positions)),
      ids_(std::move(ids)),
      params_(params),
      model_(params, shadowing) {
  DCC_REQUIRE(pos_.size() == ids_.size(),
              "Network: positions and ids must have equal length");
  index_of_.reserve(ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    DCC_REQUIRE(ids_[i] >= 1 && ids_[i] <= params_.id_space,
                "Network: node id out of [1, id_space]");
    const bool inserted = index_of_.emplace(ids_[i], i).second;
    DCC_REQUIRE(inserted, "Network: duplicate node id");
  }
}

Network Network::WithSequentialIds(std::vector<Vec2> positions,
                                   Params params) {
  std::vector<NodeId> ids(positions.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<NodeId>(i + 1);
  return Network(std::move(positions), std::move(ids), params);
}

void Network::SetPositions(std::span<const Vec2> pts) {
  DCC_REQUIRE(pts.size() == pos_.size(),
              "SetPositions: size mismatch (node count is fixed)");
  std::copy(pts.begin(), pts.end(), pos_.begin());
  ++positions_version_;
  comm_graph_.offsets_.assign(1, 0);
  comm_graph_.neighbors_.clear();
}

std::size_t Network::IndexOf(NodeId id) const {
  const auto it = index_of_.find(id);
  DCC_REQUIRE(it != index_of_.end(), "Network::IndexOf: unknown id");
  return it->second;
}

const Adjacency& Network::CommGraph() const {
  Adjacency& g = comm_graph_;
  if (g.size() == 0 && !pos_.empty()) {
    const double r = params_.CommRadius();
    const PointGrid grid(pos_, std::max(r, 1e-9));
    g.offsets_.resize(pos_.size() + 1);
    for (std::size_t i = 0; i < pos_.size(); ++i) {
      const std::size_t first = g.neighbors_.size();
      grid.ForNear(pos_[i], r, [&](std::size_t j) {
        if (j != i) g.neighbors_.push_back(j);
      });
      std::sort(g.neighbors_.begin() + static_cast<std::ptrdiff_t>(first),
                g.neighbors_.end());
      g.offsets_[i + 1] = g.neighbors_.size();
    }
  }
  return g;
}

int Network::MaxDegree() const {
  const Adjacency& g = CommGraph();
  int deg = 0;
  for (std::size_t u = 0; u < g.size(); ++u) {
    deg = std::max(deg, static_cast<int>(g[u].size()));
  }
  return deg;
}

int Network::Density() const { return UnitBallDensity(pos_, 1.0); }

std::vector<int> Network::HopDistances(std::size_t src) const {
  DCC_REQUIRE(src < pos_.size(), "HopDistances: bad source index");
  const auto& g = CommGraph();
  std::vector<int> dist(pos_.size(), -1);
  std::queue<std::size_t> q;
  dist[src] = 0;
  q.push(src);
  while (!q.empty()) {
    const std::size_t v = q.front();
    q.pop();
    for (std::size_t w : g[v]) {
      if (dist[w] < 0) {
        dist[w] = dist[v] + 1;
        q.push(w);
      }
    }
  }
  return dist;
}

int Network::Diameter() const {
  if (pos_.empty()) return -1;
  // Exact diameter via all-sources BFS is O(n * m); fine at our scales.
  int best = 0;
  for (std::size_t s = 0; s < pos_.size(); ++s) {
    const auto dist = HopDistances(s);
    for (int d : dist) best = std::max(best, d);
  }
  return best;
}

bool Network::Connected() const {
  if (pos_.empty()) return true;
  const auto dist = HopDistances(0);
  return std::none_of(dist.begin(), dist.end(), [](int d) { return d < 0; });
}

}  // namespace dcc::sinr
