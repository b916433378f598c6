// A wireless network instance: node positions + IDs + SINR parameters,
// with derived structure (communication graph, density, diameter).
//
// Internally nodes are indexed 0..n-1 for the simulator; protocol code must
// operate on NodeIds only (the paper's knowledge model). The Network owns
// the id<->index mapping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "dcc/common/geometry.h"
#include "dcc/common/types.h"
#include "dcc/sinr/params.h"
#include "dcc/sinr/propagation.h"

namespace dcc::sinr {

// An undirected graph over node indices 0..size()-1 as one CSR: g[u]
// lists u's neighbors in ascending order, and they start at g.offset(u) of
// one array holding every node's neighbors in node order.
class Adjacency {
 public:
  std::size_t size() const { return offsets_.size() - 1; }
  std::span<const std::size_t> operator[](std::size_t u) const {
    return std::span(neighbors_).subspan(offsets_[u],
                                         offsets_[u + 1] - offsets_[u]);
  }
  std::size_t offset(std::size_t u) const { return offsets_[u]; }

 private:
  friend class Network;
  std::vector<std::size_t> offsets_{0};  // size() + 1 entries
  std::vector<std::size_t> neighbors_;
};

class Network {
 public:
  // IDs must be unique and within [1, params.id_space]; positions and ids
  // must have equal length. Gains follow PathLossModel(params, shadowing)
  // (sinr/propagation.h); a negative spread is rejected.
  Network(std::vector<Vec2> positions, std::vector<NodeId> ids, Params params,
          Shadowing shadowing = {});

  // Assigns IDs 1..n in position order (convenience for tests/workloads).
  static Network WithSequentialIds(std::vector<Vec2> positions, Params params);

  std::size_t size() const { return pos_.size(); }

  // --- Dynamic topologies: in-place position updates. ---
  // Mobility mutates positions between protocol epochs; node count and ids
  // are fixed (churn is an *activity* notion layered above — see
  // scenario/dynamics.h). Replaces every position; pts.size() must equal
  // size(). O(n): copies the positions, invalidates the lazy communication
  // graph and bumps positions_version(); each engine on the network
  // refreshes its own position-derived state on its next round.
  void SetPositions(std::span<const Vec2> pts);

  // Counts SetPositions calls: an engine compares it with the version it
  // last indexed and follows the move before its next round.
  std::uint64_t positions_version() const { return positions_version_; }

  const Params& params() const { return params_; }
  const std::vector<Vec2>& positions() const { return pos_; }
  Vec2 position(std::size_t i) const { return pos_[i]; }
  NodeId id(std::size_t i) const { return ids_[i]; }
  const std::vector<NodeId>& ids() const { return ids_; }

  // Index of a node by ID; throws if unknown.
  std::size_t IndexOf(NodeId id) const;
  bool HasId(NodeId id) const { return index_of_.count(id) > 0; }

  double Distance(std::size_t i, std::size_t j) const {
    return Dist(pos_[i], pos_[j]);
  }

  // Received power at j of a transmission from i, computed by the
  // propagation model on every call (P / d(i,j)^alpha, times the link's
  // shadowing factor when shadowed); 0 for i == j.
  double Gain(std::size_t i, std::size_t j) const {
    if (i == j) return 0.0;
    return model_.Gain(Dist2(pos_[i], pos_[j]), ids_[i], ids_[j]);
  }

  // The propagation model gains are computed under.
  const PathLossModel& propagation() const { return model_; }

  // --- Communication graph: edges {u,v} with d(u,v) <= 1 - eps. ---
  // One CSR (Adjacency), filled by one PointGrid query per node. Built on
  // first use (this call, MaxDegree, HopDistances, Diameter or
  // Connected), and that first call writes the network: build it before
  // threads share the network (scenario::BuildScenarioNetwork does).
  const Adjacency& CommGraph() const;

  // Degree of the communication graph (max over nodes).
  int MaxDegree() const;

  // Density Gamma: max number of nodes in a node-centered unit ball
  // (see geometry.h for the node-centered convention).
  int Density() const;

  // BFS hop distances in the communication graph from `src` (index);
  // unreachable nodes get -1.
  std::vector<int> HopDistances(std::size_t src) const;

  // Diameter of the communication graph: the largest finite BFS
  // eccentricity over every source, in every component; -1 if the graph
  // is empty.
  int Diameter() const;

  // True iff the communication graph is connected.
  bool Connected() const;

 private:
  std::vector<Vec2> pos_;
  std::uint64_t positions_version_ = 0;
  std::vector<NodeId> ids_;
  Params params_;
  PathLossModel model_;
  std::unordered_map<NodeId, std::size_t> index_of_;
  mutable Adjacency comm_graph_;  // lazy: built while it has no nodes
};

}  // namespace dcc::sinr
