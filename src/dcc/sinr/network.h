// A wireless network instance: node positions + IDs + SINR parameters,
// with derived structure (communication graph, density, diameter).
//
// Internally nodes are indexed 0..n-1 for the simulator; protocol code must
// operate on NodeIds only (the paper's knowledge model). The Network owns
// the id<->index mapping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "dcc/common/geometry.h"
#include "dcc/common/types.h"
#include "dcc/sinr/params.h"
#include "dcc/sinr/propagation.h"

namespace dcc::sinr {

// Optional deterministic shadowing: per-link multiplicative gain
// perturbation, log-uniform in [1/(1+spread), 1+spread], seeded and
// symmetric. Models the idealized-SINR / real-radio gap (obstacles,
// antenna variation) while keeping runs reproducible. spread = 0 disables.
// (Convenience wrapper over LogUniformShadowingModel; pass a model directly
// for anything beyond that.)
struct Shadowing {
  double spread = 0.0;
  std::uint64_t seed = 0;
};

class Network {
 public:
  // IDs must be unique and within [1, params.id_space]; positions and ids
  // must have equal length.
  Network(std::vector<Vec2> positions, std::vector<NodeId> ids, Params params,
          Shadowing shadowing = {});

  // Same, with an explicit propagation model (must be non-null).
  Network(std::vector<Vec2> positions, std::vector<NodeId> ids, Params params,
          std::shared_ptr<const PropagationModel> model);

  // Assigns IDs 1..n in position order (convenience for tests/workloads).
  static Network WithSequentialIds(std::vector<Vec2> positions, Params params);

  std::size_t size() const { return pos_.size(); }

  // --- Dynamic topologies: in-place position updates. ---
  // Mobility mutates positions between protocol epochs; node count and ids
  // are fixed (churn is an *activity* notion layered above — see
  // scenario/dynamics.h). Replaces every position; pts.size() must equal
  // size(). Refreshes the dense gain matrix where present (O(n^2) while it
  // is live, n <= kGainMatrixLimit; O(n) beyond), invalidates the lazy
  // communication graph and bumps positions_version().
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

  // Received power at j of a transmission from i, as defined by the
  // propagation model (P / d(i,j)^alpha for the default path-loss model).
  // Precomputed into a dense matrix for n <= kGainMatrixLimit, otherwise
  // computed on the fly.
  double Gain(std::size_t i, std::size_t j) const {
    if (!gain_.empty()) return gain_[i * pos_.size() + j];
    return ComputeGain(i, j);
  }

  // Row i of the dense gain matrix: GainRow(i)[j] == Gain(i, j) for every
  // j. nullptr when the matrix is not kept (n > kGainMatrixLimit).
  const double* GainRow(std::size_t i) const {
    return gain_.empty() ? nullptr : gain_.data() + i * pos_.size();
  }

  // The propagation model gains are computed under.
  const PropagationModel& propagation() const { return *model_; }

  // --- Communication graph: edges {u,v} with d(u,v) <= 1 - eps. ---
  // Built on first use (this call, MaxDegree, HopDistances, Diameter or
  // Connected), and that first call writes the network: build it before
  // threads share the network (scenario::BuildScenarioNetwork does).
  const std::vector<std::vector<std::size_t>>& CommGraph() const;

  // Degree of the communication graph (max over nodes).
  int MaxDegree() const;

  // Density Gamma: max number of nodes in a node-centered unit ball
  // (see geometry.h for the node-centered convention).
  int Density() const;

  // BFS hop distances in the communication graph from `src` (index);
  // unreachable nodes get -1.
  std::vector<int> HopDistances(std::size_t src) const;

  // Diameter of the communication graph (max finite BFS eccentricity from
  // node 0's component); -1 if the graph is empty.
  int Diameter() const;

  // True iff the communication graph is connected.
  bool Connected() const;

  static constexpr std::size_t kGainMatrixLimit = 2048;

 private:
  double ComputeGain(std::size_t i, std::size_t j) const;

  std::vector<Vec2> pos_;
  std::uint64_t positions_version_ = 0;
  std::vector<NodeId> ids_;
  Params params_;
  std::shared_ptr<const PropagationModel> model_;
  std::unordered_map<NodeId, std::size_t> index_of_;
  std::vector<double> gain_;  // dense n*n when n <= kGainMatrixLimit
  mutable std::vector<std::vector<std::size_t>> comm_graph_;  // lazy
};

}  // namespace dcc::sinr
