// Geometric validators — the test oracles that pin the paper's
// postconditions to the actual node positions. Protocol code never sees
// these (they read the ground-truth geometry).
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dcc/sinr/network.h"

namespace dcc::cluster {

struct ClusteringCheck {
  std::size_t members = 0;
  std::size_t assigned = 0;
  int num_clusters = 0;
  int max_cluster_size = 0;
  // Max distance from a member to its cluster center (center = the node
  // whose id equals the cluster id). r-clustering condition (i).
  double max_radius = 0.0;
  bool centers_exist = true;
  // Min pairwise distance between centers. r-clustering condition (ii):
  // must be >= 1 - eps.
  double min_center_sep = std::numeric_limits<double>::infinity();
  // Max number of distinct clusters intersecting any (node-centered) unit
  // ball. Paper contribution (ii): O(1).
  int max_clusters_per_unit_ball = 0;

  bool ValidRClustering(double r, double eps) const {
    return assigned == members && centers_exist && max_radius <= r + 1e-9 &&
           min_center_sep >= (1.0 - eps) - 1e-9;
  }
  // ValidRClustering(1, eps) on the reception range `net`'s shadowing
  // gives: radius <= s and center separation >= (1 - eps) / s, with
  // s = PathLossModel::RangeStretch(), exactly 1 without shadowing.
  bool ValidOn(const sinr::Network& net) const {
    const double s = net.propagation().RangeStretch();
    return assigned == members && centers_exist && max_radius <= s + 1e-9 &&
           min_center_sep >= (1.0 - net.params().eps) / s - 1e-9;
  }
};

ClusteringCheck CheckClustering(const sinr::Network& net,
                                const std::vector<std::size_t>& members,
                                const std::vector<ClusterId>& cluster_of);

// Close pairs per Definition 1 among `members`. In clustered mode pairs
// must share a cluster and r is the clustering radius; in unclustered mode
// pass cluster_of filled with a single value and r = 1.
std::vector<std::pair<std::size_t, std::size_t>> FindClosePairs(
    const sinr::Network& net, const std::vector<std::size_t>& members,
    const std::vector<ClusterId>& cluster_of, int gamma, double r);

// Density of a member subset: max members in any member-centered unit ball.
int SubsetDensity(const sinr::Network& net,
                  const std::vector<std::size_t>& members);

// Max members of any single cluster (clustered density, Section 2).
int MaxClusterSize(const sinr::Network& net,
                   const std::vector<std::size_t>& members,
                   const std::vector<ClusterId>& cluster_of);

struct LabelingCheck {
  int max_label = 0;
  // Max multiplicity of one label within one cluster — the "c" of
  // c-imperfect labeling.
  int max_multiplicity = 0;
  bool all_labeled = true;
};

LabelingCheck CheckLabeling(const sinr::Network& net,
                            const std::vector<std::size_t>& members,
                            const std::vector<ClusterId>& cluster_of,
                            const std::unordered_map<NodeId, int>& labels);

}  // namespace dcc::cluster
