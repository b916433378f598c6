// Local broadcast's success oracle, shared by LocalBroadcast (Alg. 7) and
// the baselines it is compared with. Installed as an Exec observer, it
// records which communication-graph neighbors have received from each
// member. A member is covered once every comm neighbor has heard it
// (vacuously when it has none), and covered in one round if a single round
// delivered its transmission to all of them. Receptions by nodes outside
// the sender's comm neighborhood, and from non-members (jammers), never
// count.
#pragma once

#include <cstddef>
#include <vector>

#include "dcc/sim/runner.h"

namespace dcc::sim {

class NeighborCoverage {
 public:
  NeighborCoverage(const sinr::Network& net,
                   const std::vector<std::size_t>& members);
  // Observer() captures `this`.
  NeighborCoverage(const NeighborCoverage&) = delete;
  NeighborCoverage& operator=(const NeighborCoverage&) = delete;

  // Folds each round into the tallies: ex.SetObserver(cov.Observer()).
  // The coverage object must outlive the rounds it observes.
  Exec::Observer Observer();

  // Members covered so far, cumulatively and within a single round.
  std::size_t covered() const { return covered_; }
  std::size_t covered_in_one_round() const { return covered_in_one_round_; }

 private:
  const sinr::Adjacency& comm_;
  std::vector<char> member_;
  // heard_[comm_.offset(v) + i]: comm_[v][i] heard v
  std::vector<char> heard_;
  std::vector<std::size_t> missing_;      // comm neighbors yet to hear v
  std::vector<std::size_t> this_round_;   // comm neighbors reached this round
  std::vector<char> one_round_;
  std::size_t covered_ = 0;
  std::size_t covered_in_one_round_ = 0;
};

}  // namespace dcc::sim
