// Node churn: a Poisson join/leave process over a fixed node population.
//
// Churn is modeled as *activity*, not allocation: every node keeps its
// slot, id and gain-matrix row for the whole run, and the process toggles
// an active mask. That keeps the simulator allocation-free across epochs —
// a leave only clears the node's bit, a join sets it and takes a Respawn
// position from the mobility model — while protocol code simply never sees
// inactive nodes in its member set.
//
// Per epoch of length dt, each active node leaves with probability
// 1 - exp(-leave_rate * dt) and each inactive node rejoins with probability
// 1 - exp(-join_rate * dt) (the discrete-time view of independent Poisson
// clocks). The process never drains the network: at least one node always
// stays active.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dcc/common/rng.h"

namespace dcc::mobility {

class ChurnProcess {
 public:
  // Rates are events per node per unit time; both must be >= 0 (zero
  // disables that direction).
  ChurnProcess(double leave_rate, double join_rate, std::uint64_t seed);

  // The epoch's membership changes, as node indices (ascending).
  struct Delta {
    std::vector<std::size_t> left;
    std::vector<std::size_t> joined;
    void Clear() {
      left.clear();
      joined.clear();
    }
  };

  // Advances one epoch: flips entries of `active` in place and records the
  // flips into `delta` (cleared first; buffers are reused across epochs).
  void Step(double dt, std::span<char> active, Delta& delta);

 private:
  double leave_rate_;
  double join_rate_;
  Xoshiro256ss rng_;
};

}  // namespace dcc::mobility
