#include "dcc/sim/coverage.h"

#include <algorithm>

namespace dcc::sim {

NeighborCoverage::NeighborCoverage(const sinr::Network& net,
                                   const std::vector<std::size_t>& members)
    : comm_(net.CommGraph()),
      member_(net.size(), 0),
      heard_(comm_.offset(comm_.size()), 0),
      missing_(net.size(), 0),
      this_round_(net.size(), 0),
      one_round_(net.size(), 0) {
  for (const std::size_t v : members) {
    member_[v] = 1;
    missing_[v] = comm_[v].size();
    if (missing_[v] == 0) ++covered_;
  }
}

Exec::Observer NeighborCoverage::Observer() {
  return [this](Round, const std::vector<std::size_t>& tx,
                const std::vector<sinr::Reception>& recs) {
    // A listener decodes at most one sender per round (beta > 1), so
    // this_round_ counts distinct neighbors.
    for (const sinr::Reception& r : recs) {
      const std::size_t v = r.sender;
      if (!member_[v]) continue;
      const auto nb = comm_[v];
      const auto it = std::lower_bound(nb.begin(), nb.end(), r.listener);
      if (it == nb.end() || *it != r.listener) continue;
      ++this_round_[v];
      char& heard =
          heard_[comm_.offset(v) + static_cast<std::size_t>(it - nb.begin())];
      if (!heard) {
        heard = 1;
        if (--missing_[v] == 0) ++covered_;
      }
    }
    for (const std::size_t v : tx) {
      if (!member_[v]) continue;
      if (!one_round_[v] && this_round_[v] == comm_[v].size()) {
        one_round_[v] = 1;
        ++covered_in_one_round_;
      }
      this_round_[v] = 0;
    }
  };
}

}  // namespace dcc::sim
