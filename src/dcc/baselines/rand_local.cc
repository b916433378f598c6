#include "dcc/baselines/rand_local.h"

#include <algorithm>
#include <cmath>

#include "dcc/common/rng.h"
#include "dcc/sim/coverage.h"

namespace dcc::baselines {

namespace {

constexpr std::int32_t kPayloadMsg = 301;

// Shared driver: runs up to `budget` rounds at transmit probability
// `p(round)`, stopping once every member is covered.
RandLocalResult Drive(sim::Exec& ex, const std::vector<std::size_t>& members,
                      Round budget,
                      const std::function<double(Round)>& prob,
                      std::uint64_t seed) {
  const sinr::Network& net = ex.net();
  RandLocalResult res;
  res.members = members.size();
  res.rounds_budget = budget;

  sim::NeighborCoverage cov(net, members);
  std::size_t covered = cov.covered();  // members without neighbors
  Xoshiro256ss rng(seed);
  const Round start = ex.rounds();
  ex.SetObserver(cov.Observer());

  for (Round t = 0; t < budget; ++t) {
    const double p = prob(t);
    ex.RunRound(
        members,
        [&](std::size_t) -> std::optional<sim::Message> {
          if (rng.NextDouble() >= p) return std::nullopt;
          sim::Message m;
          m.kind = kPayloadMsg;
          return m;
        },
        [](std::size_t, const sim::Message&) {});
    if (cov.covered() > covered) {
      covered = cov.covered();
      res.rounds_to_cover = ex.rounds() - start;
    }
    if (covered == members.size()) break;
  }
  ex.SetObserver(nullptr);
  res.covered_nodes = covered;
  res.covered = res.covered_nodes == res.members;
  if (!res.covered) res.rounds_to_cover = ex.rounds() - start;
  return res;
}

}  // namespace

RandLocalResult RandLocalBroadcastKnown(sim::Exec& ex,
                                        const std::vector<std::size_t>& members,
                                        int delta, double c_prob,
                                        double c_len, std::uint64_t seed) {
  DCC_REQUIRE(delta >= 1, "RandLocalBroadcastKnown: delta >= 1");
  const double n = static_cast<double>(std::max<std::size_t>(members.size(), 2));
  const double p = std::min(1.0, c_prob / static_cast<double>(delta));
  const Round budget = static_cast<Round>(
      std::ceil(c_len * static_cast<double>(delta) * std::log2(n)));
  return Drive(ex, members, budget, [p](Round) { return p; }, seed);
}

RandLocalResult RandLocalBroadcastUnknown(
    sim::Exec& ex, const std::vector<std::size_t>& members, int max_delta,
    double c_prob, double c_len, std::uint64_t seed) {
  const double n = static_cast<double>(std::max<std::size_t>(members.size(), 2));
  // Epoch e guesses Delta_e = 2^e; total budget ~ sum_e c*2^e*log n.
  std::vector<std::pair<Round, double>> epochs;  // (length, probability)
  Round budget = 0;
  for (int e = 1; (1 << e) <= 2 * max_delta; ++e) {
    const double guess = static_cast<double>(1 << e);
    const Round len =
        static_cast<Round>(std::ceil(c_len * guess * std::log2(n)));
    epochs.emplace_back(len, std::min(1.0, c_prob / guess));
    budget += len;
  }
  auto prob = [epochs](Round t) {
    Round acc = 0;
    for (const auto& [len, p] : epochs) {
      acc += len;
      if (t < acc) return p;
    }
    return epochs.back().second;
  };
  return Drive(ex, members, budget, prob, seed);
}

}  // namespace dcc::baselines
