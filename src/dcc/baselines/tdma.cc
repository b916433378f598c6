#include "dcc/baselines/tdma.h"

#include <algorithm>

#include "dcc/sim/coverage.h"

namespace dcc::baselines {

namespace {
constexpr std::int32_t kPayloadMsg = 321;
}  // namespace

TdmaResult TdmaLocalBroadcast(sim::Exec& ex,
                              const std::vector<std::size_t>& members) {
  const sinr::Network& net = ex.net();
  TdmaResult res;
  sim::NeighborCoverage cov(net, members);
  const Round start = ex.rounds();
  ex.SetObserver(cov.Observer());
  const std::int64_t N = net.params().id_space;
  for (std::int64_t slot = 1; slot <= N; ++slot) {
    ex.RunRound(
        members,
        [&](std::size_t idx) -> std::optional<sim::Message> {
          if (net.id(idx) != slot) return std::nullopt;
          sim::Message m;
          m.kind = kPayloadMsg;
          return m;
        },
        [](std::size_t, const sim::Message&) {});
  }
  ex.SetObserver(nullptr);
  res.reached = cov.covered();
  res.complete = res.reached == members.size();
  res.rounds = ex.rounds() - start;
  return res;
}

TdmaResult TdmaGlobalBroadcast(sim::Exec& ex, std::size_t source,
                               int max_sweeps) {
  const sinr::Network& net = ex.net();
  TdmaResult res;
  std::vector<char> has_msg(net.size(), 0);
  has_msg[source] = 1;
  std::vector<std::size_t> holders{source};
  const std::int64_t N = net.params().id_space;
  const Round start = ex.rounds();
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    const std::size_t before = holders.size();
    for (std::int64_t slot = 1; slot <= N; ++slot) {
      ex.RunRound(
          holders,
          [&](std::size_t idx) -> std::optional<sim::Message> {
            if (net.id(idx) != slot) return std::nullopt;
            sim::Message m;
            m.kind = kPayloadMsg;
            return m;
          },
          [&](std::size_t listener, const sim::Message& m) {
            if (m.kind != kPayloadMsg || has_msg[listener]) return;
            has_msg[listener] = 1;
            holders.push_back(listener);
          });
      if (holders.size() == net.size()) break;
    }
    if (holders.size() == net.size() || holders.size() == before) break;
  }
  res.reached = holders.size();
  res.complete = res.reached == net.size();
  res.rounds = ex.rounds() - start;
  return res;
}

}  // namespace dcc::baselines
