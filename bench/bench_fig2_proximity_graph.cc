// Figure 2 — proximity graph construction (Alg. 1).
//
// The paper's figure walks through Exchange -> Filtering -> Confirmation.
// We regenerate it as measurements over growing density: close pairs
// present, close pairs covered by H (must be all), max degree (must stay
// <= kappa), edges built and rounds consumed (O(log N), independent of
// density).
#include "bench_common.h"
#include "dcc/cluster/proximity.h"

namespace dcc {
namespace {

void Run(const sinr::Engine::Options& engine) {
  bench::Banner("Figure 2: proximity graph construction",
                "Jurdzinski et al., PODC'18, Fig. 2 + Lemma 7",
                "close-pair coverage 100%, degree <= kappa, rounds flat in "
                "density (O(log N))");

  sinr::Params params = sinr::Params::Default();
  params.id_space = 1 << 12;
  const auto prof = cluster::Profile::Practical(params.id_space);

  Table t({"n", "Gamma", "close-pairs", "covered", "max-deg", "edges",
           "rounds"});
  const double side = 5.0;
  for (const int n : {64, 128, 256, 384}) {
    auto pts = workload::UniformSquare(n, side, 17 + n);
    const auto net = workload::MakeNetwork(pts, params, 23 + n);
    const auto all = bench::AllIndices(net);
    const int gamma = cluster::SubsetDensity(net, all);
    std::vector<ClusterId> one(net.size(), 1);

    std::vector<sim::Participant> parts;
    for (const std::size_t idx : all) {
      parts.push_back({idx, net.id(idx), kNoCluster});
    }
    sim::Exec ex(net, engine);
    const auto prox = cluster::BuildProximityGraph(
        ex, prof, parts, /*clustered=*/false, static_cast<std::uint64_t>(n));

    const auto close = cluster::FindClosePairs(net, all, one, gamma, 1.0);
    int covered = 0;
    auto has_edge = [&](std::size_t u, std::size_t w) {
      for (std::size_t p = 0; p < parts.size(); ++p) {
        if (parts[p].index != u) continue;
        for (const std::size_t q : prox.adj[p]) {
          if (parts[q].index == w) return true;
        }
      }
      return false;
    };
    for (const auto& [u, w] : close) {
      if (has_edge(u, w)) ++covered;
    }
    int max_deg = 0, edges = 0;
    for (const auto& adj : prox.adj) {
      max_deg = std::max(max_deg, static_cast<int>(adj.size()));
      edges += static_cast<int>(adj.size());
    }
    t.AddRow({Table::Num(std::int64_t{n}), Table::Num(std::int64_t{gamma}),
              Table::Num(static_cast<std::int64_t>(close.size())),
              Table::Num(std::int64_t{covered}),
              Table::Num(std::int64_t{max_deg}),
              Table::Num(std::int64_t{edges / 2}), Table::Num(prox.rounds)});
  }
  t.Print(std::cout);
  std::cout << "\nkappa = " << prof.kappa << "\n";
}

}  // namespace
}  // namespace dcc

int main(int argc, char** argv) {
  dcc::Run(dcc::bench::EngineOptionsFromArgs(argc, argv));
  return 0;
}
