// Figure 3 — one sparsification step (Alg. 2), clustered vs unclustered.
//
// The paper's figure contrasts the clustered case (children always inside
// their cluster; density provably drops to 3/4 Gamma) with the unclustered
// case (a dense ball is not necessarily thinned in one pass — parents can
// be adopted from outside the ball — hence the chained Alg. 3). We
// regenerate both as measurements.
#include "bench_common.h"
#include "dcc/cluster/sparsify.h"

namespace dcc {
namespace {

void Run(const sinr::Engine::Options& engine) {
  bench::Banner(
      "Figure 3: sparsification step",
      "Jurdzinski et al., PODC'18, Fig. 3 + Lemmas 8-9",
      "clustered: per-cluster size <= 3/4 Gamma after one call; unclustered: "
      "density <= 3/4 Gamma after the chained call (Alg. 3)");

  sinr::Params params = sinr::Params::Default();
  params.id_space = 1 << 12;
  const auto prof = cluster::Profile::Practical(params.id_space);

  std::cout << "-- clustered (one Sparsification call) --\n";
  Table tc({"clumps", "Gamma", "max-cluster-before", "max-cluster-after",
            "kept", "rounds"});
  for (const int clumps : {2, 4, 6}) {
    std::vector<Vec2> pts;
    const int per = 16;
    for (int c = 0; c < clumps; ++c) {
      for (int i = 0; i < per; ++i) {
        pts.push_back({c * 2.0 + 0.04 * i, 0.08 * (i % 4)});
      }
    }
    const auto net = workload::MakeNetwork(pts, params, 7 + clumps);
    const auto all = bench::AllIndices(net);
    std::vector<ClusterId> cl(net.size());
    for (std::size_t i = 0; i < net.size(); ++i) {
      cl[i] = net.id((i / per) * per);
    }
    sim::Exec ex(net, engine);
    const auto r = cluster::Sparsify(ex, prof, all, cl, per, true,
                                     static_cast<std::uint64_t>(clumps));
    tc.AddRow({Table::Num(std::int64_t{clumps}), Table::Num(std::int64_t{per}),
               Table::Num(std::int64_t{
                   cluster::MaxClusterSize(net, all, cl)}),
               Table::Num(std::int64_t{
                   cluster::MaxClusterSize(net, r.returned, cl)}),
               std::to_string(r.returned.size()) + "/" +
                   std::to_string(all.size()),
               Table::Num(r.rounds)});
  }
  tc.Print(std::cout);

  std::cout << "\n-- unclustered (chained SparsificationU, Alg. 3) --\n";
  Table tu({"n", "Gamma-before", "Gamma-after", "kept", "rounds"});
  for (const int n : {96, 160, 256}) {
    auto pts = workload::UniformSquare(n, 4.0, 3 + n);
    const auto net = workload::MakeNetwork(pts, params, 5 + n);
    const auto all = bench::AllIndices(net);
    const int gamma = cluster::SubsetDensity(net, all);
    sim::Exec ex(net, engine);
    const auto chain = cluster::SparsifyU(ex, prof, all, gamma,
                                          static_cast<std::uint64_t>(n));
    tu.AddRow({Table::Num(std::int64_t{n}), Table::Num(std::int64_t{gamma}),
               Table::Num(std::int64_t{
                   cluster::SubsetDensity(net, chain.sets.back())}),
               std::to_string(chain.sets.back().size()) + "/" +
                   std::to_string(all.size()),
               Table::Num(chain.rounds)});
  }
  tu.Print(std::cout);
}

}  // namespace
}  // namespace dcc

int main(int argc, char** argv) {
  dcc::Run(dcc::bench::EngineOptionsFromArgs(argc, argv));
  return 0;
}
