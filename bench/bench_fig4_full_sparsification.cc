// Figure 4 — full sparsification (Alg. 4): the level-by-level trajectory.
//
// The paper's figure shows two successive Sparsification rounds carving
// the parent forest. We regenerate it as the per-level density trajectory,
// which Lemma 10 bounds by Gamma * (3/4)^i, plus forest sanity (every
// retired node linked, roots = final level).
#include <cmath>

#include "bench_common.h"
#include "dcc/cluster/full_sparsify.h"

namespace dcc {
namespace {

void Run(const sinr::Engine::Options& engine) {
  bench::Banner("Figure 4: full sparsification trajectory",
                "Jurdzinski et al., PODC'18, Fig. 4 + Lemma 10",
                "per-level max cluster size under Gamma*(3/4)^i (+O(1) floor); "
                "every retired node linked to a same-cluster parent");

  sinr::Params params = sinr::Params::Default();
  params.id_space = 1 << 12;
  const auto prof = cluster::Profile::Practical(params.id_space);

  // One dense cluster per clump.
  std::vector<Vec2> pts;
  const int per = 32, clumps = 3;
  for (int c = 0; c < clumps; ++c) {
    for (int i = 0; i < per; ++i) {
      pts.push_back({c * 2.5 + 0.05 * (i % 8), 0.05 * (i / 8)});
    }
  }
  const auto net = workload::MakeNetwork(pts, params, 13);
  const auto all = bench::AllIndices(net);
  std::vector<ClusterId> cl(net.size());
  for (std::size_t i = 0; i < net.size(); ++i) cl[i] = net.id((i / per) * per);

  sim::Exec ex(net, engine);
  const auto full = cluster::FullSparsify(ex, prof, all, cl, per, 1);

  Table t({"level", "size", "max-cluster", "bound=G*(3/4)^i"});
  for (std::size_t lev = 0; lev < full.levels.size(); ++lev) {
    const double bound = per * std::pow(0.75, static_cast<double>(lev));
    t.AddRow({Table::Num(static_cast<std::int64_t>(lev)),
              Table::Num(static_cast<std::int64_t>(full.levels[lev].size())),
              Table::Num(std::int64_t{
                  cluster::MaxClusterSize(net, full.levels[lev], cl)}),
              Table::Num(bound)});
  }
  t.Print(std::cout);

  // Forest sanity.
  std::size_t linked = full.links.size();
  const std::size_t retired = all.size() - full.final_set().size();
  std::cout << "\nretired nodes: " << retired << ", linked: " << linked
            << " (must match), stages recorded: " << full.stages.size()
            << ", rounds: " << full.rounds << "\n";
}

}  // namespace
}  // namespace dcc

int main(int argc, char** argv) {
  dcc::Run(dcc::bench::EngineOptionsFromArgs(argc, argv));
  return 0;
}
