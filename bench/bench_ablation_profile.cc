// Ablation: which profile constants actually carry the clustering
// pipeline, end to end. docs/PAPER_MAP.md ("Deviations from the paper")
// claims the calibrated practical profile is safe because the validators
// gate it — this bench shows the cliff: sweep one constant at a time, run
// full Clustering, and report validity + rounds.
//
// Expected: validity holds from the default down to a visible knee
// (wss too short -> proximity misses close pairs -> sparsification stalls
// -> unassigned nodes or fat radii), and rounds scale ~linearly with the
// selector lengths above the knee.
#include "bench_common.h"
#include "dcc/cluster/clustering.h"

namespace dcc {
namespace {

struct Outcome {
  bool valid = false;
  Round rounds = 0;
  std::size_t unassigned = 0;
};

Outcome RunOnce(const sinr::Network& net, const cluster::Profile& prof,
                std::uint64_t nonce, const sinr::Engine::Options& engine) {
  std::vector<std::size_t> all(net.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const int gamma = cluster::SubsetDensity(net, all);
  sim::Exec ex(net, engine);
  const auto res = cluster::BuildClustering(ex, prof, all, gamma, nonce);
  const auto chk = cluster::CheckClustering(net, all, res.cluster_of);
  return {res.unassigned == 0 &&
              chk.ValidRClustering(1.0, net.params().eps),
          res.rounds, res.unassigned};
}

void Run(const sinr::Engine::Options& engine) {
  bench::Banner("Profile ablation (end-to-end Clustering)",
                "calibrated-profile evidence (docs/PAPER_MAP.md)",
                "validity cliff as constants shrink; rounds ~linear in the "
                "selector lengths above it");

  sinr::Params params = sinr::Params::Default();
  params.id_space = 1 << 12;
  auto pts = workload::UniformSquare(96, 4.0, 11);
  const auto net = workload::MakeNetwork(pts, params, 21);

  // A hard workload: one very dense clump (Gamma ~ n) — where undersized
  // constants actually fall off the cliff.
  auto dense_pts = workload::UniformSquare(72, 1.4, 13);
  const auto dense_net = workload::MakeNetwork(dense_pts, params, 23);

  std::cout << "-- wss length multiplier (default 0.35) --\n";
  Table tw({"wss_c", "wss_len", "valid", "unassigned", "rounds"});
  for (const double c : {0.05, 0.1, 0.2, 0.35, 0.7, 1.4}) {
    auto prof = cluster::Profile::Practical(params.id_space);
    prof.wss_c = c;
    const auto out = RunOnce(net, prof, 1, engine);
    tw.AddRow({Table::Num(c), Table::Num(prof.WssLen(params.id_space)),
               out.valid ? "yes" : "NO",
               Table::Num(static_cast<std::int64_t>(out.unassigned)),
               Table::Num(out.rounds)});
  }
  tw.Print(std::cout);

  std::cout << "\n-- kappa (close-neighbor constant, default 5) --\n";
  Table tk({"kappa", "valid", "unassigned", "rounds"});
  for (const int k : {2, 3, 5, 8}) {
    auto prof = cluster::Profile::Practical(params.id_space);
    prof.kappa = k;
    const auto out = RunOnce(net, prof, 2, engine);
    tk.AddRow({Table::Num(std::int64_t{k}), out.valid ? "yes" : "NO",
               Table::Num(static_cast<std::int64_t>(out.unassigned)),
               Table::Num(out.rounds)});
  }
  tk.Print(std::cout);

  std::cout << "\n-- sns_k (SNS selection parameter, default 8) --\n";
  Table ts({"sns_k", "valid", "unassigned", "rounds"});
  for (const int k : {3, 5, 8, 12}) {
    auto prof = cluster::Profile::Practical(params.id_space);
    prof.sns_k = k;
    const auto out = RunOnce(net, prof, 3, engine);
    ts.AddRow({Table::Num(std::int64_t{k}), out.valid ? "yes" : "NO",
               Table::Num(static_cast<std::int64_t>(out.unassigned)),
               Table::Num(out.rounds)});
  }
  ts.Print(std::cout);

  std::cout << "\n-- mis_rounds (LOCAL cap, default 10) --\n";
  Table tmr({"mis_rounds", "valid", "unassigned", "rounds"});
  for (const int r : {1, 2, 4, 10, 20}) {
    auto prof = cluster::Profile::Practical(params.id_space);
    prof.mis_rounds = r;
    const auto out = RunOnce(net, prof, 4, engine);
    tmr.AddRow({Table::Num(std::int64_t{r}), out.valid ? "yes" : "NO",
                Table::Num(static_cast<std::int64_t>(out.unassigned)),
                Table::Num(out.rounds)});
  }
  tmr.Print(std::cout);

  std::cout << "\n-- hard workload: 72 nodes in a 1.4x1.4 clump (Gamma="
            << dense_net.Density() << ") --\n";
  Table th({"wss_c", "kappa", "valid", "unassigned", "rounds"});
  for (const auto& [c, k] :
       std::vector<std::pair<double, int>>{{0.02, 2},
                                           {0.05, 2},
                                           {0.05, 5},
                                           {0.35, 2},
                                           {0.35, 5},
                                           {0.7, 5}}) {
    auto prof = cluster::Profile::Practical(params.id_space);
    prof.wss_c = c;
    prof.kappa = k;
    const auto out = RunOnce(dense_net, prof, 5, engine);
    th.AddRow({Table::Num(c), Table::Num(std::int64_t{k}),
               out.valid ? "yes" : "NO",
               Table::Num(static_cast<std::int64_t>(out.unassigned)),
               Table::Num(out.rounds)});
  }
  th.Print(std::cout);
  std::cout << "\n(the uniform-field sweeps above show the default profile "
               "is conservative; the clump is where the margins are spent)\n";
}

}  // namespace
}  // namespace dcc

int main(int argc, char** argv) {
  dcc::Run(dcc::bench::EngineOptionsFromArgs(argc, argv));
  return 0;
}
