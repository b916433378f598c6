// Figure 1 — the phase anatomy of the global broadcast (Alg. 8).
//
// The paper's figure illustrates one phase: (a) the awake 1-clustered
// cohort, (b) label-sliced SNS local broadcast, (c) sleepers waking and
// inheriting clusters, (d) radius reduction re-forming a 1-clustering.
// We regenerate it as a phase-by-phase trace table: cohort size, newly
// awake, stage round costs, and the cluster count after stage 3 — with the
// per-phase geometric validity checked.
#include "bench_common.h"
#include "dcc/bcast/smsb.h"

namespace dcc {
namespace {

void Run(const sinr::Engine::Options& engine) {
  bench::Banner(
      "Figure 1: global broadcast phase trace",
      "Jurdzinski et al., PODC'18, Fig. 1",
      "cohorts advance one hop per phase; every cohort ends 1-clustered "
      "(radius <= 1, O(1) clusters per unit ball)");

  sinr::Params params = sinr::Params::Default();
  params.id_space = 1 << 12;
  const auto prof = cluster::Profile::Practical(params.id_space);

  auto pts = workload::BlobChain(7, 14, 0.3, 1.3, 99);
  const auto net = workload::MakeNetwork(pts, params, 41);
  if (!net.Connected()) {
    std::cout << "workload disconnected; rerun with another seed\n";
    return;
  }
  std::cout << "workload: 7 blobs x 14 nodes, D=" << net.Diameter()
            << " Delta=" << net.Density() << "\n\n";

  sim::Exec ex(net, engine);
  const auto sm = bcast::SmsBroadcast(ex, prof, {0}, net.Density(),
                                      net.Diameter() + 3, 1);

  Table t({"phase", "cohort", "label-rounds", "sns-rounds", "rr-rounds",
           "newly-awake", "clusters", "cohort-radius<=1"});
  for (std::size_t p = 0; p < sm.phase_stats.size(); ++p) {
    const auto& ps = sm.phase_stats[p];
    // Validate the cohort woken in this phase (phase p+1 cohort).
    std::vector<std::size_t> cohort;
    for (std::size_t i = 0; i < net.size(); ++i) {
      if (sm.awake_phase[i] == static_cast<int>(p) + 2) cohort.push_back(i);
    }
    std::string valid = "-";
    if (!cohort.empty()) {
      const auto chk = cluster::CheckClustering(net, cohort, sm.cluster_of);
      valid = (chk.assigned == chk.members && chk.max_radius <= 1.0 + 1e-9)
                  ? "yes"
                  : "NO";
    }
    t.AddRow({Table::Num(static_cast<std::int64_t>(p + 1)),
              Table::Num(static_cast<std::int64_t>(ps.cohort)),
              Table::Num(ps.label_rounds), Table::Num(ps.sns_rounds),
              Table::Num(ps.rr_rounds),
              Table::Num(static_cast<std::int64_t>(ps.newly_awake)),
              Table::Num(std::int64_t{ps.clusters}), valid});
  }
  t.Print(std::cout);
  std::cout << "\nall awake: " << (sm.all_awake ? "yes" : "NO") << " ("
            << sm.awake << "/" << net.size() << ") in " << sm.phases
            << " phases, " << sm.rounds << " rounds total\n";
}

}  // namespace
}  // namespace dcc

int main(int argc, char** argv) {
  dcc::Run(dcc::bench::EngineOptionsFromArgs(argc, argv));
  return 0;
}
