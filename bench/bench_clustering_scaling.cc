// Theorem 1 ablation — Clustering rounds vs density Gamma and id space N.
//
// Expected shape: rounds ~ Gamma * log N * log* N. We sweep Gamma at fixed
// N (rounds/Gamma should stay within a logarithmic band) and N at fixed
// Gamma (rounds should grow ~log N), and validate every produced
// clustering geometrically.
//
// Ported onto the scenario layer: each cell is a ScenarioSpec (with the
// legacy seed/nonce pinned, so the measured round counts match the
// pre-port bench exactly) and the table reads the RunReport metrics.
#include "bench_common.h"
#include "dcc/scenario/scenario.h"

namespace dcc {
namespace {

scenario::ScenarioSpec BaseSpec(const sinr::Engine::Options& engine) {
  scenario::ScenarioSpec spec;
  spec.algo = "clustering";
  spec.sinr.id_space = 1 << 12;
  spec.engine = engine;
  return spec;
}

void Run(const sinr::Engine::Options& engine) {
  bench::Banner("Clustering scaling (Theorem 1)",
                "Jurdzinski et al., PODC'18, Theorem 1",
                "rounds/Gamma flat-ish across the Gamma sweep; rounds ~log N "
                "across the N sweep; all clusterings valid");

  std::cout << "-- Gamma sweep (N = 4096, fixed area) --\n";
  {
    Table t({"n", "Gamma", "rounds", "rounds/Gamma", "clusters", "valid"});
    for (const int n : {48, 96, 192, 288, 384}) {
      scenario::ScenarioSpec spec = BaseSpec(engine);
      spec.topology_params.Set("n", std::to_string(n));
      spec.topology_params.Set("side", "5.0");
      spec.id_seed = static_cast<std::uint64_t>(3 + n);
      spec.nonce = static_cast<std::uint64_t>(n);
      const auto rep =
          scenario::RunScenario(spec, static_cast<std::uint64_t>(7 + n));
      const double gamma = rep.metrics.Get("gamma");
      t.AddRow({Table::Num(std::int64_t{n}),
                Table::Num(static_cast<std::int64_t>(gamma)),
                Table::Num(static_cast<std::int64_t>(rep.metrics.Get("rounds"))),
                Table::Num(rep.metrics.Get("rounds") / std::max(gamma, 1.0)),
                Table::Num(static_cast<std::int64_t>(
                    rep.metrics.Get("clusters"))),
                rep.ok ? "yes" : "NO"});
    }
    t.Print(std::cout);
  }

  std::cout << "\n-- N sweep (same 128-node workload, growing id space) --\n";
  {
    Table t({"N", "rounds", "rounds/lnN", "valid"});
    for (const int logN : {10, 14, 18, 22}) {
      scenario::ScenarioSpec spec = BaseSpec(engine);
      spec.sinr.id_space = std::int64_t{1} << logN;
      spec.topology_params.Set("n", "128");
      spec.topology_params.Set("side", "4.5");
      spec.id_seed = 31;
      spec.nonce = 9;
      const auto rep = scenario::RunScenario(spec, 77);
      t.AddRow({Table::Num(spec.sinr.id_space),
                Table::Num(static_cast<std::int64_t>(rep.metrics.Get("rounds"))),
                Table::Num(rep.metrics.Get("rounds") / (0.693 * logN)),
                rep.ok ? "yes" : "NO"});
    }
    t.Print(std::cout);
  }
}

}  // namespace
}  // namespace dcc

int main(int argc, char** argv) {
  dcc::Run(dcc::bench::EngineOptionsFromArgs(argc, argv));
  return 0;
}
