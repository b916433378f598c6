// Table 2 — global broadcast algorithms.
//
// Paper rows (asymptotics):
//   [10]/[25] randomized:                    O(D log^2 n)-flavor
//   [26] deterministic + location:           O(D log^2 n)
//   [27] deterministic, weak links:          Theta(n log n)
//   this work, deterministic, Delta & N:     O(D (Delta + log* n) log n)
//   this work lower bound:                   Omega(D Delta^{1-1/alpha})
//
// Regenerated as two measured sweeps:
//   (a) D sweep at fixed density — rounds grow ~linearly in D for both the
//       decay baseline and SMSB;
//   (b) Delta sweep at fixed D — SMSB grows ~linearly in Delta while the
//       randomized baseline stays ~flat: the paper's punchline that
//       randomization helps global (but not local) broadcast.
//
// Ported onto the scenario layer: the blob-chain topology and both
// algorithms come from the registries (legacy seeds pinned — round counts
// match the pre-port bench exactly).
#include <cmath>

#include "bench_common.h"
#include "dcc/common/json.h"
#include "dcc/scenario/scenario.h"

namespace dcc {
namespace {

struct SweepPoint {
  int blobs;
  int per_blob;
  std::uint64_t seed;     // topology seed (legacy: point-set seed)
  std::uint64_t id_seed;  // legacy id injection seed
  std::uint64_t nonce;    // legacy SMSB nonce
};

void SweepRows(const std::vector<SweepPoint>& points, double sigma,
               double spacing, bool by_density,
               const sinr::Engine::Options& engine, Table& t) {
  for (const SweepPoint& pt : points) {
    scenario::ScenarioSpec spec;
    spec.topology = "blob_chain";
    spec.topology_params.Set("blobs", std::to_string(pt.blobs));
    spec.topology_params.Set("per_blob", std::to_string(pt.per_blob));
    spec.topology_params.Set("sigma", JsonNumber(sigma));
    spec.topology_params.Set("spacing", JsonNumber(spacing));
    spec.sinr.id_space = 1 << 12;
    spec.engine = engine;
    spec.id_seed = pt.id_seed;

    scenario::ScenarioSpec det = spec;
    det.algo = "global_broadcast";
    det.nonce = pt.nonce;
    const auto sm = scenario::RunScenario(det, pt.seed);
    if (!sm.error.empty()) {
      std::cerr << "blob_chain blobs=" << pt.blobs << " per_blob="
                << pt.per_blob << ": run failed: " << sm.error << "\n";
      continue;
    }
    if (sm.metrics.Get("connected") == 0.0) continue;  // skip, as pre-port

    scenario::ScenarioSpec rnd = spec;
    rnd.algo = "decay_global";
    rnd.algo_params.Set("seed", by_density ? "19" : "17");
    const auto rd = scenario::RunScenario(rnd, pt.seed);

    const double d = sm.metrics.Get("diameter");
    const double delta = sm.metrics.Get("gamma");
    const double norm = by_density ? std::max(delta, 1.0) : std::max(d, 1.0);
    const auto num = [](double v) {
      return Table::Num(static_cast<std::int64_t>(v));
    };
    t.AddRow({Table::Num(std::int64_t{by_density ? pt.per_blob : pt.blobs}),
              num(sm.metrics.Get("n")), num(d), num(delta),
              num(rd.metrics.Get("rounds")), num(sm.metrics.Get("rounds")),
              Table::Num(sm.metrics.Get("rounds") / norm),
              num(sm.metrics.Get("awake")) + "/" + num(sm.metrics.Get("n"))});
  }
}

void Run(const sinr::Engine::Options& engine) {
  bench::Banner("Table 2: global broadcast",
                "Jurdzinski et al., PODC'18, Table 2",
                "rounds ~linear in D for both; ~linear in Delta only for the "
                "deterministic algorithm (randomization helps globally)");

  std::cout << "-- (a) diameter sweep, fixed local density --\n";
  Table ta({"blobs", "n", "D", "Delta", "decay-rand[10/25]", "this-work",
            "this/D", "awake"});
  std::vector<SweepPoint> diam;
  for (const int blobs : {3, 6, 9, 12}) {
    diam.push_back({blobs, 10, static_cast<std::uint64_t>(5 + blobs),
                    static_cast<std::uint64_t>(11 + blobs),
                    static_cast<std::uint64_t>(blobs)});
  }
  SweepRows(diam, 0.3, 1.2, /*by_density=*/false, engine, ta);
  ta.Print(std::cout);

  std::cout << "\n-- (b) density sweep, fixed hop count --\n";
  Table tb({"per-blob", "n", "D", "Delta", "decay-rand[10/25]", "this-work",
            "this/Delta", "awake"});
  std::vector<SweepPoint> dens;
  for (const int per : {8, 16, 32, 64}) {
    dens.push_back({6, per, static_cast<std::uint64_t>(31 + per),
                    static_cast<std::uint64_t>(3 + per),
                    static_cast<std::uint64_t>(per)});
  }
  SweepRows(dens, 0.25, 1.0, /*by_density=*/true, engine, tb);
  tb.Print(std::cout);
  std::cout << "\nnotes: the Omega(D Delta^{1-1/alpha}) lower-bound row is "
               "regenerated by bench_fig56/fig7.\n";
}

}  // namespace
}  // namespace dcc

int main(int argc, char** argv) {
  dcc::Run(dcc::bench::EngineOptionsFromArgs(argc, argv));
  return 0;
}
