// MIS substrate ablation — the paper's [34] stand-in (docs/PAPER_MAP.md,
// "Deviations from the paper").
//
// Reports LOCAL-round counts of the Linial pipeline (log*-shaped in the id
// space, plus the O(Delta^2)-color MIS sweep) and of the capped
// local-minima MIS (fast path used inside the sparsifier), on random
// bounded-degree graphs. The LocalGraph runners drive the same loops the
// protocols run, over mis::GraphRound. Expected: Linial reduction rounds
// flat (log*), local-minima rounds small and flat; both outputs
// independent+maximal.
#include <iostream>

#include "dcc/common/rng.h"
#include "dcc/common/table.h"
#include "dcc/mis/linial.h"
#include "dcc/mis/local_mis.h"

namespace dcc {
namespace {

mis::LocalGraph RandomGraph(int n, int degree, std::uint64_t seed) {
  mis::LocalGraph g;
  g.adj.resize(static_cast<std::size_t>(n));
  Xoshiro256ss rng(seed);
  for (int e = 0; e < n * degree / 2; ++e) {
    const auto a = rng.NextBelow(static_cast<std::uint64_t>(n));
    const auto b = rng.NextBelow(static_cast<std::uint64_t>(n));
    if (a == b) continue;
    auto& na = g.adj[a];
    auto& nb = g.adj[b];
    if (na.size() >= static_cast<std::size_t>(degree) ||
        nb.size() >= static_cast<std::size_t>(degree)) {
      continue;
    }
    bool dup = false;
    for (const auto x : na) {
      if (x == b) dup = true;
    }
    if (dup) continue;
    na.push_back(b);
    nb.push_back(a);
  }
  return g;
}

void Run() {
  std::cout << "\n=== MIS substrate (stand-in for [34]) ===\n"
            << "expected shape: Linial reduction rounds ~log* N (flat); "
               "local-minima rounds small and flat\n\n";

  Table t({"n", "id-space", "deg", "linial-reduce", "mis-sweep",
           "total-linial", "local-minima", "both-valid"});
  for (const int logn : {8, 10, 12}) {
    const int n = 1 << logn;
    const int nodes = std::min(n, 2048);
    for (const int deg : {3, 5}) {
      const auto g = RandomGraph(nodes, deg,
                                 static_cast<std::uint64_t>(logn * 13 + deg));
      std::vector<std::int64_t> ids(g.size());
      for (std::size_t i = 0; i < g.size(); ++i) {
        ids[i] = static_cast<std::int64_t>(i) + 1;
      }
      const std::int64_t id_space = 4ll * n;

      std::vector<std::int64_t> colors(ids);
      for (auto& c : colors) --c;
      const auto red =
          mis::LinialColorReduction(g, colors, id_space, g.MaxDegree());
      const auto sweep = mis::MisFromColoring(g, red.colors, red.num_colors);
      const auto lm = mis::LocalMinimaMis(g, ids, 50);

      std::vector<bool> in_linial(g.size()), in_lm(g.size());
      for (std::size_t v = 0; v < g.size(); ++v) {
        in_linial[v] = sweep.in_mis[v];
        in_lm[v] = lm.state[v] == mis::MisState::kInMis;
      }
      const bool valid = g.IsIndependent(in_linial) &&
                         g.IsDominating(in_linial) &&
                         g.IsIndependent(in_lm) &&
                         (!lm.all_decided || g.IsDominating(in_lm));
      t.AddRow({Table::Num(std::int64_t{nodes}), Table::Num(id_space),
                Table::Num(std::int64_t{deg}),
                Table::Num(std::int64_t{red.local_rounds}),
                Table::Num(std::int64_t{sweep.local_rounds}),
                Table::Num(std::int64_t{red.local_rounds + sweep.local_rounds}),
                Table::Num(std::int64_t{lm.local_rounds}),
                valid ? "yes" : "NO"});
    }
  }
  t.Print(std::cout);
  std::cout << "\n(the mis-sweep column is the O(Delta^2)-colors pass — the "
               "reason the sparsifier uses the capped local-minima MIS; "
               "see profile.use_linial_mis)\n";
}

}  // namespace
}  // namespace dcc

int main() {
  dcc::Run();
  return 0;
}
