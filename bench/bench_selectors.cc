// Selector ablation — Lemmas 2-3 and the ssf construction.
//
// Reports: (a) ssf size vs k and N (deterministic prime-residue
// construction, ~k^2-polylog growth); (b) wss theory length O(k^3 log N)
// and the measured Monte-Carlo failure rate as the length multiplier c
// shrinks — the calibration evidence behind the practical profile;
// (c) wcss shapes in k and l; (d) the greedy derandomized wss versus the
// seeded construction at small N; (e) the theory-profile constants the
// proofs would demand (exhibited, not run).
#include "bench_common.h"
#include "dcc/cluster/profile.h"
#include "dcc/sel/verify.h"

namespace dcc {
namespace {

void Run() {
  bench::Banner("Selector ablation",
                "Jurdzinski et al., PODC'18, Lemmas 2-3 + Section 3.1",
                "ssf ~k^2 polylog; wss needs c >= ~1 at theory shape; "
                "greedy derandomization matches at small N");

  std::cout << "-- (a) ssf size (deterministic prime construction) --\n";
  Table ta({"N", "k", "sets", "primes"});
  for (const std::int64_t N : {1ll << 10, 1ll << 14, 1ll << 18}) {
    for (const int k : {4, 8, 16}) {
      const auto s = sel::Ssf::Construct(N, k);
      ta.AddRow({Table::Num(N), Table::Num(std::int64_t{k}),
                 Table::Num(s.size()),
                 Table::Num(static_cast<std::int64_t>(s.primes().size()))});
    }
  }
  ta.Print(std::cout);

  std::cout << "\n-- (b) wss length vs failure rate (N=4096, k=4) --\n";
  Table tb({"c", "length", "fail-rate(1200 trials)"});
  for (const double c : {0.1, 0.2, 0.35, 0.5, 1.0, 2.0}) {
    const auto w = sel::Wss::Construct(1 << 12, 4, c, 99);
    const auto res = sel::VerifyWssSampled(w, 1200, 7);
    tb.AddRow({Table::Num(c), Table::Num(w.size()),
               Table::Num(res.FailureRate())});
  }
  tb.Print(std::cout);

  std::cout << "\n-- (c) wcss length vs failure rate (N=4096) --\n";
  Table tc({"k", "l", "c", "length", "fail-rate(600 trials)"});
  for (const int k : {3, 5}) {
    for (const int l : {2, 4}) {
      for (const double c : {0.1, 0.5, 1.0, 3.0}) {
        const auto w = sel::Wcss::Construct(1 << 12, k, l, c, 42);
        const auto res = sel::VerifyWcssSampled(w, 600, 11);
        tc.AddRow({Table::Num(std::int64_t{k}), Table::Num(std::int64_t{l}),
                   Table::Num(c), Table::Num(w.size()),
                   Table::Num(res.FailureRate())});
      }
    }
  }
  tc.Print(std::cout);

  std::cout << "\n-- (d) greedy derandomized wss at small N --\n";
  Table td({"N", "k", "greedy-size", "seeded-size(c=1)"});
  for (const std::int64_t N : {6, 8, 10}) {
    const auto g = sel::GreedyWss::Construct(N, 2);
    const auto w = sel::Wss::Construct(N, 2, 1.0, 5);
    td.AddRow({Table::Num(N), Table::Num(std::int64_t{2}),
               Table::Num(g.size()), Table::Num(w.size())});
  }
  td.Print(std::cout);

  std::cout << "\n-- (e) proof-literal constants (exhibited, not run) --\n";
  const auto params = sinr::Params::Default();
  const auto theory = cluster::Profile::Theory(params, 1 << 16);
  const auto practical = cluster::Profile::Practical(1 << 16);
  Table te({"constant", "theory", "practical"});
  te.AddRow({"kappa", Table::Num(std::int64_t{theory.kappa}),
             Table::Num(std::int64_t{practical.kappa})});
  te.AddRow({"rho", Table::Num(std::int64_t{theory.rho}),
             Table::Num(std::int64_t{practical.rho})});
  te.AddRow({"sns_k", Table::Num(std::int64_t{theory.sns_k}),
             Table::Num(std::int64_t{practical.sns_k})});
  te.AddRow({"l_uncl", Table::Num(std::int64_t{theory.l_uncl}),
             Table::Num(std::int64_t{practical.l_uncl})});
  te.AddRow({"rr_iters", Table::Num(std::int64_t{theory.rr_iters}),
             Table::Num(std::int64_t{practical.rr_iters})});
  te.Print(std::cout);
  std::cout << "\n(theory kappa explodes because alpha-2 appears in the "
               "far-field exponent: worst-case interference bounds are "
               "astronomically conservative; validators certify the "
               "practical values instead — docs/PAPER_MAP.md)\n";
}

}  // namespace
}  // namespace dcc

int main() {
  dcc::Run();
  return 0;
}
