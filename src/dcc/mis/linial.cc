#include "dcc/mis/linial.h"

#include <algorithm>

#include "dcc/common/math_util.h"

namespace dcc::mis {

int LocalGraph::MaxDegree() const {
  std::size_t deg = 0;
  for (const auto& a : adj) deg = std::max(deg, a.size());
  return static_cast<int>(deg);
}

bool LocalGraph::IsIndependent(const std::vector<bool>& in_set) const {
  for (std::size_t v = 0; v < adj.size(); ++v) {
    if (!in_set[v]) continue;
    for (const std::size_t u : adj[v]) {
      if (in_set[u]) return false;
    }
  }
  return true;
}

bool LocalGraph::IsDominating(const std::vector<bool>& in_set) const {
  for (std::size_t v = 0; v < adj.size(); ++v) {
    if (in_set[v]) continue;
    bool dominated = false;
    for (const std::size_t u : adj[v]) {
      if (in_set[u]) {
        dominated = true;
        break;
      }
    }
    if (!dominated) return false;
  }
  return true;
}

LocalRound GraphRound(const LocalGraph& g,
                      std::span<const std::int64_t> ids) {
  return [&g, ids](const std::vector<std::int64_t>& out, Inbox& inbox) {
    for (std::size_t v = 0; v < g.size(); ++v) {
      inbox[v].clear();
      for (const std::size_t u : g.adj[v]) {
        inbox[v].emplace_back(ids.empty() ? static_cast<NodeId>(u) : ids[u],
                              out[u]);
      }
    }
  };
}

namespace {

// Smallest prime q and degree bound t such that q^{t+1} >= m (colors are
// encodable as degree-<=t polynomials over GF(q)) and q > delta * t (so a
// free evaluation point always exists).
LinialRound PickRound(std::int64_t m, int delta) {
  DCC_CHECK(m >= 2);
  for (std::int64_t q = NextPrime(std::max<std::int64_t>(delta + 1, 2));;
       q = NextPrime(q + 1)) {
    // smallest t with q^{t+1} >= m
    int t = 0;
    std::int64_t pow = q;  // q^{t+1}
    while (pow < m) {
      // overflow-safe multiply: values stay tiny in practice
      DCC_CHECK(pow < (std::int64_t{1} << 56) / q);
      pow *= q;
      ++t;
    }
    if (q > static_cast<std::int64_t>(delta) * t) {
      return LinialRound{q, t, m};
    }
    DCC_CHECK(q < (std::int64_t{1} << 40));  // always terminates
  }
}

}  // namespace

std::vector<LinialRound> LinialPlan(std::int64_t m0, int delta) {
  DCC_REQUIRE(m0 >= 2, "LinialPlan: need m0 >= 2");
  DCC_REQUIRE(delta >= 0, "LinialPlan: need delta >= 0");
  std::vector<LinialRound> plan;
  std::int64_t m = m0;
  for (;;) {
    const LinialRound r = PickRound(m, delta);
    if (r.q * r.q >= m) break;  // no further progress
    plan.push_back(r);
    m = r.q * r.q;
  }
  return plan;
}

std::int64_t LinialStep(std::int64_t c, std::span<const std::int64_t> neighbors,
                        const LinialRound& round) {
  const std::int64_t q = round.q;
  const int t = round.t;
  DCC_REQUIRE(c >= 0 && c < round.m, "LinialStep: color out of range");

  // Digits of a color in base q: color <-> polynomial coefficients.
  const auto digits = [&](std::int64_t col) {
    std::vector<std::int64_t> d(static_cast<std::size_t>(t) + 1);
    for (int j = 0; j <= t; ++j) {
      d[static_cast<std::size_t>(j)] = col % q;
      col /= q;
    }
    return d;
  };
  const auto eval = [&](const std::vector<std::int64_t>& d, std::int64_t a) {
    std::int64_t acc = 0;
    for (int j = t; j >= 0; --j) {
      acc = (acc * a + d[static_cast<std::size_t>(j)]) % q;
    }
    return acc;
  };

  const auto dc = digits(c);
  // For every evaluation point a, check that no neighbor polynomial agrees.
  for (std::int64_t a = 0; a < q; ++a) {
    const std::int64_t fa = eval(dc, a);
    bool clash = false;
    for (const std::int64_t nc : neighbors) {
      DCC_CHECK(nc != c);  // proper coloring invariant
      if (eval(digits(nc), a) == fa) {
        clash = true;
        break;
      }
    }
    if (!clash) return a * q + fa;
  }
  // Unreachable when |neighbors| <= delta: each neighbor polynomial agrees
  // with f_c on <= t points and delta * t < q.
  DCC_CHECK_MSG(false, "LinialStep: no free evaluation point (degree bound violated?)");
  std::abort();
}

ColoringRun LinialColorReduction(const LocalRound& round,
                                 std::vector<std::int64_t> colors,
                                 std::int64_t m0, int delta) {
  ColoringRun run;
  run.num_colors = m0;
  Inbox inbox(colors.size());
  std::vector<std::int64_t> heard;
  for (const LinialRound& lr : LinialPlan(m0, delta)) {
    round(colors, inbox);
    for (std::size_t v = 0; v < colors.size(); ++v) {
      heard.clear();
      for (const auto& [id, c] : inbox[v]) heard.push_back(c);
      colors[v] = LinialStep(colors[v], heard, lr);
    }
    run.num_colors = lr.q * lr.q;
    ++run.local_rounds;
  }
  run.colors = std::move(colors);
  return run;
}

ColoringRun LinialColorReduction(const LocalGraph& g,
                                 std::vector<std::int64_t> colors,
                                 std::int64_t m0, int delta) {
  DCC_REQUIRE(colors.size() == g.size(), "colors size mismatch");
  ColoringRun run =
      LinialColorReduction(GraphRound(g), std::move(colors), m0, delta);
  for (std::size_t v = 0; v < g.size(); ++v) {
    for (const std::size_t u : g.adj[v]) {
      DCC_CHECK(run.colors[v] != run.colors[u]);
    }
  }
  return run;
}

MisRun MisFromColoring(const LocalRound& round,
                       const std::vector<std::int64_t>& colors,
                       std::int64_t num_colors, bool stop_when_decided) {
  const std::size_t n = colors.size();
  std::vector<MisState> state(n, MisState::kUndecided);
  std::vector<std::int64_t> out(n);
  Inbox inbox(n);
  MisRun run;
  for (std::int64_t cls = 0; cls < num_colors; ++cls) {
    for (std::size_t v = 0; v < n; ++v) {
      out[v] = static_cast<std::int64_t>(state[v]);
    }
    round(out, inbox);
    ++run.local_rounds;
    bool undecided = false;
    for (std::size_t v = 0; v < n; ++v) {
      if (state[v] != MisState::kUndecided) continue;
      const bool neighbor_in =
          std::any_of(inbox[v].begin(), inbox[v].end(), [](const auto& m) {
            return m.second == static_cast<std::int64_t>(MisState::kInMis);
          });
      if (neighbor_in) {
        state[v] = MisState::kDominated;
      } else if (colors[v] == cls) {
        state[v] = MisState::kInMis;
      }
      undecided = undecided || state[v] == MisState::kUndecided;
    }
    if (stop_when_decided && !undecided) break;
  }
  run.in_mis.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    run.in_mis[v] = state[v] == MisState::kInMis;
  }
  return run;
}

MisRun MisFromColoring(const LocalGraph& g,
                       const std::vector<std::int64_t>& colors,
                       std::int64_t num_colors) {
  DCC_REQUIRE(colors.size() == g.size(), "colors size mismatch");
  return MisFromColoring(GraphRound(g), colors, num_colors,
                         /*stop_when_decided=*/false);
}

MisRun LinialMis(const LocalRound& round, const std::vector<std::int64_t>& ids,
                 std::int64_t id_space, int delta, bool stop_when_decided) {
  // IDs are 1-based in [1, id_space]; colors are 0-based.
  std::vector<std::int64_t> colors(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    DCC_REQUIRE(ids[i] >= 1 && ids[i] <= id_space, "LinialMis: id out of range");
    colors[i] = ids[i] - 1;
  }
  const ColoringRun reduced =
      LinialColorReduction(round, std::move(colors), id_space, delta);
  MisRun mis = MisFromColoring(round, reduced.colors, reduced.num_colors,
                               stop_when_decided);
  mis.local_rounds += reduced.local_rounds;
  return mis;
}

MisRun LinialMis(const LocalGraph& g, const std::vector<std::int64_t>& ids,
                 std::int64_t id_space) {
  DCC_REQUIRE(ids.size() == g.size(), "ids size mismatch");
  return LinialMis(GraphRound(g), ids, id_space, g.MaxDegree(),
                   /*stop_when_decided=*/false);
}

}  // namespace dcc::mis
