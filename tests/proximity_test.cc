// Lemma 7: ProximityGraphConstruction yields a constant-degree graph
// containing every close pair (Definition 1), in O(log N) rounds.
#include "dcc/cluster/proximity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <tuple>

#include "dcc/cluster/validate.h"
#include "dcc/workload/generators.h"

namespace dcc::cluster {
namespace {

struct Built {
  ProximityResult prox;
  std::vector<sim::Participant> parts;
  Round rounds;
};

Built Build(const sinr::Network& net, const Profile& prof,
            const std::vector<std::size_t>& members,
            const std::vector<ClusterId>& cluster_of, bool clustered,
            std::uint64_t nonce) {
  sim::Exec ex(net);
  Built b;
  for (const std::size_t idx : members) {
    b.parts.push_back({idx, net.id(idx),
                       clustered ? cluster_of[idx] : kNoCluster});
  }
  b.prox = BuildProximityGraph(ex, prof, b.parts, clustered, nonce);
  b.rounds = ex.rounds();
  return b;
}

bool HasEdge(const Built& b, std::size_t idx_u, std::size_t idx_w) {
  for (std::size_t p = 0; p < b.parts.size(); ++p) {
    if (b.parts[p].index != idx_u) continue;
    for (const std::size_t q : b.prox.adj[p]) {
      if (b.parts[q].index == idx_w) return true;
    }
  }
  return false;
}

TEST(ProximityTest, TwoIsolatedNodesBecomeNeighbors) {
  sinr::Params params = sinr::Params::Default();
  params.id_space = 1 << 10;
  std::vector<Vec2> pts{{0, 0}, {0.1, 0}};
  const auto net = workload::MakeNetwork(pts, params, 1);
  const auto prof = Profile::Practical(params.id_space);
  std::vector<ClusterId> cl(net.size(), kNoCluster);
  const auto b = Build(net, prof, {0, 1}, cl, false, 1);
  EXPECT_TRUE(HasEdge(b, 0, 1));
  EXPECT_TRUE(HasEdge(b, 1, 0));
}

TEST(ProximityTest, UnclusteredClosePairsCovered) {
  sinr::Params params = sinr::Params::Default();
  params.id_space = 1 << 12;
  auto pts = workload::UniformSquare(96, 6.0, 11);
  const auto net = workload::MakeNetwork(pts, params, 2);
  const auto prof = Profile::Practical(params.id_space);
  std::vector<std::size_t> all(net.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<ClusterId> one(net.size(), 1);

  const int gamma = SubsetDensity(net, all);
  const auto close = FindClosePairs(net, all, one, gamma, 1.0);
  ASSERT_FALSE(close.empty());  // dense areas must produce close pairs

  const auto b = Build(net, prof, all, one, false, 7);
  for (const auto& [u, w] : close) {
    EXPECT_TRUE(HasEdge(b, u, w))
        << "close pair (" << u << "," << w << ") d=" << net.Distance(u, w)
        << " missing from proximity graph";
  }
}

TEST(ProximityTest, DegreeBoundedByKappa) {
  sinr::Params params = sinr::Params::Default();
  params.id_space = 1 << 12;
  auto pts = workload::UniformSquare(128, 5.0, 3);
  const auto net = workload::MakeNetwork(pts, params, 9);
  const auto prof = Profile::Practical(params.id_space);
  std::vector<std::size_t> all(net.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<ClusterId> one(net.size(), 1);
  const auto b = Build(net, prof, all, one, false, 3);
  for (const auto& adj : b.prox.adj) {
    EXPECT_LE(static_cast<int>(adj.size()), prof.kappa);
  }
}

TEST(ProximityTest, AdjacencyIsSymmetric) {
  sinr::Params params = sinr::Params::Default();
  params.id_space = 1 << 12;
  auto pts = workload::UniformSquare(80, 5.0, 21);
  const auto net = workload::MakeNetwork(pts, params, 4);
  const auto prof = Profile::Practical(params.id_space);
  std::vector<std::size_t> all(net.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<ClusterId> one(net.size(), 1);
  const auto b = Build(net, prof, all, one, false, 5);
  for (std::size_t p = 0; p < b.prox.adj.size(); ++p) {
    for (const std::size_t q : b.prox.adj[p]) {
      EXPECT_TRUE(std::binary_search(b.prox.adj[q].begin(),
                                     b.prox.adj[q].end(), p));
    }
  }
}

TEST(ProximityTest, ClusteredModeKeepsEdgesIntraCluster) {
  sinr::Params params = sinr::Params::Default();
  params.id_space = 1 << 12;
  // Two dense clumps 0.6 apart; distinct clusters.
  std::vector<Vec2> pts;
  for (int i = 0; i < 12; ++i) pts.push_back({0.02 * i, 0.0});
  for (int i = 0; i < 12; ++i) pts.push_back({0.6 + 0.02 * i, 0.3});
  const auto net = workload::MakeNetwork(pts, params, 8);
  const auto prof = Profile::Practical(params.id_space);
  std::vector<std::size_t> all(net.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<ClusterId> cl(net.size());
  for (std::size_t i = 0; i < 12; ++i) cl[i] = net.id(0);
  for (std::size_t i = 12; i < 24; ++i) cl[i] = net.id(12);

  const auto b = Build(net, prof, all, cl, true, 6);
  int edges = 0;
  for (std::size_t p = 0; p < b.prox.adj.size(); ++p) {
    for (const std::size_t q : b.prox.adj[p]) {
      EXPECT_EQ(cl[b.parts[p].index], cl[b.parts[q].index]);
      ++edges;
    }
  }
  EXPECT_GT(edges, 0);
  // Each dense cluster must contain at least one close-pair edge (Lemma 1).
  const auto close = FindClosePairs(net, all, cl, 12, 1.0);
  EXPECT_FALSE(close.empty());
  for (const auto& [u, w] : close) {
    EXPECT_TRUE(HasEdge(b, u, w));
  }
}

TEST(ProximityTest, RoundsLogarithmic) {
  sinr::Params params = sinr::Params::Default();
  params.id_space = 1 << 12;
  auto pts = workload::UniformSquare(32, 4.0, 2);
  const auto net = workload::MakeNetwork(pts, params, 3);
  const auto prof = Profile::Practical(params.id_space);
  std::vector<std::size_t> all(net.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<ClusterId> one(net.size(), 1);
  const auto b = Build(net, prof, all, one, false, 9);
  // (kappa + 1) schedule executions.
  EXPECT_EQ(b.rounds, (prof.kappa + 1) * prof.WssLen(params.id_space));
}

// proximity.h's subset argument, on which every LOCAL round over H rests:
// a replay of the table in which every participant transmits reproduces
// the exchange phase, so each H-edge (p, w) delivers at least one message
// from w at p; and ReplayRound over H hears exactly p's H-neighbors.
void ExpectReplayDeliversEveryEdge(bool clustered, bool jammer) {
  sinr::Params params = sinr::Params::Default();
  params.id_space = 1 << 12;
  const auto net =
      workload::MakeNetwork(workload::UniformSquare(64, 3.0, 4), params, 5);
  sim::Exec ex(net);
  std::vector<std::size_t> members(net.size());
  std::iota(members.begin(), members.end(), std::size_t{0});
  if (jammer) {
    sim::Message jam;
    jam.kind = -1;
    ex.SetBackgroundTransmitters({members.front()}, jam);
    members.erase(members.begin());
  }
  std::vector<sim::Participant> parts;
  for (const std::size_t idx : members) {
    const ClusterId cl = net.position(idx).x < 1.5 ? 1 : 2;
    parts.push_back({idx, net.id(idx), clustered ? cl : kNoCluster});
  }
  const ProximityResult prox = BuildProximityGraph(
      ex, Profile::Practical(params.id_space), parts, clustered, 3);

  std::vector<std::set<NodeId>> heard(parts.size());
  sim::ExecuteSchedule(
      ex, prox.table, parts,
      [&](std::size_t p, std::int64_t) -> std::optional<sim::Message> {
        sim::Message m;
        m.src = parts[p].id;
        return m;
      },
      [&](std::size_t, std::size_t p, const sim::Message& m, std::int64_t) {
        if (p != sim::kNotParticipant) heard[p].insert(m.src);
      });
  mis::Inbox inbox(parts.size());
  ReplayRound(ex, prox.table, parts, &prox.adj)(
      std::vector<std::int64_t>(parts.size(), 0), inbox);

  std::size_t edges = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    std::set<NodeId> h_ids, local;
    for (const std::size_t w : prox.adj[p]) {
      EXPECT_TRUE(heard[p].count(parts[w].id))
          << "H-edge (" << p << ", " << w << ") not delivered by the replay";
      h_ids.insert(parts[w].id);
      ++edges;
    }
    for (const auto& [id, word] : inbox[p]) local.insert(id);
    EXPECT_EQ(local, h_ids) << "participant " << p;
  }
  EXPECT_GT(edges, 0u);
}

TEST(ProximityTest, ReplayDeliversEveryEdgeUnclustered) {
  ExpectReplayDeliversEveryEdge(/*clustered=*/false, /*jammer=*/false);
}

TEST(ProximityTest, ReplayDeliversEveryEdgeClustered) {
  ExpectReplayDeliversEveryEdge(/*clustered=*/true, /*jammer=*/false);
}

TEST(ProximityTest, ReplayDeliversEveryEdgeWithJammer) {
  ExpectReplayDeliversEveryEdge(/*clustered=*/false, /*jammer=*/true);
}

class ProximitySweep
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(ProximitySweep, ClosePairCoverageAcrossDensities) {
  const auto [n, side, seed] = GetParam();
  sinr::Params params = sinr::Params::Default();
  params.id_space = 1 << 12;
  auto pts = workload::UniformSquare(n, side, static_cast<std::uint64_t>(seed));
  const auto net =
      workload::MakeNetwork(pts, params, static_cast<std::uint64_t>(seed) + 7);
  const auto prof = Profile::Practical(params.id_space);
  std::vector<std::size_t> all(net.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<ClusterId> one(net.size(), 1);
  const int gamma = SubsetDensity(net, all);
  const auto close = FindClosePairs(net, all, one, gamma, 1.0);
  const auto b = Build(net, prof, all, one, false,
                       static_cast<std::uint64_t>(seed) * 31);
  for (const auto& [u, w] : close) {
    EXPECT_TRUE(HasEdge(b, u, w)) << "n=" << n << " side=" << side;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProximitySweep,
    ::testing::Values(std::tuple{48, 5.0, 1}, std::tuple{96, 5.0, 2},
                      std::tuple{96, 8.0, 3}, std::tuple{144, 6.0, 4}));

}  // namespace
}  // namespace dcc::cluster
