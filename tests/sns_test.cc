// Lemma 4 (Sparse Network Schedule) on real geometry: when the participant
// set has constant density, every participant's message must be received at
// every node within 1 - eps in some round.
#include "dcc/bcast/sns.h"

#include <gtest/gtest.h>

#include <tuple>
#include <unordered_set>

#include "dcc/workload/generators.h"

namespace dcc::bcast {
namespace {

// Runs an SNS over the given participant indices and returns, per
// participant, whether every node within comm radius heard it.
std::vector<bool> SnsCoverage(const sinr::Network& net,
                              const cluster::Profile& prof,
                              const std::vector<std::size_t>& members,
                              std::uint64_t nonce) {
  sim::Exec ex(net);
  std::vector<sim::Participant> parts;
  for (const std::size_t idx : members) {
    parts.push_back({idx, net.id(idx), kNoCluster});
  }
  std::vector<std::unordered_set<std::size_t>> heard_by(net.size());
  RunSns(
      ex, prof, parts,
      [&](std::size_t) {
        sim::Message m;
        m.kind = 1;
        return std::optional<sim::Message>(m);
      },
      [&](std::size_t listener, const sim::Message& m) {
        heard_by[net.IndexOf(m.src)].insert(listener);
      },
      nonce);

  const double comm = net.params().CommRadius();
  std::vector<bool> covered;
  for (const std::size_t v : members) {
    bool all = true;
    for (std::size_t u = 0; u < net.size(); ++u) {
      if (u == v || net.Distance(v, u) > comm) continue;
      if (!heard_by[v].count(u)) {
        all = false;
        break;
      }
    }
    covered.push_back(all);
  }
  return covered;
}

TEST(SnsTest, SingleNodeHeardEverywhereInRange) {
  auto pts = workload::Line(5, 0.7, 1);
  const auto net = sinr::Network::WithSequentialIds(pts, sinr::Params::Default());
  const auto prof = cluster::Profile::Practical(net.params().id_space);
  const auto cov = SnsCoverage(net, prof, {2}, 1);
  EXPECT_TRUE(cov[0]);
}

TEST(SnsTest, ConstantDensitySetFullCoverage) {
  // ~1 node per unit cell over a 8x8 field: density O(1).
  sinr::Params params = sinr::Params::Default();
  params.id_space = 1 << 12;
  auto pts = workload::UniformSquare(64, 8.0, 7);
  const auto net = workload::MakeNetwork(pts, params, 99);
  const auto prof = cluster::Profile::Practical(params.id_space);
  std::vector<std::size_t> all(net.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const auto cov = SnsCoverage(net, prof, all, 2);
  for (std::size_t i = 0; i < cov.size(); ++i) {
    EXPECT_TRUE(cov[i]) << "node " << i << " not fully heard";
  }
}

TEST(SnsTest, GridDensityOnePerCell) {
  sinr::Params params = sinr::Params::Default();
  params.id_space = 1 << 12;
  auto pts = workload::Grid(6, 6, 1.1);
  const auto net = workload::MakeNetwork(pts, params, 5);
  const auto prof = cluster::Profile::Practical(params.id_space);
  std::vector<std::size_t> all(net.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const auto cov = SnsCoverage(net, prof, all, 3);
  for (std::size_t i = 0; i < cov.size(); ++i) {
    EXPECT_TRUE(cov[i]) << "grid node " << i;
  }
}

TEST(SnsTest, LengthIsLogarithmicInIdSpace) {
  const auto prof = cluster::Profile::Practical(1 << 16);
  const auto len12 = prof.SnsLen(1 << 12);
  const auto len24 = prof.SnsLen(1ll << 24);
  // ln scaling: doubling the exponent should ~double the length.
  EXPECT_GT(len24, len12);
  EXPECT_LT(len24, 3 * len12);
}

// SnsLen is what leader election charges for an empty probe, so it must be
// the length of the schedule MakeSns builds in either mode.
TEST(SnsTest, LengthMatchesTheBuiltSchedule) {
  for (const bool prime : {false, true}) {
    auto prof = cluster::Profile::Practical(1 << 16);
    prof.sns_use_prime_ssf = prime;
    for (const std::int64_t N : {1ll << 12, 1ll << 16}) {
      EXPECT_EQ(prof.SnsLen(N), prof.MakeSns(N, 7)->size())
          << "prime ssf " << prime << ", N " << N;
    }
  }
}

class SnsDensitySweep : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(SnsDensitySweep, CoverageAcrossSeedsAndSizes) {
  const auto [n, seed] = GetParam();
  sinr::Params params = sinr::Params::Default();
  params.id_space = 1 << 12;
  const double side = std::sqrt(static_cast<double>(n));  // ~1 per unit area
  auto pts = workload::UniformSquare(n, side, static_cast<std::uint64_t>(seed));
  const auto net = workload::MakeNetwork(pts, params,
                                         static_cast<std::uint64_t>(seed) + 50);
  const auto prof = cluster::Profile::Practical(params.id_space);
  std::vector<std::size_t> all(net.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const auto cov = SnsCoverage(net, prof, all, static_cast<std::uint64_t>(seed));
  std::size_t covered = 0;
  for (const bool c : cov) covered += c ? 1 : 0;
  EXPECT_EQ(covered, cov.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, SnsDensitySweep,
                         ::testing::Combine(::testing::Values(36, 81, 144),
                                            ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace dcc::bcast
