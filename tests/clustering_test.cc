// Theorem 1: Clustering builds a valid 1-clustering of an unclustered set:
// (i) each cluster inside a constant-radius ball around its center;
// (ii) each unit ball meets O(1) clusters; every node assigned, centers
// pairwise > 1 - eps apart.
#include "dcc/cluster/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "dcc/cluster/validate.h"
#include "dcc/common/math_util.h"
#include "dcc/workload/generators.h"

namespace dcc::cluster {
namespace {

sinr::Params TestParams() {
  sinr::Params p = sinr::Params::Default();
  p.id_space = 1 << 12;
  return p;
}

std::vector<std::size_t> AllIndices(const sinr::Network& net) {
  std::vector<std::size_t> all(net.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return all;
}

void ExpectValid(const sinr::Network& net, const std::vector<std::size_t>& all,
                 const ClusteringResult& res, const std::string& tag) {
  EXPECT_EQ(res.unassigned, 0u) << tag;
  const auto chk = CheckClustering(net, all, res.cluster_of);
  EXPECT_TRUE(chk.ValidRClustering(1.0, net.params().eps))
      << tag << " radius=" << chk.max_radius << " sep=" << chk.min_center_sep
      << " assigned=" << chk.assigned << "/" << chk.members;
  // O(1) clusters per unit ball: centers >= 1-eps apart pack at most
  // chi(2, 1-eps) centers within distance 2 of any point; radius-1 clusters
  // intersecting a unit ball have centers within 2.
  EXPECT_LE(chk.max_clusters_per_unit_ball, ChiUpperBound(2.0, 1.0 - net.params().eps))
      << tag;
}

TEST(ClusteringTest, UniformDenseField) {
  const auto params = TestParams();
  auto pts = workload::UniformSquare(96, 4.0, 11);
  const auto net = workload::MakeNetwork(pts, params, 21);
  const auto prof = Profile::Practical(params.id_space);
  const auto all = AllIndices(net);
  sim::Exec ex(net);
  const auto res = BuildClustering(ex, prof, all, SubsetDensity(net, all), 1);
  ExpectValid(net, all, res, "uniform");
}

TEST(ClusteringTest, SingleClump) {
  const auto params = TestParams();
  std::vector<Vec2> pts;
  for (int i = 0; i < 24; ++i) pts.push_back({0.05 * i, 0.04 * (i % 6)});
  const auto net = workload::MakeNetwork(pts, params, 9);
  const auto prof = Profile::Practical(params.id_space);
  const auto all = AllIndices(net);
  sim::Exec ex(net);
  const auto res = BuildClustering(ex, prof, all, 24, 2);
  ExpectValid(net, all, res, "clump");
  // A diameter-1.2 clump: a handful of clusters at most.
  const auto chk = CheckClustering(net, all, res.cluster_of);
  EXPECT_LE(chk.num_clusters, 9);
}

TEST(ClusteringTest, SparseSetSelfClusters) {
  const auto params = TestParams();
  auto pts = workload::Grid(4, 4, 1.5);  // pairwise >= 1.5: all isolated
  const auto net = workload::MakeNetwork(pts, params, 13);
  const auto prof = Profile::Practical(params.id_space);
  const auto all = AllIndices(net);
  sim::Exec ex(net);
  const auto res = BuildClustering(ex, prof, all, 2, 3);
  ExpectValid(net, all, res, "sparse");
  const auto chk = CheckClustering(net, all, res.cluster_of);
  EXPECT_EQ(chk.num_clusters, 16);  // everyone their own cluster
}

TEST(ClusteringTest, LineTopology) {
  const auto params = TestParams();
  auto pts = workload::Line(40, 0.35, 4);
  const auto net = workload::MakeNetwork(pts, params, 17);
  const auto prof = Profile::Practical(params.id_space);
  const auto all = AllIndices(net);
  sim::Exec ex(net);
  const auto res = BuildClustering(ex, prof, all, SubsetDensity(net, all), 5);
  ExpectValid(net, all, res, "line");
}

TEST(ClusteringTest, DeterministicAcrossRuns) {
  const auto params = TestParams();
  auto pts = workload::UniformSquare(64, 4.0, 3);
  const auto net = workload::MakeNetwork(pts, params, 23);
  const auto prof = Profile::Practical(params.id_space);
  const auto all = AllIndices(net);
  sim::Exec ex1(net), ex2(net);
  const auto a = BuildClustering(ex1, prof, all, 12, 7);
  const auto b = BuildClustering(ex2, prof, all, 12, 7);
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(ClusteringTest, RoundsScaleWithGammaTimesLogN) {
  // Theorem 1: Clustering takes O(Gamma * log N * log* N) rounds, N the ID
  // space. Each point asserts rounds <= kMaxRatio * Gamma * log2 N * log* N.
  // Fitted at N = 2^12 (log2 N * log* N = 48) on this test's own points:
  // rounds / bound was 296-473 on the growing-density set and 352-554 on
  // the constant-density set, n = 32 to 256 (seed means 444-519);
  // kMaxRatio allows 1.5x the largest, 554.
  constexpr double kMaxRatio = 831.0;
  // rounds / (Gamma * log2 N * log* N) of one run at N = 2^id_bits.
  const auto ratio = [&](int id_bits, int n, double side,
                         std::uint64_t points_seed, std::uint64_t net_seed,
                         std::uint64_t algo_seed) {
    sinr::Params params = TestParams();
    params.id_space = std::int64_t{1} << id_bits;
    const double log_terms =
        id_bits * LogStar(static_cast<double>(params.id_space));
    auto pts = workload::UniformSquare(n, side, points_seed);
    const auto net = workload::MakeNetwork(pts, params, net_seed);
    const auto prof = Profile::Practical(params.id_space);
    const auto all = AllIndices(net);
    const int gamma = std::max(1, SubsetDensity(net, all));
    sim::Exec ex(net);
    const auto res = BuildClustering(ex, prof, all, gamma, algo_seed);
    EXPECT_EQ(res.unassigned, 0u) << "n=" << n << " N=2^" << id_bits;
    const double r = static_cast<double>(res.rounds) / (gamma * log_terms);
    EXPECT_LE(r, kMaxRatio) << "n=" << n << " side=" << side
                            << " N=2^" << id_bits << " gamma=" << gamma
                            << " rounds=" << res.rounds;
    return r;
  };
  // Constant density (side = sqrt(n) / 2, Gamma 17-24): single seeds
  // spread too widely to compare (352-527 at n = 64, N = 2^12), so the
  // drift checks below compare means over three seeds.
  const auto constant_density_mean = [&](int id_bits, int n) {
    double sum = 0.0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      sum += ratio(id_bits, n, 0.5 * std::sqrt(static_cast<double>(n)), seed,
                   seed + 100, seed);
    }
    return sum / 3.0;
  };

  // Growing density: quadrupling n on a fixed square raises Gamma (18, 29
  // and 54 here).
  for (const int n : {48, 96, 192}) ratio(12, n, 4.0, 29, 31, 9);

  // The ratio must not drift with n at constant density; at the fit the
  // means were 451, 444, 519 and 494 for n = 32, 64, 128 and 256 (the
  // n = 256 points, Gamma 21-24: 476, 525 and 479).
  const double mean_n32 = constant_density_mean(12, 32);
  const double mean_n64 = constant_density_mean(12, 64);
  EXPECT_LE(constant_density_mean(12, 128), 1.5 * mean_n32);
  EXPECT_LE(constant_density_mean(12, 256), 1.5 * mean_n32);

  // Nor with the ID space: the same n = 64 point sets at N = 2^16 and 2^20
  // (seed means 481 and 342 when this was added, against 444 at 2^12; no
  // single point above 519).
  constant_density_mean(16, 64);
  EXPECT_LE(constant_density_mean(20, 64), 1.5 * mean_n64);
}

class ClusteringSweep
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(ClusteringSweep, ValidAcrossWorkloads) {
  const auto [n, side, seed] = GetParam();
  const auto params = TestParams();
  auto pts = workload::UniformSquare(n, side, static_cast<std::uint64_t>(seed));
  const auto net = workload::MakeNetwork(
      pts, params, static_cast<std::uint64_t>(seed) + 17);
  const auto prof = Profile::Practical(params.id_space);
  const auto all = AllIndices(net);
  sim::Exec ex(net);
  const auto res = BuildClustering(ex, prof, all, SubsetDensity(net, all),
                                   static_cast<std::uint64_t>(seed));
  ExpectValid(net, all, res,
              "n=" + std::to_string(n) + " side=" + std::to_string(side) +
                  " seed=" + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClusteringSweep,
    ::testing::Values(std::tuple{64, 3.0, 1}, std::tuple{96, 4.0, 2},
                      std::tuple{128, 4.0, 3}, std::tuple{96, 6.0, 4},
                      std::tuple{128, 8.0, 5}));

}  // namespace
}  // namespace dcc::cluster
