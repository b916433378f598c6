#include "dcc/cluster/profile.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dcc/common/geometry.h"
#include "dcc/common/rng.h"
#include "dcc/sel/ssf.h"

namespace dcc::cluster {

namespace {

// Selector seed — fixed, public, part of the algorithm description.
constexpr std::uint64_t kSelectorSeed = 0x9E3779B97F4A7C15ull;

}  // namespace

Profile Profile::Practical(std::int64_t id_space) {
  Profile p;
  (void)id_space;  // lengths are computed lazily from N at factory time
  return p;        // defaults in the header are the calibrated values
}

Profile Profile::Theory(const sinr::Params& params, std::int64_t id_space) {
  (void)id_space;
  Profile p;
  const double alpha = params.alpha;
  const double beta = params.beta;
  const double eps = params.eps;

  // Lemma 5: a close pair (u,v) at distance d succeeds when no node among
  // the kappa closest transmits. Using Proposition 1 with ring constant
  // 8*pi, delta = chi(d, d/2) <= 25, the far-field cutoff x must satisfy
  //   8*pi*delta/(alpha-2) * x^{2-alpha} <= 2^{-alpha} / (4*beta),
  // and kappa = chi(x*d, d/2) <= (1 + 4x)^2.
  const double delta = 25.0;
  const double rhs = std::pow(2.0, -alpha) / (4.0 * beta);
  const double x =
      std::ceil(std::pow(8.0 * 3.14159265358979 * delta / ((alpha - 2.0) * rhs),
                         1.0 / (alpha - 2.0)));
  const double kappa_exact = std::pow(1.0 + 4.0 * x, 2.0);
  p.kappa = kappa_exact >= static_cast<double>(std::numeric_limits<int>::max())
                ? std::numeric_limits<int>::max()
                : static_cast<int>(kappa_exact);

  // Lemma 6: clusters with nodes inside B(center, 2r) conflict; their count
  // is bounded by the packing of centers at pairwise distance >= 1-eps.
  p.rho = ChiUpperBound(2.0 * 2.0 /*r=2*/, 1.0 - eps);

  // Lemma 4: SNS must select each node among all nodes within the far-field
  // cutoff, k_gamma = gamma * chi(x, 1) with gamma the density bound.
  // ChiUpperBound saturates at INT_MAX here, so multiply in 64 bits and
  // clamp like kappa.
  const std::int64_t gamma = 3;
  p.sns_k = static_cast<int>(std::min<std::int64_t>(
      gamma * ChiUpperBound(x, 1.0), std::numeric_limits<int>::max()));
  p.sns_use_prime_ssf = true;

  // Full-length selectors (Lemmas 2-3 union bounds): c covers the e^2-ish
  // slack of the probabilistic argument.
  p.wss_c = 3.0 * std::exp(2.0);
  p.wcss_c = 3.0 * std::exp(2.0);

  p.l_uncl = ChiUpperBound(5.0, 1.0 - eps);
  p.rr_iters = ChiUpperBound(3.0 /*r+1 for r=2*/, 1.0 - eps);
  p.use_linial_mis = true;
  p.mis_rounds = 0;  // unused with the Linial pipeline
  p.label_reps = p.kappa;
  p.early_stop = false;
  return p;
}

std::int64_t Profile::WssLen(std::int64_t N) const {
  const double lnN = std::log(static_cast<double>(std::max<std::int64_t>(N, 2)));
  const double k = kappa;
  return std::max<std::int64_t>(
      64, static_cast<std::int64_t>(std::ceil(wss_c * k * k * (k + 2.0) * lnN)));
}

std::int64_t Profile::WcssLen(std::int64_t N) const {
  const double lnN = std::log(static_cast<double>(std::max<std::int64_t>(N, 2)));
  const double k = kappa, l = rho;
  return std::max<std::int64_t>(
      64,
      static_cast<std::int64_t>(std::ceil(wcss_c * (k + l) * l * k * k * lnN)));
}

std::int64_t Profile::SnsLen(std::int64_t N) const {
  if (sns_use_prime_ssf) return sel::Ssf::Construct(N, sns_k).size();
  const double lnN = std::log(static_cast<double>(std::max<std::int64_t>(N, 2)));
  const double k = sns_k;
  return std::max<std::int64_t>(
      64, static_cast<std::int64_t>(std::ceil(k * k * lnN)));
}

std::shared_ptr<sim::Schedule> Profile::MakeWss(std::int64_t N,
                                                std::uint64_t nonce) const {
  return std::make_shared<sim::WssSchedule>(sel::Wss::WithLength(
      N, kappa, WssLen(N), HashCombine(kSelectorSeed, nonce)));
}

std::shared_ptr<sim::Schedule> Profile::MakeWcss(std::int64_t N,
                                                 std::uint64_t nonce) const {
  return std::make_shared<sim::WcssSchedule>(sel::Wcss::WithLength(
      N, kappa, rho, WcssLen(N),
      HashCombine(kSelectorSeed, nonce ^ 0xABCDEF12345ull)));
}

std::shared_ptr<sim::Schedule> Profile::MakeSns(std::int64_t N,
                                                std::uint64_t nonce) const {
  if (sns_use_prime_ssf) {
    return std::make_shared<sim::SsfSchedule>(sel::Ssf::Construct(N, sns_k));
  }
  // Seeded variant: per-round inclusion with probability 1/sns_k, which is
  // the probabilistic-method ssf; same determinism argument as the wss.
  return std::make_shared<sim::WssSchedule>(sel::Wss::WithLength(
      N, sns_k, SnsLen(N),
      HashCombine(kSelectorSeed, nonce ^ 0x5115511551155ull)));
}

}  // namespace dcc::cluster
