// All algorithm constants in one place.
//
// The paper's proofs stack several constants: the close-neighbor constant
// kappa (Lemmas 5-6), the conflicting-cluster constant rho (Lemma 6), the
// SNS density gamma and its ssf parameter k_gamma (Lemma 4), the packing
// numbers chi(5, 1-eps) (Alg. 3) and chi(r+1, 1-eps) (Alg. 5). Deriving
// them literally from the proofs yields values that are astronomically
// conservative (e.g. kappa in the millions for alpha = 3) — sound but
// unusable, as is normal for worst-case interference bounds.
//
// We therefore carry every constant in a `Profile`:
//  * `Theory(params, N)` computes the proof-shaped values (documented
//    formulas below) — used to *exhibit* the constants, not to run.
//  * `Practical(N)` uses calibrated values; the geometric validators in
//    tests/ verify all postconditions (clustering validity, close-pair
//    coverage, broadcast success) under this profile, so calibration cannot
//    silently break correctness. See docs/PAPER_MAP.md, "Deviations from
//    the paper".
#pragma once

#include <cstdint>
#include <memory>

#include "dcc/sim/schedule.h"
#include "dcc/sinr/params.h"

namespace dcc::cluster {

struct Profile {
  // --- structural constants ---
  int kappa = 5;   // close-neighbor constant (Lemmas 5-6)
  int rho = 4;     // conflicting clusters per cluster (Lemma 6)

  // --- selector sizing: length = c * theory formula ---
  double wss_c = 0.35;
  double wcss_c = 0.10;

  // --- Sparse Network Schedule (Lemma 4) ---
  int sns_k = 8;                 // selection parameter k_gamma
  bool sns_use_prime_ssf = false;  // deterministic prime ssf vs seeded

  // --- loop counts ---
  int l_uncl = 2;      // Alg. 3 repetition count (theory: chi(5, 1-eps))
  int rr_iters = 3;    // Alg. 5 loop count (theory: chi(r+1, 1-eps))
  int mis_rounds = 10; // LOCAL-round cap for local-minima MIS
  bool use_linial_mis = false;  // full Linial pipeline instead of the cap
  int label_reps = 3;  // per-stage replays in top-down labeling delivery

  // Instrumentation: allow stages to stop once a fixpoint is centrally
  // detected (round counts then measure actual progress; the worst-case
  // schedule length is reported separately by benches). Within a stage it
  // only truncates idle suffixes. It is not a pure truncation overall:
  // RadiusReduction with early_stop runs until every member is assigned,
  // for up to 4 * rr_iters iterations, where without it stops after
  // rr_iters, so early stopping can assign members the fixed budget would
  // leave unassigned.
  bool early_stop = true;

  static Profile Practical(std::int64_t id_space);
  static Profile Theory(const sinr::Params& params, std::int64_t id_space);

  // --- schedule factories (shared by all algorithms) ---
  // `nonce` freshens the selector per invocation; it is derived from public
  // stage counters, so all nodes agree on it.
  std::shared_ptr<sim::Schedule> MakeWss(std::int64_t N,
                                         std::uint64_t nonce) const;
  std::shared_ptr<sim::Schedule> MakeWcss(std::int64_t N,
                                          std::uint64_t nonce) const;
  std::shared_ptr<sim::Schedule> MakeSns(std::int64_t N,
                                         std::uint64_t nonce) const;

  std::int64_t WssLen(std::int64_t N) const;
  std::int64_t WcssLen(std::int64_t N) const;
  // The length of MakeSns(N, ·): the prime ssf's size when
  // sns_use_prime_ssf, the seeded length k^2 ln N otherwise.
  std::int64_t SnsLen(std::int64_t N) const;
};

}  // namespace dcc::cluster
