// The propagation layer: how transmit power turns into received power.
//
// One model: the paper's power law P / d^alpha (Eq. 1), optionally
// perturbed by a deterministic per-link shadowing factor. `Network` holds
// it by value and every gain, the engine's included, is computed by it.
//
// Besides point-to-point gains, the model exposes a distance *envelope* —
// upper/lower bounds on the gain of any link whose squared length falls in
// a given interval. The grid-indexed SINR engine uses the envelope to bound
// the aggregate interference of whole tiles without enumerating their
// members, so it is conservative for every id pair.
#pragma once

#include <cmath>
#include <cstdint>

#include "dcc/common/types.h"
#include "dcc/sinr/params.h"

namespace dcc::sinr {

// Optional deterministic shadowing: per-link multiplicative gain
// perturbation, log-uniform in [1/(1+spread), 1+spread], seeded and
// symmetric. Models the idealized-SINR / real-radio gap (obstacles,
// antenna variation) while keeping runs reproducible. spread = 0 disables.
struct Shadowing {
  double spread = 0.0;
  std::uint64_t seed = 0;
};

// P / d^alpha, times the link's shadowing factor when shadowed. Co-located
// points are clamped to a tiny distance defensively; the model places
// distinct nodes at distinct positions.
class PathLossModel {
 public:
  // Rejects a negative spread and invalid params.
  explicit PathLossModel(const Params& params, Shadowing shadowing = {});

  // The pure law: P / d2^{alpha/2}, with the common alpha = 3 specialized
  // to multiply+sqrt instead of pow. Without shadowing, the engine's gain
  // table, its gain kernel (sinr/gain_kernel.h) and its bounds all hold
  // these bits.
  double GainD2(double d2) const {
    d2 = d2 < kMinDistanceSq ? kMinDistanceSq : d2;
    if (alpha_is_3_) return power_ / (d2 * std::sqrt(d2));
    return power_ * std::pow(d2, -0.5 * alpha_);
  }

  // Received power over a link of squared length `d2` between nodes `id_a`
  // and `id_b`: GainD2(d2), times Factor(id_a, id_b) when shadowed. Gains
  // are symmetric in id order, to the bit. Distinct co-located nodes fall
  // into the kMinDistanceSq clamp (a huge but finite gain); "no self-gain"
  // is the Network layer's job, keyed on node identity, not position.
  double Gain(double d2, NodeId id_a, NodeId id_b) const {
    const double g = GainD2(d2);
    return shadowed() ? g * Factor(id_a, id_b) : g;
  }

  // The per-link shadowing factor, in [1/(1+spread), 1+spread] (1 when
  // not shadowed).
  double Factor(NodeId id_a, NodeId id_b) const;

  // Envelope: an upper bound on Gain over every link of squared length
  // >= d2_lo, and a lower bound over every link of squared length <= d2_hi.
  // Both are GainD2's bits when not shadowed.
  double MaxGainD2(double d2_lo) const {
    const double g = GainD2(d2_lo);
    return shadowed() ? g * (1.0 + spread_) : g;
  }
  double MinGainD2(double d2_hi) const {
    const double g = GainD2(d2_hi);
    return shadowed() ? g / (1.0 + spread_) : g;
  }

  // (1 + spread)^(1/alpha), exactly 1 when not shadowed: how far shadowing
  // can stretch or shrink a reception range, a gain being within a factor
  // 1 + spread of GainD2's either way.
  double RangeStretch() const { return std::pow(1.0 + spread_, 1.0 / alpha_); }

  bool shadowed() const { return spread_ > 0.0; }
  double power() const { return power_; }
  double alpha() const { return alpha_; }
  bool alpha_is_three() const { return alpha_is_3_; }

  static constexpr double kMinDistanceSq = 1e-18;

 private:
  double power_;
  double alpha_;
  bool alpha_is_3_;
  double spread_;
  double log_span_;  // log(1 + spread): Factor's exponent spans +-log_span_
  std::uint64_t seed_;
};

}  // namespace dcc::sinr
