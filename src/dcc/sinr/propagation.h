// The propagation layer: how transmit power turns into received power.
//
// `Network` composes a PropagationModel instead of baking the power law in,
// so experiments can swap radio conditions (pure path loss, deterministic
// shadowing, theory-mode truncation) without touching the interference or
// execution layers. Models are immutable and shared by const reference.
//
// Besides point-to-point gains, a model exposes a distance *envelope* —
// upper/lower bounds on the gain of any link whose length falls in a given
// interval. The grid-indexed SINR engine uses the envelope to bound the
// aggregate interference of whole tiles without enumerating their members;
// envelopes must therefore be conservative for every id pair.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>

#include "dcc/common/geometry.h"
#include "dcc/common/types.h"
#include "dcc/sinr/params.h"

namespace dcc::sinr {

// Forward-declared here so network.h can keep including only params.h.
struct Shadowing;

class PropagationModel {
 public:
  virtual ~PropagationModel() = default;

  // The primitive: received power over a link of squared length `d2`
  // between nodes `id_a` and `id_b`. Ids identify the link for models with
  // per-link structure (shadowing); gains are symmetric in id order, to the
  // bit.
  // Working in squared distance lets callers skip the sqrt of the hot
  // distance computation.
  virtual double GainFromDistanceSq(double d2, NodeId id_a,
                                    NodeId id_b) const = 0;

  // Received power at `b` of a transmission from `a`. Distinct co-located
  // nodes fall into the kMinDistanceSq clamp (a huge but finite gain),
  // matching the engine's devirtualized kernels; "no self-gain" is the
  // Network layer's job, keyed on node identity, not position.
  double Gain(Vec2 a, Vec2 b, NodeId id_a, NodeId id_b) const {
    return GainFromDistanceSq(Dist2(a, b), id_a, id_b);
  }

  // Envelope: an upper bound on Gain over every link of length >= d_lo, and
  // a lower bound over every link of length <= d_hi (0 < d_lo, d_hi).
  virtual double MaxGain(double d_lo) const = 0;
  virtual double MinGain(double d_hi) const = 0;

  virtual const char* name() const = 0;
};

// Pure power law: P / d^alpha (the paper's model, Eq. 1). Co-located points
// are clamped to a tiny distance defensively; the model places distinct
// nodes at distinct positions.
//
// The engine devirtualizes its hot loops onto GainD2 when the network's
// model is exactly this class, so GainD2 is the single arithmetic kernel
// all gain paths (the engine's gain table, on-the-fly, grid scans) agree
// on.
class PathLossModel : public PropagationModel {
 public:
  explicit PathLossModel(const Params& params);

  // P / d2^{alpha/2}, with the common alpha = 3 specialized to
  // multiply+sqrt instead of pow.
  double GainD2(double d2) const {
    d2 = d2 < kMinDistanceSq ? kMinDistanceSq : d2;
    if (alpha_is_3_) return power_ / (d2 * std::sqrt(d2));
    return power_ * std::pow(d2, -0.5 * alpha_);
  }

  double GainFromDistanceSq(double d2, NodeId id_a,
                            NodeId id_b) const override;
  double MaxGain(double d_lo) const override;
  double MinGain(double d_hi) const override;
  const char* name() const override { return "path_loss"; }

  double power() const { return power_; }
  double alpha() const { return alpha_; }
  bool alpha_is_three() const { return alpha_is_3_; }

  static constexpr double kMinDistanceSq = 1e-18;

 protected:
  double power_;
  double alpha_;
  bool alpha_is_3_;
};

// Path loss perturbed by a deterministic per-link multiplicative factor,
// log-uniform in [1/(1+spread), 1+spread], symmetric and seeded. Models the
// idealized-SINR / real-radio gap while keeping runs reproducible.
class LogUniformShadowingModel : public PathLossModel {
 public:
  LogUniformShadowingModel(const Params& params, double spread,
                           std::uint64_t seed);

  double GainFromDistanceSq(double d2, NodeId id_a,
                            NodeId id_b) const override;
  double MaxGain(double d_lo) const override;
  double MinGain(double d_hi) const override;
  const char* name() const override { return "log_uniform_shadowing"; }

  // The per-link factor alone (exposed for tests).
  double Factor(NodeId id_a, NodeId id_b) const;

  double spread() const { return spread_; }

 private:
  double spread_;
  std::uint64_t seed_;
};

// Theory mode: the power law of the proofs with interference truncated to
// zero beyond `cutoff` — the bounded-interference idealization several of
// the paper's lemmas reason in. Useful for isolating how much of a
// protocol's behavior is due to far-field interference the analysis
// ignores. `cutoff` defaults to 8x the transmission range.
class TheoryModel : public PathLossModel {
 public:
  explicit TheoryModel(const Params& params, double cutoff = 0.0);

  double GainFromDistanceSq(double d2, NodeId id_a,
                            NodeId id_b) const override;
  double MaxGain(double d_lo) const override;
  double MinGain(double d_hi) const override;
  const char* name() const override { return "theory"; }

  double cutoff() const { return cutoff_; }

 private:
  double cutoff_;
};

// The model matching the legacy (params, shadowing) Network constructor:
// LogUniformShadowingModel when spread > 0, else PathLossModel.
std::shared_ptr<const PropagationModel> MakeDefaultModel(
    const Params& params, const Shadowing& shadowing);

}  // namespace dcc::sinr
