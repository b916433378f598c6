#include "dcc/sinr/propagation.h"

#include <algorithm>
#include <cmath>

#include "dcc/common/rng.h"

namespace dcc::sinr {

PathLossModel::PathLossModel(const Params& params, Shadowing shadowing)
    : power_(params.power),
      alpha_(params.alpha),
      alpha_is_3_(params.alpha == 3.0),
      spread_(shadowing.spread),
      log_span_(std::log(1.0 + spread_)),
      seed_(shadowing.seed) {
  DCC_REQUIRE(spread_ >= 0.0, "shadowing spread must be >= 0");
  params.Validate();
}

double PathLossModel::Factor(NodeId id_a, NodeId id_b) const {
  const auto lo = static_cast<std::uint64_t>(std::min(id_a, id_b));
  const auto hi = static_cast<std::uint64_t>(std::max(id_a, id_b));
  const double u =
      static_cast<double>(HashWords(seed_, lo, hi) >> 11) * 0x1.0p-53;
  return std::exp((2.0 * u - 1.0) * log_span_);
}

}  // namespace dcc::sinr
