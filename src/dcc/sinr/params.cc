#include "dcc/sinr/params.h"

#include <cmath>

namespace dcc::sinr {

void Params::Validate() const {
  DCC_REQUIRE(std::isfinite(alpha) && std::isfinite(beta) &&
                  std::isfinite(noise) && std::isfinite(eps) &&
                  std::isfinite(power),
              "SINR: alpha, beta, noise, eps and power must be finite");
  DCC_REQUIRE(alpha > 2.0, "SINR: alpha must be > 2");
  DCC_REQUIRE(beta > 1.0, "SINR: beta must be > 1");
  DCC_REQUIRE(noise > 0.0, "SINR: noise must be > 0");
  DCC_REQUIRE(power > 0.0, "SINR: power must be > 0");
  DCC_REQUIRE(eps > 0.0 && eps < 1.0, "SINR: eps must be in (0,1)");
  DCC_REQUIRE(id_space >= 1, "SINR: id_space must be >= 1");
  DCC_REQUIRE(TransmissionRange() > eps,
              "SINR: communication radius (range - eps) must be positive");
}

double Params::TransmissionRange() const {
  return std::pow(power / (noise * beta), 1.0 / alpha);
}

Params Params::Default(double alpha, double beta, double eps) {
  Params p;
  p.alpha = alpha;
  p.beta = beta;
  p.noise = 1.0;
  p.power = p.noise * p.beta;  // range = 1
  p.eps = eps;
  p.Validate();
  return p;
}

}  // namespace dcc::sinr
