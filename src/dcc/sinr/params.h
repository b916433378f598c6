// SINR model parameters (paper, Section 1.1).
//
// The model is determined by: path loss alpha > 2, threshold beta > 1,
// ambient noise N > 0, transmission power P, and the connectivity parameter
// eps in (0,1) that defines the communication graph (edges at distance
// <= 1 - eps).
//
// A node u receives a message from v with transmitter set T iff v in T and
//     SINR(v,u,T) = (P / d(v,u)^alpha) / (N + sum_{w in T \ {v}} P/d(w,u)^alpha)
//                 >= beta.
// The paper normalizes the transmission range to 1, which forces P = N*beta
// (a lone transmitter at distance exactly 1 is received at equality).
#pragma once

#include <cstdint>

#include "dcc/common/types.h"

namespace dcc::sinr {

struct Params {
  double alpha = 3.0;   // path-loss exponent, > 2
  double beta = 1.5;    // SINR threshold, > 1
  double noise = 1.0;   // ambient noise N, > 0
  double eps = 0.2;     // connectivity parameter, in (0,1)

  // Transmission power. Defaults to noise*beta so the transmission range is
  // exactly 1; kept explicit so experiments can perturb it.
  double power = 1.5;

  // Upper bound N on the ID space [N]; IDs are unique in [1, id_space].
  // The paper assumes N = n^{O(1)}.
  std::int64_t id_space = 1 << 16;

  // Validates that every field is finite and in its range and that the
  // communication radius (range - eps) is positive. Throws InvalidArgument
  // on violation.
  void Validate() const;

  // Range of a lone transmitter: (P / (noise*beta))^{1/alpha}.
  double TransmissionRange() const;

  // Communication-graph radius: 1 - eps (paper, "Communication graph").
  double CommRadius() const { return TransmissionRange() - eps; }

  // Params with range normalized to 1 for a given alpha/beta/eps.
  static Params Default(double alpha = 3.0, double beta = 1.5,
                        double eps = 0.2);
};

}  // namespace dcc::sinr
