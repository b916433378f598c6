// Lower-bound constructions (Section 6, Theorem 6, Figs. 5-7).
//
// A *gadget* is Delta+4 collinear nodes s, v_0..v_{Delta+1}, t with
// geometrically growing gaps inside the core: d(v_i, v_{i+1}) =
// span * q^{-(Delta-i)}-shaped, so that (Fact 2):
//   (1) two core transmitters v_i, v_j (i<j) jam every listener beyond j;
//   (2) t hears only v_{Delta+1}, and only when it transmits alone.
//
// Two deliberate deviations from the paper's figures, both listed in
// docs/PAPER_MAP.md under "Deviations from the paper":
//  * the paper draws gap ratio q = 2 and asserts Fact 2 "for eps small
//    enough"; the ratio is eps-independent, and blocking at ratio q needs
//    beta > (q/(q-1))^alpha (worst interferer: v_0), so we expose q and
//    default experiments to beta chosen to satisfy it (GadgetParams).
//  * we place v_0 at distance eps from s (the paper's figure suggests
//    1 - eps) so that s's wake-up of the core, like the core-internal
//    traffic, tolerates the Theta(eps^{-alpha}) external-interference
//    budget nu of Lemma 13 — at distance ~1 the wake budget would be ~0
//    and no buffer path could protect it.
//
// Gap ratios burn one factor q of double precision per core node, capping
// Delta around 40 at q = 2 — ample for the scaling experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "dcc/common/geometry.h"
#include "dcc/sinr/params.h"

namespace dcc::lowerbound {

struct Gadget {
  std::vector<Vec2> positions;  // [s, v_0, ..., v_{Delta+1}, t]
  std::size_t s = 0;
  std::size_t t = 0;
  std::vector<std::size_t> core;  // v_0..v_{Delta+1}
  int delta = 0;
};

// Core span is ~3*eps as in the paper (Fig. 6). `q` is the gap ratio.
Gadget MakeGadget(int delta, const sinr::Params& params, double q = 2.0);

// SINR parameters under which Fact 2 holds at gap ratio q: beta is set just
// above ((q+1)/q)^alpha (with margin), power re-normalized to range 1.
sinr::Params GadgetParams(double alpha, double eps, double q = 2.0);

struct GadgetChain {
  std::vector<Vec2> positions;
  std::size_t s = 0;              // source (s of the first gadget)
  std::size_t t = 0;              // target (t of the last gadget)
  std::vector<Gadget> gadgets;    // index ranges refer to `positions`
  std::vector<std::size_t> buffer_nodes;
  int delta = 0;
  int num_gadgets = 0;
};

// Fig. 7: m gadgets separated by buffer paths of ceil(Delta^{1/alpha}/(1-eps))
// nodes spaced 1-eps apart. The i-th gadget's source s is the last buffer
// node before it (the paper identifies them logically; we keep one node).
GadgetChain MakeGadgetChain(int num_gadgets, int delta,
                            const sinr::Params& params, double q = 2.0);

}  // namespace dcc::lowerbound
