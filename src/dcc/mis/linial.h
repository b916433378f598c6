// Deterministic LOCAL-model coloring and MIS for bounded-degree graphs —
// our stand-in for the Schneider–Wattenhofer MIS [34] the paper invokes
// (docs/PAPER_MAP.md, "Deviations from the paper"). On constant-degree
// graphs the pipeline
//   Linial color reduction (log* rounds)  →  MIS from coloring
// runs in O(log* N) + O(1) LOCAL rounds, matching [34] asymptotically.
//
// Every runner here drives its LOCAL rounds through a `LocalRound`
// callback, so one implementation serves both callers: `GraphRound`
// delivers along a `LocalGraph`'s edges (tests, benches, the `LocalGraph`
// overloads), and the SINR protocols pass one exchange-schedule replay per
// LOCAL round (cluster::ReplayRound).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "dcc/common/types.h"

namespace dcc::mis {

// An undirected graph in the LOCAL model: adjacency over indices 0..n-1.
struct LocalGraph {
  std::vector<std::vector<std::size_t>> adj;

  std::size_t size() const { return adj.size(); }
  int MaxDegree() const;
  bool IsIndependent(const std::vector<bool>& in_set) const;
  // Every node is in the set or has a neighbor in it.
  bool IsDominating(const std::vector<bool>& in_set) const;
};

// --- LOCAL rounds -------------------------------------------------------

// A node's standing in an MIS computation; the word the MIS runners send.
enum class MisState : std::uint8_t { kUndecided, kInMis, kDominated };

// inbox[v]: the (sender id, word) pairs node v received in one LOCAL round.
using Inbox = std::vector<std::vector<std::pair<NodeId, std::int64_t>>>;

// One LOCAL round: node v sends the word out[v] to its neighbors, and the
// round refills inbox[v] with what v heard (a neighbor may appear more than
// once; every runner's decisions are insensitive to order and repeats).
using LocalRound =
    std::function<void(const std::vector<std::int64_t>& out, Inbox& inbox)>;

// Delivers along g's edges; sender u is named ids[u], or u when `ids` is
// empty. `g` and `ids` must outlive the returned round.
LocalRound GraphRound(const LocalGraph& g,
                      std::span<const std::int64_t> ids = {});

// --- Linial color reduction -------------------------------------------

// Parameters of one reduction round: colors in [0, m) are viewed as
// polynomials of degree <= t over GF(q); the new color space is [0, q^2).
struct LinialRound {
  std::int64_t q = 0;  // prime
  int t = 0;           // polynomial degree bound, q > delta * t
  std::int64_t m = 0;  // incoming color space
};

// The sequence of reduction rounds from color space m0 with degree bound
// delta, iterated until q^2 stops shrinking the space. O(log* m0) entries.
std::vector<LinialRound> LinialPlan(std::int64_t m0, int delta);

// One node's reduction step: its color c in [0, m), neighbor colors (all in
// [0, m), all != c), and the round parameters. Returns the new color in
// [0, q^2).
std::int64_t LinialStep(std::int64_t c, std::span<const std::int64_t> neighbors,
                        const LinialRound& round);

// Reduces initial colors (proper, in [0, m0), degree <= delta) to the final
// space, one LOCAL round per LinialPlan entry. LinialStep asserts each
// round's incoming coloring is proper; the LocalGraph overload also checks
// the final one.
struct ColoringRun {
  std::vector<std::int64_t> colors;
  std::int64_t num_colors = 0;  // final color space bound
  int local_rounds = 0;
};
ColoringRun LinialColorReduction(const LocalRound& round,
                                 std::vector<std::int64_t> colors,
                                 std::int64_t m0, int delta);
ColoringRun LinialColorReduction(const LocalGraph& g,
                                 std::vector<std::int64_t> colors,
                                 std::int64_t m0, int delta);

// --- MIS from a proper coloring ----------------------------------------
// Processes color classes 0..K-1, one LOCAL round each, in which every node
// sends its MisState: an undecided node that hears a neighbor in the MIS
// becomes dominated, and otherwise joins when its color is the current
// class. K LOCAL rounds, or fewer with `stop_when_decided` (stop after the
// first round that leaves no node undecided).
struct MisRun {
  std::vector<bool> in_mis;
  int local_rounds = 0;
};
MisRun MisFromColoring(const LocalRound& round,
                       const std::vector<std::int64_t>& colors,
                       std::int64_t num_colors, bool stop_when_decided);
MisRun MisFromColoring(const LocalGraph& g,
                       const std::vector<std::int64_t>& colors,
                       std::int64_t num_colors);

// Full pipeline: Linial reduction from the ID space (ids[v] in
// [1, id_space], color ids[v] - 1; degree bound `delta`), then MIS by
// colors. local_rounds counts both stages.
MisRun LinialMis(const LocalRound& round, const std::vector<std::int64_t>& ids,
                 std::int64_t id_space, int delta, bool stop_when_decided);
// Over GraphRound(g) with delta = g.MaxDegree(), sweeping every class.
MisRun LinialMis(const LocalGraph& g, const std::vector<std::int64_t>& ids,
                 std::int64_t id_space);

}  // namespace dcc::mis
