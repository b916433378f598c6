// The engine's kernels for what it computes without its gain table
// (engine.cc), each for kernel::kGainLanes listeners u at once.
//
// AddGains: PathLossModel::Gain(Dist2(v, u), id_v, id_u) against a range
// of transmitters v, folded into each lane's running sum and strongest
// transmitter. The grid path's close-tile scans, its far sweep (except for
// alpha = 3 without shadowing on avx512f hosts, which run the engine's
// approximate FarSweepAlpha3Avx512) and the exact kernel's rounds above
// Engine::kGainMatrixLimit run it. Bit contract: for every lane, each
// variant computes the bits of the scalar loop
//
//   for (s = begin; s < end; ++s) {
//     g = plm.Gain(Dist2({xs[s], ys[s]}, {lx[j], ly[j]}), ids[s], lids[j]);
//     total[j] += g;
//     if (g > best[j]) { best[j] = g; best_at[j] = s; }
//   }
//
// (a tie keeps the first maximum). The ids are read only when
// plm.shadowed(): without shadowing both may be null.
//
// AddTileBounds: the grid path's stage-1 bounds of a lane group against
// its tile's close tiles (Engine::ResolveLaneGroup). Bit contract: for
// every lane, each variant computes the bits of the scalar loop
//
//   for (c = 0; c < n_tiles; ++c) {
//     d2_lo = SpatialGrid::DistLoSq({lx[j], ly[j]}, tiles[c].box);
//     if (d2_lo <= near_sq) { near[c] |= 1u << j; continue; }
//     bound_lo[j] += tiles[c].count *
//         plm.MinGainD2(SpatialGrid::DistHiSq({lx[j], ly[j]}, tiles[c].box));
//     gain_ub[j] = std::max(gain_ub[j], plm.MaxGainD2(d2_lo));
//   }
//
// with every near[c] starting from 0.
//
// In both kernels divide and square root are correctly rounded, and no
// variant contracts a multiply and an add into an FMA. Each has a portable
// variant, lane by lane, which is its loop, and an AVX-512 one for
// alpha = 3 without shadowing, eight lanes per instruction; the engine
// calls the dispatchers, which pick by one rule (RunsAvx512). Kept in their
// own header so tests can hold every variant the host runs to its loop
// (tests/gain_kernel_test.cc).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "dcc/common/geometry.h"
#include "dcc/sinr/propagation.h"

#if defined(__GNUC__) && defined(__x86_64__)
#define DCC_X86_DISPATCH 1
#endif

namespace dcc::sinr::kernel {

// Lanes per call: one AVX-512 register of doubles.
inline constexpr std::size_t kGainLanes = 8;

// Runs AddGains' loop for every lane j whose bit j is set in `mask`; the
// other lanes are left as they are. ids is parallel to xs and ys; lx, ly,
// lids, total, best and best_at each hold kGainLanes entries.
void AddGainsPortable(const PathLossModel& plm, const double* xs,
                      const double* ys, const NodeId* ids, std::size_t begin,
                      std::size_t end, const double* lx, const double* ly,
                      const NodeId* lids, unsigned mask, double* total,
                      double* best, std::size_t* best_at);

#ifdef DCC_X86_DISPATCH
// The same for alpha = 3 without shadowing (the ids are never read), eight
// lanes per instruction; the host must support avx512f.
void AddGainsAvx512(const PathLossModel& plm, const double* xs,
                    const double* ys, const NodeId* ids, std::size_t begin,
                    std::size_t end, const double* lx, const double* ly,
                    const NodeId* lids, unsigned mask, double* total,
                    double* best, std::size_t* best_at);
#endif

// A close tile as AddTileBounds reads it: the tile's closed box and the
// number of transmitters in it.
struct CloseTile {
  Box box;
  double count = 0.0;
};

// Runs AddTileBounds' loop for every lane j whose bit j is set in `mask`;
// the other lanes' bound_lo and gain_ub are left as they are, and no near
// entry has their bit. lx, ly, bound_lo and gain_ub each hold kGainLanes
// entries, tiles and near n_tiles.
void AddTileBoundsPortable(const PathLossModel& plm, const CloseTile* tiles,
                           std::size_t n_tiles, double near_sq,
                           const double* lx, const double* ly, unsigned mask,
                           double* bound_lo, double* gain_ub,
                           std::uint8_t* near);

#ifdef DCC_X86_DISPATCH
// The same for alpha = 3 without shadowing; the host must support avx512f.
void AddTileBoundsAvx512(const PathLossModel& plm, const CloseTile* tiles,
                         std::size_t n_tiles, double near_sq,
                         const double* lx, const double* ly, unsigned mask,
                         double* bound_lo, double* gain_ub,
                         std::uint8_t* near);
#endif

// Whether the host runs AVX-512F code (false off x86-64).
inline bool HasAvx512() {
#ifdef DCC_X86_DISPATCH
  static const bool has = __builtin_cpu_supports("avx512f") != 0;
  return has;
#else
  return false;
#endif
}

// Both dispatchers run the AVX-512 variant for alpha = 3 without shadowing
// on an avx512f host when at least kMinAvx512Lanes lanes are on, and the
// portable one otherwise. Every variant gives the same bits, so the choice
// is invisible outside timing.
//
// A packed divide and square root cost about 1.9 ns per lane at every
// vector width, a scalar pair 3.8 ns (4-core Xeon, avx512f, gcc 12.2), so
// an AVX-512 variant costs about as much as four lanes of the portable
// one whatever its mask, and the portable one costs per lane that is on.
inline constexpr int kMinAvx512Lanes = 4;

inline bool RunsAvx512(const PathLossModel& plm, unsigned mask) {
  return plm.alpha_is_three() && !plm.shadowed() &&
         std::popcount(mask) >= kMinAvx512Lanes && HasAvx512();
}

inline void AddGains(const PathLossModel& plm, const double* xs,
                     const double* ys, const NodeId* ids, std::size_t begin,
                     std::size_t end, const double* lx, const double* ly,
                     const NodeId* lids, unsigned mask, double* total,
                     double* best, std::size_t* best_at) {
#ifdef DCC_X86_DISPATCH
  if (RunsAvx512(plm, mask)) {
    AddGainsAvx512(plm, xs, ys, ids, begin, end, lx, ly, lids, mask, total,
                   best, best_at);
    return;
  }
#endif
  AddGainsPortable(plm, xs, ys, ids, begin, end, lx, ly, lids, mask, total,
                   best, best_at);
}

inline void AddTileBounds(const PathLossModel& plm, const CloseTile* tiles,
                          std::size_t n_tiles, double near_sq,
                          const double* lx, const double* ly, unsigned mask,
                          double* bound_lo, double* gain_ub,
                          std::uint8_t* near) {
#ifdef DCC_X86_DISPATCH
  if (RunsAvx512(plm, mask)) {
    AddTileBoundsAvx512(plm, tiles, n_tiles, near_sq, lx, ly, mask, bound_lo,
                        gain_ub, near);
    return;
  }
#endif
  AddTileBoundsPortable(plm, tiles, n_tiles, near_sq, lx, ly, mask, bound_lo,
                        gain_ub, near);
}

}  // namespace dcc::sinr::kernel
