// The engine's one kernel for gains it computes without its gain table
// (engine.cc): PathLossModel::Gain(Dist2(v, u), id_v, id_u) for kGainLanes
// listeners u at once, against a range of transmitters v, folded into each
// lane's running sum and strongest transmitter. The grid path's close-tile
// scans, its far sweep (except for alpha = 3 without shadowing on avx512f
// hosts, which run the engine's approximate FarSweepAlpha3Avx512) and the
// exact kernel's rounds above Engine::kGainMatrixLimit run it.
//
// Bit contract: for every lane, each variant computes the bits of the
// scalar loop
//
//   for (s = begin; s < end; ++s) {
//     g = plm.Gain(Dist2({xs[s], ys[s]}, {lx[j], ly[j]}), ids[s], lids[j]);
//     total[j] += g;
//     if (g > best[j]) { best[j] = g; best_at[j] = s; }
//   }
//
// (a tie keeps the first maximum): divide and square root are correctly
// rounded, and no variant contracts a multiply and an add into an FMA.
// The ids are read only when plm.shadowed(): without shadowing both may be
// null. Kept in its own header so tests can hold every variant the host
// runs to that loop (tests/gain_kernel_test.cc).
#pragma once

#include <bit>
#include <cstddef>

#include "dcc/sinr/propagation.h"

#if defined(__GNUC__) && defined(__x86_64__)
#define DCC_X86_DISPATCH 1
#endif

namespace dcc::sinr::kernel {

// Lanes per call: one AVX-512 register of doubles.
inline constexpr std::size_t kGainLanes = 8;

// Runs the loop above for every lane j whose bit j is set in `mask`; the
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

// Whether the host runs AVX-512F code (false off x86-64).
inline bool HasAvx512() {
#ifdef DCC_X86_DISPATCH
  static const bool has = __builtin_cpu_supports("avx512f") != 0;
  return has;
#else
  return false;
#endif
}

// The variant the engine runs: AddGainsAvx512 for alpha = 3 without
// shadowing on an avx512f host when at least kMinAvx512Lanes lanes are on,
// AddGainsPortable otherwise. Every variant gives the same bits, so the
// choice is invisible outside timing.
//
// A packed divide and square root cost about 1.9 ns per lane at every
// vector width, a scalar pair 3.8 ns (4-core Xeon, avx512f, gcc 12.2), so
// the AVX-512 variant costs about as much as four lanes of the portable
// one whatever its mask, and the portable one costs per lane that is on.
inline constexpr int kMinAvx512Lanes = 4;

inline void AddGains(const PathLossModel& plm, const double* xs,
                     const double* ys, const NodeId* ids, std::size_t begin,
                     std::size_t end, const double* lx, const double* ly,
                     const NodeId* lids, unsigned mask, double* total,
                     double* best, std::size_t* best_at) {
#ifdef DCC_X86_DISPATCH
  if (plm.alpha_is_three() && !plm.shadowed() &&
      std::popcount(mask) >= kMinAvx512Lanes && HasAvx512()) {
    AddGainsAvx512(plm, xs, ys, ids, begin, end, lx, ly, lids, mask, total,
                   best, best_at);
    return;
  }
#endif
  AddGainsPortable(plm, xs, ys, ids, begin, end, lx, ly, lids, mask, total,
                   best, best_at);
}

}  // namespace dcc::sinr::kernel
