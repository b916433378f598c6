#include "dcc/sinr/gain_kernel.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "dcc/common/geometry.h"
#include "dcc/common/spatial_grid.h"

#ifdef DCC_X86_DISPATCH
#include <immintrin.h>
#endif

namespace dcc::sinr::kernel {

void AddGainsPortable(const PathLossModel& plm, const double* xs,
                      const double* ys, const NodeId* ids, std::size_t begin,
                      std::size_t end, const double* lx, const double* ly,
                      const NodeId* lids, unsigned mask, double* total,
                      double* best, std::size_t* best_at) {
  // Lane by lane: each sweep keeps its lane's state in registers. The ids
  // are read only when shadowed (Gain would read them on every call).
  mask &= (1u << kGainLanes) - 1;
  for (unsigned rest = mask; rest != 0; rest &= rest - 1) {
    const auto j = static_cast<std::size_t>(std::countr_zero(rest));
    const Vec2 u{lx[j], ly[j]};
    double sum = total[j];
    double top = best[j];
    std::size_t at = best_at[j];
    for (std::size_t s = begin; s < end; ++s) {
      double g = plm.GainD2(Dist2(Vec2{xs[s], ys[s]}, u));
      if (plm.shadowed()) g *= plm.Factor(ids[s], lids[j]);
      sum += g;
      if (g > top) {
        top = g;
        at = s;
      }
    }
    total[j] = sum;
    best[j] = top;
    best_at[j] = at;
  }
}

void AddTileBoundsPortable(const PathLossModel& plm, const CloseTile* tiles,
                           std::size_t n_tiles, double near_sq,
                           const double* lx, const double* ly, unsigned mask,
                           double* bound_lo, double* gain_ub,
                           std::uint8_t* near) {
  mask &= (1u << kGainLanes) - 1;
  for (std::size_t c = 0; c < n_tiles; ++c) {
    const Box& box = tiles[c].box;
    unsigned near_lanes = 0;
    for (unsigned rest = mask; rest != 0; rest &= rest - 1) {
      const auto j = static_cast<std::size_t>(std::countr_zero(rest));
      const Vec2 p{lx[j], ly[j]};
      const double d2_lo = SpatialGrid::DistLoSq(p, box);
      if (d2_lo <= near_sq) {
        near_lanes |= 1u << j;
        continue;
      }
      bound_lo[j] +=
          tiles[c].count * plm.MinGainD2(SpatialGrid::DistHiSq(p, box));
      gain_ub[j] = std::max(gain_ub[j], plm.MaxGainD2(d2_lo));
    }
    near[c] = static_cast<std::uint8_t>(near_lanes);
  }
}

#ifdef DCC_X86_DISPATCH
// gcc contracts a * b + c into an FMA wherever the target has one, as
// avx512f does, even across intrinsics; that would change the bits of
// dx * dx + dy * dy. (clang contracts only within one source expression,
// which the intrinsics below never form.)
#if defined(__clang__)
#define DCC_NO_FMA_CONTRACTION
#else
#define DCC_NO_FMA_CONTRACTION __attribute__((optimize("fp-contract=off")))
#endif

#define DCC_AVX512 __attribute__((target("avx512f"))) DCC_NO_FMA_CONTRACTION

namespace {

// PathLossModel::GainD2 at alpha = 3 on eight lanes: the clamp as a compare
// and blend (a max would turn NaN into the clamp), then p / (d2 * sqrt(d2)).
DCC_AVX512 inline __m512d GainD2Alpha3(__m512d p, __m512d d2) {
  const __m512d vmin = _mm512_set1_pd(PathLossModel::kMinDistanceSq);
  d2 = _mm512_mask_mov_pd(d2, _mm512_cmp_pd_mask(d2, vmin, _CMP_LT_OQ), vmin);
  // The all-lanes maskz form runs the same instruction as the plain one,
  // whose header merges into an undefined vector that gcc flags with
  // -Wmaybe-uninitialized.
  return _mm512_div_pd(p, _mm512_mul_pd(d2, _mm512_maskz_sqrt_pd(0xFF, d2)));
}

// std::max(a, b), which keeps a unless a < b.
DCC_AVX512 inline __m512d Max(__m512d a, __m512d b) {
  return _mm512_mask_mov_pd(a, _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ), b);
}

// SpatialGrid's per-axis terms of DistLoSq and DistHiSq before squaring:
// the gap from x to [lo, hi] and the largest |x - q| over q in it.
DCC_AVX512 inline __m512d AxisGap(__m512d x, __m512d lo, __m512d hi) {
  __m512d g = _mm512_maskz_sub_pd(_mm512_cmp_pd_mask(x, hi, _CMP_GT_OQ), x, hi);
  return _mm512_mask_sub_pd(g, _mm512_cmp_pd_mask(x, lo, _CMP_LT_OQ), lo, x);
}
DCC_AVX512 inline __m512d AxisFar(__m512d x, __m512d lo, __m512d hi) {
  return Max(_mm512_abs_pd(_mm512_sub_pd(x, lo)),
             _mm512_abs_pd(_mm512_sub_pd(x, hi)));
}

}  // namespace

DCC_AVX512 void AddGainsAvx512(const PathLossModel& plm, const double* xs,
                               const double* ys, const NodeId* /*ids*/,
                               std::size_t begin, std::size_t end,
                               const double* lx, const double* ly,
                               const NodeId* /*lids*/, unsigned mask,
                               double* total, double* best,
                               std::size_t* best_at) {
  static_assert(kGainLanes == 8, "one zmm register holds the lanes");
  const auto on = static_cast<__mmask8>(mask);
  const __m512d vlx = _mm512_loadu_pd(lx);
  const __m512d vly = _mm512_loadu_pd(ly);
  const __m512d vp = _mm512_set1_pd(plm.power());
  __m512d vtotal = _mm512_loadu_pd(total);
  __m512d vbest = _mm512_loadu_pd(best);
  __m512i vat = _mm512_loadu_si512(best_at);
  for (std::size_t s = begin; s < end; ++s) {
    const __m512d dx = _mm512_sub_pd(_mm512_set1_pd(xs[s]), vlx);
    const __m512d dy = _mm512_sub_pd(_mm512_set1_pd(ys[s]), vly);
    const __m512d g = GainD2Alpha3(
        vp, _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)));
    vtotal = _mm512_mask_add_pd(vtotal, on, vtotal, g);
    const __mmask8 upd = _mm512_mask_cmp_pd_mask(on, g, vbest, _CMP_GT_OQ);
    vbest = _mm512_mask_mov_pd(vbest, upd, g);
    vat = _mm512_mask_mov_epi64(vat, upd,
                                _mm512_set1_epi64(static_cast<long long>(s)));
  }
  _mm512_storeu_pd(total, vtotal);
  _mm512_storeu_pd(best, vbest);
  _mm512_storeu_si512(best_at, vat);
}

// gain_ub takes one GainD2, of each lane's nearest mid tile: GainD2 at
// alpha = 3 is a composition of correctly rounded monotone operations, so
// it is non-increasing in d2, and the loop's running std::max over its mid
// tiles ends on that gain's bits. (A NaN d2_lo, whose gain the running
// max would skip, is never the nearest.)
DCC_AVX512 void AddTileBoundsAvx512(const PathLossModel& plm,
                                    const CloseTile* tiles,
                                    std::size_t n_tiles, double near_sq,
                                    const double* lx, const double* ly,
                                    unsigned mask, double* bound_lo,
                                    double* gain_ub, std::uint8_t* near) {
  const auto on = static_cast<__mmask8>(mask);
  const __m512d vlx = _mm512_loadu_pd(lx);
  const __m512d vly = _mm512_loadu_pd(ly);
  const __m512d vnear = _mm512_set1_pd(near_sq);
  const __m512d vp = _mm512_set1_pd(plm.power());
  __m512d vbound = _mm512_loadu_pd(bound_lo);
  __m512d vnearest = _mm512_set1_pd(std::numeric_limits<double>::infinity());
  __mmask8 has_mid = 0;  // the lanes with a nearest mid tile
  for (std::size_t c = 0; c < n_tiles; ++c) {
    const Box& box = tiles[c].box;
    const __m512d lo_x = _mm512_set1_pd(box.lo.x);
    const __m512d lo_y = _mm512_set1_pd(box.lo.y);
    const __m512d hi_x = _mm512_set1_pd(box.hi.x);
    const __m512d hi_y = _mm512_set1_pd(box.hi.y);
    const __m512d gx = AxisGap(vlx, lo_x, hi_x);
    const __m512d gy = AxisGap(vly, lo_y, hi_y);
    const __m512d d2_lo =
        _mm512_add_pd(_mm512_mul_pd(gx, gx), _mm512_mul_pd(gy, gy));
    const __mmask8 near_lanes =
        _mm512_mask_cmp_pd_mask(on, d2_lo, vnear, _CMP_LE_OQ);
    near[c] = static_cast<std::uint8_t>(near_lanes);
    const auto mid = static_cast<__mmask8>(on & ~near_lanes);
    if (mid == 0) continue;
    const __m512d fx = AxisFar(vlx, lo_x, hi_x);
    const __m512d fy = AxisFar(vly, lo_y, hi_y);
    const __m512d d2_hi =
        _mm512_add_pd(_mm512_mul_pd(fx, fx), _mm512_mul_pd(fy, fy));
    vbound = _mm512_mask_add_pd(
        vbound, mid, vbound,
        _mm512_mul_pd(_mm512_set1_pd(tiles[c].count), GainD2Alpha3(vp, d2_hi)));
    const __mmask8 nearer =
        _mm512_mask_cmp_pd_mask(mid, d2_lo, vnearest, _CMP_LE_OQ);
    vnearest = _mm512_mask_mov_pd(vnearest, nearer, d2_lo);
    has_mid |= nearer;
  }
  _mm512_storeu_pd(bound_lo, vbound);
  if (has_mid != 0) {
    const __m512d vub = _mm512_loadu_pd(gain_ub);
    _mm512_storeu_pd(gain_ub,
                     _mm512_mask_mov_pd(vub, has_mid,
                                        Max(vub, GainD2Alpha3(vp, vnearest))));
  }
}
#endif  // DCC_X86_DISPATCH

}  // namespace dcc::sinr::kernel
