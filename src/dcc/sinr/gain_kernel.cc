#include "dcc/sinr/gain_kernel.h"

#include <bit>

#include "dcc/common/geometry.h"

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

__attribute__((target("avx512f"))) DCC_NO_FMA_CONTRACTION void AddGainsAvx512(
    const PathLossModel& plm, const double* xs, const double* ys,
    const NodeId* /*ids*/, std::size_t begin, std::size_t end,
    const double* lx, const double* ly, const NodeId* /*lids*/, unsigned mask,
    double* total, double* best, std::size_t* best_at) {
  static_assert(kGainLanes == 8, "one zmm register holds the lanes");
  const auto on = static_cast<__mmask8>(mask);
  const __m512d vlx = _mm512_loadu_pd(lx);
  const __m512d vly = _mm512_loadu_pd(ly);
  const __m512d vmin = _mm512_set1_pd(PathLossModel::kMinDistanceSq);
  const __m512d vp = _mm512_set1_pd(plm.power());
  __m512d vtotal = _mm512_loadu_pd(total);
  __m512d vbest = _mm512_loadu_pd(best);
  __m512i vat = _mm512_loadu_si512(best_at);
  for (std::size_t s = begin; s < end; ++s) {
    const __m512d dx = _mm512_sub_pd(_mm512_set1_pd(xs[s]), vlx);
    const __m512d dy = _mm512_sub_pd(_mm512_set1_pd(ys[s]), vly);
    __m512d d2 = _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy));
    // GainD2's clamp as a compare and blend (a max would turn NaN into the
    // clamp).
    d2 = _mm512_mask_mov_pd(d2, _mm512_cmp_pd_mask(d2, vmin, _CMP_LT_OQ),
                            vmin);
    // The all-lanes maskz form runs the same instruction as the plain one,
    // whose header merges into an undefined vector that gcc flags with
    // -Wmaybe-uninitialized.
    const __m512d g = _mm512_div_pd(
        vp, _mm512_mul_pd(d2, _mm512_maskz_sqrt_pd(0xFF, d2)));
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
#endif  // DCC_X86_DISPATCH

}  // namespace dcc::sinr::kernel
