#include "dcc/sinr/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <typeinfo>

#include "dcc/common/parse.h"
#include "dcc/obs/metrics.h"
#include "dcc/obs/trace.h"
#include "dcc/parallel/worker_pool.h"

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define DCC_X86_DISPATCH 1
#endif

namespace dcc::sinr {

namespace {

// Pruning decisions are made from conservative bounds computed in floating
// point; this margin routes near-threshold listeners to the exact fallback
// instead of trusting the last few ulps of the bound arithmetic.
constexpr double kPruneSlack = 1e-9;

// The batched AVX-512 fallback kernel is ~2 ulp off the correctly-rounded
// scalar path (and hardware rsqrt seeds differ between vendors), so any
// fallback SINR within this relative distance of beta is re-resolved with
// the scalar libm kernel: the reception *set* is then host-invariant even
// though far-from-threshold SINR values may differ in their last bits.
constexpr double kThresholdRecheck = 1e-12;

// Fallback listeners are resolved in chunks of this many per far-field
// sweep: the lanes are independent accumulators, so the sweep vectorizes
// without any floating-point reassociation (one zmm/ymm lane group per
// transmitter) and each transmitter load is amortized across the chunk.
constexpr std::size_t kChunk = 8;

// target_clones emits an ifunc whose resolver runs during relocation,
// before sanitizer runtimes initialize — under ThreadSanitizer that is a
// load-time crash, so sanitized builds take the plain (still vectorizable)
// definition.
#if defined(DCC_X86_DISPATCH) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define DCC_TARGET_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define DCC_TARGET_CLONES
#endif

// Sweeps the far-field transmitter ranges for one chunk of listeners under
// the alpha = 3 path-loss kernel; AVX-512 hosts run FarSweepAlpha3Avx512
// instead. div and sqrt vectorize to their packed forms, which are
// correctly rounded, and neither clone's target has FMA to contract
// dx * dx + dy * dy, so results are bit-identical across the clones.
DCC_TARGET_CLONES
void FarSweepAlpha3(const double* __restrict xs, const double* __restrict ys,
                    const std::pair<std::size_t, std::size_t>* ranges,
                    std::size_t n_ranges, double p, const double* __restrict lx,
                    const double* __restrict ly, double* __restrict total,
                    double* __restrict best,
                    std::size_t* __restrict best_slot) {
  for (std::size_t r = 0; r < n_ranges; ++r) {
    for (std::size_t s = ranges[r].first; s < ranges[r].second; ++s) {
      const double vx = xs[s];
      const double vy = ys[s];
      for (std::size_t j = 0; j < kChunk; ++j) {
        const double dx = vx - lx[j];
        const double dy = vy - ly[j];
        double d2 = dx * dx + dy * dy;
        d2 = d2 < PathLossModel::kMinDistanceSq ? PathLossModel::kMinDistanceSq
                                                : d2;
        const double g = p / (d2 * std::sqrt(d2));
        total[j] += g;
        const bool upd = g > best[j];
        best[j] = upd ? g : best[j];
        best_slot[j] = upd ? s : best_slot[j];
      }
    }
  }
}

#ifdef DCC_X86_DISPATCH
// AVX-512 variant of the sweep above: d2^{-3/2} from vrsqrt14pd refined by
// two Newton steps — a pure multiply/FMA pipeline with no divider pressure.
// Error after refinement is ~1.5 * (5e-9)^2, i.e. below double epsilon, so
// gains agree with the scalar kernel to ~2 ulp (well inside the engine's
// documented 1e-9 SINR tolerance and the pruning slack).
__attribute__((target("avx512f"))) void FarSweepAlpha3Avx512(
    const double* xs, const double* ys,
    const std::pair<std::size_t, std::size_t>* ranges, std::size_t n_ranges,
    double p, const double* lx, const double* ly, double* total, double* best,
    std::size_t* best_slot) {
  static_assert(kChunk == 8, "one zmm register holds the listener chunk");
  const __m512d vlx = _mm512_loadu_pd(lx);
  const __m512d vly = _mm512_loadu_pd(ly);
  const __m512d vmin = _mm512_set1_pd(PathLossModel::kMinDistanceSq);
  const __m512d vp = _mm512_set1_pd(p);
  const __m512d vhalf = _mm512_set1_pd(0.5);
  const __m512d v3half = _mm512_set1_pd(1.5);
  __m512d vtotal = _mm512_loadu_pd(total);
  __m512d vbest = _mm512_loadu_pd(best);
  __m512i vslot = _mm512_loadu_si512(best_slot);
  for (std::size_t r = 0; r < n_ranges; ++r) {
    for (std::size_t s = ranges[r].first; s < ranges[r].second; ++s) {
      const __m512d dx = _mm512_sub_pd(_mm512_set1_pd(xs[s]), vlx);
      const __m512d dy = _mm512_sub_pd(_mm512_set1_pd(ys[s]), vly);
      const __m512d d2 = _mm512_max_pd(
          _mm512_fmadd_pd(dx, dx, _mm512_mul_pd(dy, dy)), vmin);
      __m512d h = _mm512_rsqrt14_pd(d2);
      // Two Newton refinements: h <- h * (1.5 - 0.5 * d2 * h * h).
      __m512d hh = _mm512_mul_pd(h, h);
      h = _mm512_mul_pd(
          h, _mm512_fnmadd_pd(_mm512_mul_pd(vhalf, d2), hh, v3half));
      hh = _mm512_mul_pd(h, h);
      h = _mm512_mul_pd(
          h, _mm512_fnmadd_pd(_mm512_mul_pd(vhalf, d2), hh, v3half));
      // g = p * h^3 = p / d2^{3/2}.
      const __m512d g =
          _mm512_mul_pd(_mm512_mul_pd(vp, h), _mm512_mul_pd(h, h));
      vtotal = _mm512_add_pd(vtotal, g);
      const __mmask8 upd = _mm512_cmp_pd_mask(g, vbest, _CMP_GT_OQ);
      vbest = _mm512_mask_mov_pd(vbest, upd, g);
      vslot = _mm512_mask_mov_epi64(
          vslot, upd, _mm512_set1_epi64(static_cast<long long>(s)));
    }
  }
  _mm512_storeu_pd(total, vtotal);
  _mm512_storeu_pd(best, vbest);
  _mm512_storeu_si512(best_slot, vslot);
}
#endif  // DCC_X86_DISPATCH

bool HasAvx512() {
#ifdef DCC_X86_DISPATCH
  static const bool has = __builtin_cpu_supports("avx512f") != 0;
  return has;
#else
  return false;
#endif
}

double AutoCell(const Network& net, const std::optional<Box>& coverage) {
  const Box box = coverage ? *coverage : BoundingBox(net.positions());
  const double area = (box.hi.x - box.lo.x) * (box.hi.y - box.lo.y);
  if (net.size() == 0 || area <= 0.0) return 1.0;
  // Aim for ~64 nodes per tile under uniform density, with tiles no smaller
  // than the transmission range scale.
  return std::max(1.0,
                  std::sqrt(64.0 * area / static_cast<double>(net.size())));
}

}  // namespace

Engine::Options Engine::Options::FromEnv() {
  Options opts;
  if (const char* mode = std::getenv("DCC_ENGINE_MODE")) {
    const std::string m(mode);
    if (m == "exact") {
      opts.mode = Mode::kExact;
    } else if (m == "grid") {
      opts.mode = Mode::kGrid;
    } else if (m != "auto" && !m.empty()) {
      throw InvalidArgument("DCC_ENGINE_MODE: unknown mode '" + m +
                            "' (expected exact, grid or auto)");
    }
  }
  if (const char* cell = std::getenv("DCC_ENGINE_CELL");
      cell && *cell != '\0') {
    const double v = ParseDouble(cell, "DCC_ENGINE_CELL");
    if (!(v > 0.0)) {
      throw InvalidArgument("DCC_ENGINE_CELL: tile side '" +
                            std::string(cell) + "' must be positive");
    }
    opts.cell = v;
  }
  if (const char* threads = std::getenv("DCC_ENGINE_THREADS");
      threads && *threads != '\0') {
    const std::int64_t v = ParseInt64(threads, "DCC_ENGINE_THREADS");
    if (v < 0 || v > 4096) {
      throw InvalidArgument("DCC_ENGINE_THREADS: shard count '" +
                            std::string(threads) +
                            "' must be in [0, 4096] (0 = hardware)");
    }
    opts.threads = static_cast<int>(v);
  }
  if (const char* grain = std::getenv("DCC_ENGINE_MIN_SHARD");
      grain && *grain != '\0') {
    const std::int64_t v = ParseInt64(grain, "DCC_ENGINE_MIN_SHARD");
    if (v < 1 || v > 1048576) {
      throw InvalidArgument("DCC_ENGINE_MIN_SHARD: listener grain '" +
                            std::string(grain) +
                            "' must be in [1, 1048576]");
    }
    opts.min_listeners_per_shard = static_cast<std::size_t>(v);
  }
  return opts;
}

Engine::Engine(const Network& net, Options options)
    : net_(&net), options_(options) {
  switch (options_.mode) {
    case Mode::kExact:
      mode_ = Mode::kExact;
      break;
    case Mode::kGrid:
      mode_ = Mode::kGrid;
      break;
    case Mode::kAuto:
      mode_ = net.size() > options_.grid_threshold ? Mode::kGrid : Mode::kExact;
      break;
  }
  DCC_REQUIRE(options_.threads >= 0, "Engine: threads must be >= 0");
  DCC_REQUIRE(options_.min_listeners_per_shard >= 1,
              "Engine: min_listeners_per_shard must be >= 1");
  parallel::WorkerPool& pool =
      options_.pool ? *options_.pool : parallel::WorkerPool::Shared();
  threads_ = options_.threads == 0 ? pool.parallelism() : options_.threads;
  if (threads_ > 1) pool_ = &pool;
  if (mode_ == Mode::kGrid) {
    const double cell =
        options_.cell > 0.0 ? options_.cell : AutoCell(net, options_.coverage);
    if (options_.coverage) {
      grid_.emplace(std::span<const Vec2>(net.positions()), cell,
                    *options_.coverage);
    } else {
      grid_.emplace(std::span<const Vec2>(net.positions()), cell);
    }
    near_radius_ = std::max(cell, 2.0);
    far_start_ = 2.0 * near_radius_;
    if (typeid(net.propagation()) == typeid(PathLossModel)) {
      pure_path_loss_ = static_cast<const PathLossModel*>(&net.propagation());
    }
  }
  prologue_.is_tx.assign(net.size(), 0);
  if (grid_) {
    prologue_.tx_start.assign(
        static_cast<std::size_t>(grid_->tile_count()) + 1, 0);
    pyramid_.Reset(*grid_);
  }
  EnsureScratch(1);
}

void Engine::EnsureScratch(int shards) const {
  if (static_cast<int>(scratch_.size()) >= shards) return;
  scratch_.resize(static_cast<std::size_t>(shards));
}

void Engine::SyncIndex() {
  if (!grid_) return;
  const auto& pos = net_->positions();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    if (grid_->Contains(i)) grid_->Move(i, pos[i]);
  }
}

void Engine::IndexErase(std::size_t i) {
  if (!grid_) return;
  grid_->Erase(i);
}

void Engine::IndexInsert(std::size_t i) {
  if (!grid_) return;
  grid_->Insert(i, net_->position(i));
}

std::vector<Reception> Engine::Step(
    const std::vector<std::size_t>& transmitters,
    const std::vector<std::size_t>& listeners) const {
  std::vector<Reception> out;
  StepInto(transmitters, listeners, out);
  return out;
}

void Engine::StepInto(std::span<const std::size_t> transmitters,
                      std::span<const std::size_t> listeners,
                      std::vector<Reception>& out) const {
  DCC_TRACE_SPAN("engine.round");
  static obs::Counter& rounds_metric = obs::MetricsRegistry::Global().GetCounter(
      "dcc_engine_rounds_total", "SINR rounds stepped");
  static obs::Counter& receptions_metric =
      obs::MetricsRegistry::Global().GetCounter(
          "dcc_engine_receptions_total", "Receptions resolved across rounds");
  rounds_metric.Add(1);
  ++stats_.rounds;
  stats_.transmissions += static_cast<std::int64_t>(transmitters.size());
  out.clear();
  if (transmitters.empty() || listeners.empty()) return;
  const int shards = ShardsFor(listeners.size());
  if (mode_ == Mode::kGrid) {
    StepGrid(transmitters, listeners, shards, out);
  } else {
    StepExact(transmitters, listeners, shards, out);
  }
  stats_.receptions += static_cast<std::int64_t>(out.size());
  receptions_metric.Add(static_cast<std::int64_t>(out.size()));
}

int Engine::ShardsFor(std::size_t n_listen) const {
  if (threads_ <= 1) return 1;
  if (n_listen <
      options_.min_listeners_per_shard * static_cast<std::size_t>(threads_)) {
    ++stats_.parallel_small_rounds;
    return 1;
  }
  return threads_;
}

void Engine::BuildPrologue(std::span<const std::size_t> tx,
                           std::span<const std::size_t> listeners,
                           bool sharded) const {
  DCC_TRACE_SPAN("engine.prologue");
  RoundPrologue& P = prologue_;
  const Network& net = *net_;
  const SpatialGrid& grid = *grid_;
  const auto tiles = static_cast<std::size_t>(grid.tile_count());

  // Counting sort into the CSR scratch; O(tiles + |T|).
  if (P.tx_start.size() != tiles + 1) {
    P.tx_start.assign(tiles + 1, 0);
  } else {
    std::fill(P.tx_start.begin(), P.tx_start.end(), 0);
  }
  if (P.is_tx.size() < net.size()) P.is_tx.resize(net.size(), 0);
  for (const std::size_t v : tx) {
    P.is_tx[v] = 1;
    ++P.tx_start[static_cast<std::size_t>(grid.TileOfPoint(v)) + 1];
  }
  P.occupied_tx.clear();
  for (std::size_t t = 0; t + 1 < P.tx_start.size(); ++t) {
    if (P.tx_start[t + 1] > 0) P.occupied_tx.push_back(static_cast<int>(t));
    P.tx_start[t + 1] += P.tx_start[t];
  }
  P.tx_members.resize(tx.size());
  P.tx_sx.resize(tx.size());
  P.tx_sy.resize(tx.size());
  P.tx_fill.assign(P.tx_start.begin(), P.tx_start.end() - 1);
  for (const std::size_t v : tx) {
    const std::size_t slot =
        P.tx_fill[static_cast<std::size_t>(grid.TileOfPoint(v))]++;
    P.tx_members[slot] = v;
    const Vec2 p = net.position(v);
    P.tx_sx[slot] = p.x;
    P.tx_sy[slot] = p.y;
  }

  if (sharded) {
    // Stable counting sort of the listener ordinals by tile; O(tiles + n).
    P.order_fill.assign(tiles + 1, 0);
    for (const std::size_t u : listeners) {
      ++P.order_fill[static_cast<std::size_t>(grid.TileOfPoint(u)) + 1];
    }
    for (std::size_t t = 1; t < P.order_fill.size(); ++t) {
      P.order_fill[t] += P.order_fill[t - 1];
    }
    P.order.resize(listeners.size());
    for (std::size_t ord = 0; ord < listeners.size(); ++ord) {
      P.order[P.order_fill[static_cast<std::size_t>(
          grid.TileOfPoint(listeners[ord]))]++] =
          static_cast<std::uint32_t>(ord);
    }
  }

  BuildTileState(listeners);
}

void Engine::BuildTileState(std::span<const std::size_t> listeners) const {
  DCC_TRACE_SPAN("engine.farfield");
  RoundPrologue& P = prologue_;
  const Network& net = *net_;
  const PropagationModel& model = net.propagation();
  const SpatialGrid& grid = *grid_;
  const auto tiles = static_cast<std::size_t>(grid.tile_count());

  // The distinct listener tiles this round resolves, ascending.
  if (P.lt_mark.size() != tiles) P.lt_mark.assign(tiles, 0);
  P.lt_tiles.clear();
  for (const std::size_t u : listeners) {
    const auto t = static_cast<std::size_t>(grid.TileOfPoint(u));
    if (!P.lt_mark[t]) {
      P.lt_mark[t] = 1;
      P.lt_tiles.push_back(static_cast<int>(t));
    }
  }
  std::sort(P.lt_tiles.begin(), P.lt_tiles.end());
  for (const int t : P.lt_tiles) P.lt_mark[static_cast<std::size_t>(t)] = 0;

  if (P.tile_far_lo.size() != tiles) {
    P.tile_far_lo.assign(tiles, 0.0);
    P.tile_far_ub.assign(tiles, 0.0);
    P.tile_close_begin.assign(tiles, 0);
    P.tile_close_end.assign(tiles, 0);
  }
  P.close_pool.clear();

  // Envelope bounds as a function of squared distance, devirtualized for
  // the pure path-loss model (same kernels StepGridRange uses).
  const auto min_gain_d2 = [&](double d2_hi) {
    return pure_path_loss_ != nullptr ? pure_path_loss_->GainD2(d2_hi)
                                      : model.MinGain(std::sqrt(d2_hi));
  };
  const auto max_gain_d2 = [&](double d2_lo) {
    return pure_path_loss_ != nullptr ? pure_path_loss_->GainD2(d2_lo)
                                      : model.MaxGain(std::sqrt(d2_lo));
  };
  const double far_sq = far_start_ * far_start_;

  if (P.occupied_tx.size() >= options_.pyramid_min_occupied) {
    pyramid_.Rebuild(P.occupied_tx, [&](int b) {
      return P.tx_start[static_cast<std::size_t>(b) + 1] -
             P.tx_start[static_cast<std::size_t>(b)];
    });
    for (const int t : P.lt_tiles) {
      const auto tile = static_cast<std::size_t>(t);
      double far_lo = 0.0, far_ub = 0.0;
      P.tile_close_begin[tile] = static_cast<std::uint32_t>(P.close_pool.size());
      pyramid_.Accumulate(grid, t, far_sq, min_gain_d2, max_gain_d2,
                          P.close_pool, far_lo, far_ub);
      P.tile_close_end[tile] = static_cast<std::uint32_t>(P.close_pool.size());
      P.tile_far_lo[tile] = far_lo;
      P.tile_far_ub[tile] = far_ub;
    }
  } else {
    // The flat walk: occupied tiles ascending, which fixes the far_lo
    // summation order and the close-list order.
    for (const int t : P.lt_tiles) {
      const auto tile = static_cast<std::size_t>(t);
      double far_lo = 0.0, far_ub = 0.0;
      P.tile_close_begin[tile] = static_cast<std::uint32_t>(P.close_pool.size());
      for (const int b : P.occupied_tx) {
        const double d2_lo = grid.TileDistLoSq(t, b);
        if (d2_lo > far_sq) {
          const auto cnt = static_cast<double>(
              P.tx_start[static_cast<std::size_t>(b) + 1] -
              P.tx_start[static_cast<std::size_t>(b)]);
          far_lo += cnt * min_gain_d2(grid.TileDistHiSq(t, b));
          far_ub = std::max(far_ub, max_gain_d2(d2_lo));
        } else {
          P.close_pool.push_back(b);
        }
      }
      P.tile_close_end[tile] = static_cast<std::uint32_t>(P.close_pool.size());
      P.tile_far_lo[tile] = far_lo;
      P.tile_far_ub[tile] = far_ub;
    }
  }
}

std::optional<Reception> Engine::ResolveExact(
    std::size_t u, std::span<const std::size_t> transmitters) const {
  const Network& net = *net_;
  double total = 0.0;
  double best = -1.0;
  std::size_t best_tx = 0;
  for (const std::size_t v : transmitters) {
    DCC_CHECK(v != u);  // a transmitter cannot listen
    const double g = net.Gain(v, u);
    total += g;
    if (g > best) {
      best = g;
      best_tx = v;
    }
  }
  const double interference = total - best;
  const double sinr = best / (net.params().noise + interference);
  if (sinr >= net.params().beta) {
    return Reception{u, best_tx, sinr};
  }
  return std::nullopt;
}

template <typename Resolve>
void Engine::RunShards(int shards, std::size_t n_listen, const Resolve& resolve,
                       std::vector<Reception>& out) const {
  EnsureScratch(shards);
  ++stats_.parallel_rounds;
  const auto k_shards = static_cast<std::size_t>(shards);
  pool_->Run(k_shards, [&](std::size_t k) {
    resolve(n_listen * k / k_shards, n_listen * (k + 1) / k_shards,
            scratch_[k]);
  });
  MergeShards(shards, out);
}

void Engine::StepExact(std::span<const std::size_t> transmitters,
                       std::span<const std::size_t> listeners, int shards,
                       std::vector<Reception>& out) const {
  if (shards == 1) {
    for (const std::size_t u : listeners) {
      if (auto r = ResolveExact(u, transmitters)) out.push_back(*r);
    }
    return;
  }
  RunShards(
      shards, listeners.size(),
      [&](std::size_t lo, std::size_t hi, RoundScratch& s) {
        s.pending.clear();
        for (std::size_t ord = lo; ord < hi; ++ord) {
          if (auto r = ResolveExact(listeners[ord], transmitters)) {
            s.pending.emplace_back(static_cast<std::uint32_t>(ord), *r);
          }
        }
      },
      out);
}

void Engine::ResolveFallbacksBlocked(
    const RoundPrologue& P, std::span<const std::size_t> transmitters,
    RoundScratch& s) const {
  const Network& net = *net_;
  const PathLossModel& plm = *pure_path_loss_;
  const double beta = net.params().beta;
  const double noise = net.params().noise;

  // Group the deferred listeners by tile so each group shares one far-range
  // scan; ordinals restore the caller's listener order at the end (the
  // caller sorts s.pending).
  std::sort(s.fallback.begin(), s.fallback.end(),
            [](const GridFallback& a, const GridFallback& b) {
              return a.tile != b.tile ? a.tile < b.tile
                                      : a.ordinal < b.ordinal;
            });

  for (std::size_t i = 0; i < s.fallback.size();) {
    const std::uint32_t tile = s.fallback[i].tile;
    std::size_t group_end = i;
    while (group_end < s.fallback.size() &&
           s.fallback[group_end].tile == tile) {
      ++group_end;
    }

    // The tile's far transmitter ranges: occupied tiles minus the close
    // list (both ascending), with adjacent CSR ranges coalesced.
    s.far_ranges.clear();
    {
      std::uint32_t c = P.tile_close_begin[tile];
      const std::uint32_t c_end = P.tile_close_end[tile];
      for (const int b : P.occupied_tx) {
        if (c < c_end && P.close_pool[c] == b) {
          ++c;
          continue;
        }
        const std::size_t mb = P.tx_start[static_cast<std::size_t>(b)];
        const std::size_t me = P.tx_start[static_cast<std::size_t>(b) + 1];
        if (!s.far_ranges.empty() && s.far_ranges.back().second == mb) {
          s.far_ranges.back().second = me;
        } else {
          s.far_ranges.emplace_back(mb, me);
        }
      }
    }

    for (std::size_t c0 = i; c0 < group_end; c0 += kChunk) {
      const std::size_t m = std::min(kChunk, group_end - c0);
      alignas(64) double lx[kChunk], ly[kChunk], total[kChunk],
          far_best[kChunk];
      alignas(64) std::size_t far_best_v[kChunk] = {};
      for (std::size_t j = 0; j < kChunk; ++j) {
        // Pad short chunks with lane 0; padded lanes are never emitted.
        const GridFallback& r = s.fallback[c0 + (j < m ? j : 0)];
        const Vec2 p = net.position(r.u);
        lx[j] = p.x;
        ly[j] = p.y;
        total[j] = 0.0;
        far_best[j] = -1.0;
      }
      if (plm.alpha_is_three()) {
#ifdef DCC_X86_DISPATCH
        if (HasAvx512()) {
          FarSweepAlpha3Avx512(P.tx_sx.data(), P.tx_sy.data(),
                               s.far_ranges.data(), s.far_ranges.size(),
                               plm.power(), lx, ly, total, far_best,
                               far_best_v);
        } else {
          FarSweepAlpha3(P.tx_sx.data(), P.tx_sy.data(), s.far_ranges.data(),
                         s.far_ranges.size(), plm.power(), lx, ly, total,
                         far_best, far_best_v);
        }
#else
        FarSweepAlpha3(P.tx_sx.data(), P.tx_sy.data(), s.far_ranges.data(),
                       s.far_ranges.size(), plm.power(), lx, ly, total,
                       far_best, far_best_v);
#endif
      } else {
        for (const auto& [mb, me] : s.far_ranges) {
          for (std::size_t t = mb; t < me; ++t) {
            const double vx = P.tx_sx[t];
            const double vy = P.tx_sy[t];
            for (std::size_t j = 0; j < kChunk; ++j) {
              const double dx = vx - lx[j];
              const double dy = vy - ly[j];
              const double g = plm.GainD2(dx * dx + dy * dy);
              total[j] += g;
              if (g > far_best[j]) {
                far_best[j] = g;
                far_best_v[j] = t;
              }
            }
          }
        }
      }
      for (std::size_t j = 0; j < m; ++j) {
        const GridFallback& r = s.fallback[c0 + j];
        const double all = r.close_sum + total[j];
        double best = r.close_best;
        std::size_t best_v = r.close_best_v;
        if (far_best[j] > best) {
          best = far_best[j];
          best_v = P.tx_members[far_best_v[j]];
        }
        const double sinr = best / (noise + all - best);
        if (std::abs(sinr - beta) <= beta * kThresholdRecheck) {
          // Too close to beta to trust the vectorized kernel's last ulps
          // (see kThresholdRecheck): re-resolve with the scalar kernel.
          if (auto rec = ResolveExact(r.u, transmitters)) {
            s.pending.emplace_back(r.ordinal, *rec);
          }
        } else if (sinr >= beta) {
          s.pending.emplace_back(r.ordinal, Reception{r.u, best_v, sinr});
        }
      }
    }
    i = group_end;
  }
}

void Engine::StepGridRange(const RoundPrologue& P,
                           std::span<const std::size_t> transmitters,
                           std::span<const std::size_t> listeners,
                           bool all_listeners,
                           std::span<const std::uint32_t> ordinals,
                           RoundScratch& s) const {
  DCC_TRACE_SPAN("engine.shard");
  const Network& net = *net_;
  const PropagationModel& model = net.propagation();
  const SpatialGrid& grid = *grid_;
  const double beta = net.params().beta;
  const double noise = net.params().noise;

  s.fallback.clear();
  s.pending.clear();
  s.pruned = 0;
  s.exact_fallbacks = 0;

  // Envelope bounds as a function of squared distance, devirtualized for
  // the pure path-loss model (no per-link structure, so the envelope IS the
  // gain kernel).
  const auto min_gain_d2 = [&](double d2_hi) {
    return pure_path_loss_ != nullptr ? pure_path_loss_->GainD2(d2_hi)
                                      : model.MinGain(std::sqrt(d2_hi));
  };
  const auto max_gain_d2 = [&](double d2_lo) {
    return pure_path_loss_ != nullptr ? pure_path_loss_->GainD2(d2_lo)
                                      : model.MaxGain(std::sqrt(d2_lo));
  };
  const double near_sq = near_radius_ * near_radius_;

  const std::size_t count = all_listeners ? listeners.size()
                                          : ordinals.size();
  for (std::size_t k = 0; k < count; ++k) {
    const auto ordinal = all_listeners ? static_cast<std::uint32_t>(k)
                                       : ordinals[k];
    const std::size_t u = listeners[ordinal];
    DCC_CHECK(!P.is_tx[u]);  // a transmitter cannot listen
    const Vec2 pu = net.position(u);
    const auto tile_u = static_cast<std::size_t>(grid.TileOfPoint(u));

    const auto gain_at = [&](std::size_t v) {
      if (pure_path_loss_ != nullptr) {
        return pure_path_loss_->GainD2(Dist2(net.position(v), pu));
      }
      return net.Gain(v, u);
    };

    // Stage 1 — near tiles: exact member scan; mid tiles: envelope bounds.
    double close_sum = 0.0;
    double best = -1.0;
    std::size_t best_v = 0;
    double bound_lo = P.tile_far_lo[tile_u];
    double gain_ub = P.tile_far_ub[tile_u];
    const std::uint32_t close_begin = P.tile_close_begin[tile_u];
    const std::uint32_t close_end = P.tile_close_end[tile_u];
    for (std::uint32_t c = close_begin; c < close_end; ++c) {
      const int b = P.close_pool[c];
      const double d2_lo = grid.DistLoSq(pu, b);
      const std::size_t mb = P.tx_start[static_cast<std::size_t>(b)];
      const std::size_t me = P.tx_start[static_cast<std::size_t>(b) + 1];
      if (d2_lo <= near_sq) {
        for (std::size_t t = mb; t < me; ++t) {
          const double g = gain_at(P.tx_members[t]);
          close_sum += g;
          if (g > best) {
            best = g;
            best_v = P.tx_members[t];
          }
        }
      } else {
        bound_lo +=
            static_cast<double>(me - mb) * min_gain_d2(grid.DistHiSq(pu, b));
        gain_ub = std::max(gain_ub, max_gain_d2(d2_lo));
      }
    }

    // Best-case SINR: the strongest any transmitter could be, against the
    // least interference this listener could see. If even that misses
    // beta, no reception is possible.
    const auto cannot_receive = [&](double best_ub, double interference_lo) {
      if (best_ub <= 0.0) return true;
      const double i_lo = std::max(0.0, interference_lo - best_ub);
      return (best_ub / (noise + i_lo)) * (1.0 + kPruneSlack) < beta;
    };
    if (cannot_receive(std::max(best, gain_ub), close_sum + bound_lo)) {
      ++s.pruned;
      continue;
    }

    // Stage 2 — scan the mid tiles exactly; only the shared far-field
    // bound remains an estimate.
    for (std::uint32_t c = close_begin; c < close_end; ++c) {
      const int b = P.close_pool[c];
      if (grid.DistLoSq(pu, b) <= near_sq) continue;  // already exact
      for (std::size_t t = P.tx_start[static_cast<std::size_t>(b)];
           t < P.tx_start[static_cast<std::size_t>(b) + 1]; ++t) {
        const double g = gain_at(P.tx_members[t]);
        close_sum += g;
        if (g > best) {
          best = g;
          best_v = P.tx_members[t];
        }
      }
    }
    if (cannot_receive(std::max(best, P.tile_far_ub[tile_u]),
                       close_sum + P.tile_far_lo[tile_u])) {
      ++s.pruned;
      continue;
    }

    // Stage 3 — a reception is genuinely possible: defer to the exact
    // fallback (batched for the pure path-loss model).
    ++s.exact_fallbacks;
    if (pure_path_loss_ != nullptr) {
      s.fallback.push_back(GridFallback{static_cast<std::uint32_t>(tile_u),
                                        ordinal, u, close_sum, best, best_v});
    } else if (auto r = ResolveExact(u, transmitters)) {
      s.pending.emplace_back(ordinal, *r);
    }
  }

  if (!s.fallback.empty()) {
    ResolveFallbacksBlocked(P, transmitters, s);
  }
  std::sort(s.pending.begin(), s.pending.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

void Engine::MergeShards(int shards, std::vector<Reception>& out) const {
  DCC_TRACE_SPAN("engine.merge");
  // Shard-ordered concatenation; ordinals are globally unique, so one sort
  // restores the exact serial (listener-order) output.
  merge_.clear();
  for (int k = 0; k < shards; ++k) {
    RoundScratch& s = scratch_[static_cast<std::size_t>(k)];
    merge_.insert(merge_.end(), s.pending.begin(), s.pending.end());
    stats_.grid_pruned += s.pruned;
    stats_.grid_exact_fallbacks += s.exact_fallbacks;
    s.pruned = 0;
    s.exact_fallbacks = 0;
  }
  std::sort(merge_.begin(), merge_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [ordinal, rec] : merge_) {
    out.push_back(rec);
  }
}

void Engine::StepGrid(std::span<const std::size_t> transmitters,
                      std::span<const std::size_t> listeners, int shards,
                      std::vector<Reception>& out) const {
  BuildPrologue(transmitters, listeners, shards > 1);
  const RoundPrologue& P = prologue_;
  stats_.tile_states_computed += static_cast<std::int64_t>(P.lt_tiles.size());

  if (shards == 1) {
    RoundScratch& s = scratch_[0];
    StepGridRange(P, transmitters, listeners, /*all_listeners=*/true, {}, s);
    stats_.grid_pruned += s.pruned;
    stats_.grid_exact_fallbacks += s.exact_fallbacks;
    s.pruned = 0;
    s.exact_fallbacks = 0;
    for (const auto& [ordinal, rec] : s.pending) {
      out.push_back(rec);
    }
  } else {
    RunShards(
        shards, listeners.size(),
        [&](std::size_t lo, std::size_t hi, RoundScratch& s) {
          StepGridRange(P, transmitters, listeners, /*all_listeners=*/false,
                        std::span(P.order).subspan(lo, hi - lo), s);
        },
        out);
  }

  for (const std::size_t v : transmitters) prologue_.is_tx[v] = 0;
}

double Engine::Sinr(std::size_t v, std::size_t u,
                    const std::vector<std::size_t>& transmitters) const {
  const Network& net = *net_;
  double interference = 0.0;
  bool v_transmits = false;
  for (const std::size_t w : transmitters) {
    if (w == v) {
      v_transmits = true;
      continue;
    }
    interference += net.Gain(w, u);
  }
  DCC_REQUIRE(v_transmits, "Sinr: v must be in the transmitter set");
  return net.Gain(v, u) / (net.params().noise + interference);
}

double Engine::InterferenceAt(
    std::size_t u, const std::vector<std::size_t>& transmitters) const {
  double total = 0.0;
  for (const std::size_t w : transmitters) {
    if (w != u) total += net_->Gain(w, u);
  }
  return total;
}

}  // namespace dcc::sinr
