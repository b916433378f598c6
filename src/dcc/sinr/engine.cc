#include "dcc/sinr/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "dcc/common/rng.h"
#include "dcc/obs/metrics.h"
#include "dcc/obs/trace.h"
#include "dcc/parallel/worker_pool.h"
#include "dcc/sinr/gain_kernel.h"

#ifdef DCC_X86_DISPATCH
#include <immintrin.h>
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
// the exact kernel: the reception *set* is then host-invariant even though
// far-from-threshold SINR values may differ in their last bits.
constexpr double kThresholdRecheck = 1e-12;

// Relative margin between the gain at the reach radius and the reception
// threshold beta * noise (engine.h, "Reception reach"): orders of
// magnitude above the rounding of any gain, SINR or prune bound.
constexpr double kReachMargin = 1e-6;

// Memory cap of the reach CSR: max(64 n, 2^22) entries of 4 bytes. The
// floor keeps the reach at every density up to n = 2048 (at most n^2
// entries), where dense few-transmitter rounds skip the most listeners; a
// larger network denser than 64 nodes per reach gets no reach, and its
// rounds resolve every listener.
constexpr std::size_t kReachEntriesPerNode = 64;
constexpr std::size_t kMinReachEntries = std::size_t{1} << 22;

// Fallback listeners are resolved in chunks of kernel::kGainLanes per
// far-field sweep: the lanes are independent accumulators, so each
// transmitter load is amortized across the chunk.
constexpr std::size_t kChunk = kernel::kGainLanes;

// target_clones emits an ifunc whose resolver runs during relocation,
// before sanitizer runtimes initialize — under ThreadSanitizer that is a
// load-time crash, so sanitized builds take the plain (still vectorizable)
// definition. The exact kernel's loops multiply nothing, so the avx512f
// clone (which has FMA) cannot contract anything either: every clone
// computes the same bits.
#if defined(DCC_X86_DISPATCH) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define DCC_EXACT_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define DCC_EXACT_CLONES
#endif

// Step 2 of the exact kernel over the engine's gain table: for each
// transmitter k in order, adds the gains its row rows[k] holds at the m
// lane listeners node[0, m) into their lanes. A lane's strongest
// transmitter changes only on a strictly larger gain. (best_k is stored
// before best: in the other order gcc 12 does not vectorize the loop.)
DCC_EXACT_CLONES
void AddTableRows(const double* const* rows, std::size_t n_tx,
                  const std::uint32_t* __restrict node, std::size_t m,
                  double* __restrict total, double* __restrict best,
                  std::size_t* __restrict best_k) {
  for (std::size_t k = 0; k < n_tx; ++k) {
    const double* row = rows[k];
    for (std::size_t j = 0; j < m; ++j) {
      const double g = row[node[j]];
      const bool upd = g > best[j];
      total[j] += g;
      best_k[j] = upd ? k : best_k[j];
      best[j] = upd ? g : best[j];
    }
  }
}

// Step 3 of the exact kernel: every lane's SINR, best over noise plus the
// interference total - best.
DCC_EXACT_CLONES
void LaneSinr(const double* __restrict total, const double* __restrict best,
              std::size_t m, double noise, double* __restrict sinr) {
  for (std::size_t j = 0; j < m; ++j) {
    sinr[j] = best[j] / (noise + (total[j] - best[j]));
  }
}

#ifdef DCC_X86_DISPATCH
// The far-field sweep of one chunk of fallback listeners for alpha = 3
// without shadowing on AVX-512 hosts (every other host, alpha and shadowed
// model sweeps with kernel::AddGains): d2^{-3/2} from vrsqrt14pd refined
// by two Newton steps, a pure multiply/FMA pipeline with no divider
// pressure.
// Error after refinement is ~1.5 * (5e-9)^2, i.e. below double epsilon, so
// gains agree with the scalar kernel to ~2 ulp (well inside the engine's
// documented 1e-9 SINR tolerance and the pruning slack).
__attribute__((target("avx512f"))) void FarSweepAlpha3Avx512(
    const double* xs, const double* ys,
    const std::pair<std::size_t, std::size_t>* ranges, std::size_t n_ranges,
    double p, const double* lx, const double* ly, double* total, double* best,
    std::size_t* best_slot) {
  static_assert(kChunk == 8, "one zmm register holds the listener chunk");
  constexpr __mmask8 kAllLanes = 0xFF;
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
      // The all-ones maskz forms run the same instructions as the plain
      // ones, whose headers merge into an undefined vector that gcc flags
      // with -Wmaybe-uninitialized.
      const __m512d d2 = _mm512_maskz_max_pd(
          kAllLanes, _mm512_fmadd_pd(dx, dx, _mm512_mul_pd(dy, dy)), vmin);
      __m512d h = _mm512_maskz_rsqrt14_pd(kAllLanes, d2);
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

double AutoCell(const Network& net, const std::optional<Box>& coverage) {
  const Box box = coverage ? *coverage : BoundingBox(net.positions());
  const double area = (box.hi.x - box.lo.x) * (box.hi.y - box.lo.y);
  if (net.size() == 0 || area <= 0.0) return 1.0;
  // Aim for ~64 nodes per tile under uniform density, with tiles no smaller
  // than the transmission range scale.
  return std::max(1.0,
                  std::sqrt(64.0 * area / static_cast<double>(net.size())));
}

// The reach radius: the smallest r, to bisection precision, with
// MaxGainD2(r * r) < beta * noise * (1 - kReachMargin). MaxGainD2(r * r)
// bounds every link of length >= r and the envelope is non-increasing, so
// no such link can carry a reception. Infinity when the envelope never
// drops below the threshold.
double ReachRadius(const PathLossModel& model, const Params& params) {
  const double threshold = params.beta * params.noise * (1.0 - kReachMargin);
  double hi = 1.0;
  while (!(model.MaxGainD2(hi * hi) < threshold)) {
    if (hi > 1e300) return std::numeric_limits<double>::infinity();
    hi *= 2.0;
  }
  double lo = 0.0;  // MaxGainD2(hi * hi) < threshold holds throughout
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (!(mid > lo && mid < hi)) break;
    (model.MaxGainD2(mid * mid) < threshold ? hi : lo) = mid;
  }
  return hi;
}

// The grid path's prune test: whether a listener cannot receive even at
// its best case, the strongest any transmitter could be against the least
// interference it could see.
bool CannotReceive(double best_ub, double interference_lo, double noise,
                   double beta) {
  if (best_ub <= 0.0) return true;
  const double i_lo = std::max(0.0, interference_lo - best_ub);
  return (best_ub / (noise + i_lo)) * (1.0 + kPruneSlack) < beta;
}

}  // namespace

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
      mode_ = net.size() > kGainMatrixLimit ? Mode::kGrid : Mode::kExact;
      break;
  }
  DCC_REQUIRE(options_.threads >= 0, "Engine: threads must be >= 0");
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
  }
  is_tx_.assign(net.size(), 0);
  if (grid_) {
    prologue_.tx_start.assign(
        static_cast<std::size_t>(grid_->tile_count()) + 1, 0);
    pyramid_.Reset(*grid_);
  }
  EnsureScratch(1);

  reach_radius_ = ReachRadius(net.propagation(), net.params());
  // A grid round may skip only listeners its stage 1 prunes, which needs
  // every tile it bounds (at distance > near_radius_) beyond the reach.
  if (grid_ && reach_radius_ > near_radius_) {
    reach_radius_ = std::numeric_limits<double>::infinity();
  }
  reach_.mark.assign(net.size(), 0);
  positions_version_ = net.positions_version();
  FillGains();
  BuildReach();
}

void Engine::EnsureScratch(int shards) const {
  if (static_cast<int>(scratch_.size()) >= shards) return;
  scratch_.resize(static_cast<std::size_t>(shards));
}

void Engine::FollowPositions() const {
  if (grid_) grid_->Retile(net_->positions());
  FillGains();
  BuildReach();
  memo_.Clear();
  positions_version_ = net_->positions_version();
}

void Engine::FillGains() const {
  const Network& net = *net_;
  const std::size_t n = net.size();
  if (n == 0 || n > kGainMatrixLimit) return;
  gain_.resize(n * n);
  // One Gain call per ordered pair, so the writes run in memory order.
  // Mirroring each gain into its column halves the calls but writes
  // n * 8 bytes apart: 62-64 ms against 34 ms at n = 2048 (4-core Xeon,
  // gcc 12.2, Release). The model is symmetric to the bit, so both
  // fills give the same table.
  for (std::size_t i = 0; i < n; ++i) {
    double* row = gain_.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) row[j] = net.Gain(i, j);
  }
}

void Engine::BuildReach() const {
  ReceptionReach& R = reach_;
  const std::vector<Vec2>& pos = net_->positions();
  const std::size_t n = pos.size();
  const double r2 = reach_radius_ * reach_radius_;
  R.on = false;
  if (n == 0 || !std::isfinite(r2)) return;
  const Box box = BoundingBox(pos);
  const double wx = box.hi.x - box.lo.x;
  const double wy = box.hi.y - box.lo.y;
  const double diag2 = wx * wx + wy * wy;
  if (!std::isfinite(diag2) || r2 >= diag2) return;  // nothing to skip

  // PointGrid's rule, d^2 <= r^2 + 1e-12, also admits the nodes just
  // beyond r; they are still beyond the reach, so marking them changes
  // nothing (engine.h, "Reception reach").
  const PointGrid grid(pos, reach_radius_);
  const std::size_t cap = std::max(kReachEntriesPerNode * n, kMinReachEntries);
  R.start.resize(n + 1);
  R.members.clear();
  for (std::size_t u = 0; u < n; ++u) {
    R.start[u] = R.members.size();
    grid.ForNear(pos[u], reach_radius_, [&](std::size_t w) {
      R.members.push_back(static_cast<std::uint32_t>(w));
    });
    if (R.members.size() > cap) return;
  }
  R.start[n] = R.members.size();
  R.on = true;
}

void Engine::StampReach(std::span<const std::size_t> transmitters) const {
  ReceptionReach& R = reach_;
  if (!R.on) return;
  if (++R.stamp == 0) {  // wrapped: no stale mark may equal the new stamp
    std::fill(R.mark.begin(), R.mark.end(), 0);
    R.stamp = 1;
  }
  for (const std::size_t v : transmitters) {
    for (std::size_t k = R.start[v]; k < R.start[v + 1]; ++k) {
      R.mark[R.members[k]] = R.stamp;
    }
  }
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
  ++stats_.rounds;
  stats_.transmissions += static_cast<std::int64_t>(transmitters.size());
  out.clear();
  if (transmitters.empty() || listeners.empty()) return;
  if (net_->positions_version() != positions_version_) FollowPositions();
  ResolveRound(transmitters, listeners, out);
}

void Engine::StepInto(std::span<const std::size_t> transmitters,
                      std::vector<Reception>& out) const {
  DCC_TRACE_SPAN("engine.round");
  ++stats_.rounds;
  stats_.transmissions += static_cast<std::int64_t>(transmitters.size());
  out.clear();
  if (transmitters.empty()) return;
  if (net_->positions_version() != positions_version_) FollowPositions();
  const bool exact_kernel =
      mode_ == Mode::kExact || transmitters.size() <= kExactMaxTransmitters;
  const std::uint64_t hash = exact_kernel ? RoundMemo::Hash(transmitters) : 0;
  if (exact_kernel && memo_.Find(hash, transmitters, out)) {
    stats_.receptions += static_cast<std::int64_t>(out.size());
    return;
  }
  for (const std::size_t v : transmitters) is_tx_[v] = 1;
  all_listeners_.clear();
  for (std::size_t u = 0; u < is_tx_.size(); ++u) {
    if (!is_tx_[u]) all_listeners_.push_back(u);
  }
  for (const std::size_t v : transmitters) is_tx_[v] = 0;
  if (!all_listeners_.empty()) {
    ResolveRound(transmitters, all_listeners_, out);
  }
  if (exact_kernel) memo_.Insert(hash, transmitters, out);
}

void Engine::ResolveRound(std::span<const std::size_t> transmitters,
                          std::span<const std::size_t> listeners,
                          std::vector<Reception>& out) const {
  StampReach(transmitters);
  for (const std::size_t v : transmitters) is_tx_[v] = 1;
  const int shards = ShardsFor(listeners.size());
  // One rule per round; engine.h gives the sweep behind the cutover.
  if (mode_ == Mode::kGrid && transmitters.size() > kExactMaxTransmitters) {
    StepGrid(transmitters, listeners, shards, out);
  } else {
    StepExact(transmitters, listeners, shards, out);
  }
  for (const std::size_t v : transmitters) is_tx_[v] = 0;
  stats_.receptions += static_cast<std::int64_t>(out.size());
}

std::uint64_t Engine::RoundMemo::Hash(
    std::span<const std::size_t> transmitters) {
  // Multiply-xor over the sequence, so order matters, then a finalizer so
  // that the index's low bits depend on every transmitter.
  std::uint64_t h = transmitters.size();
  for (const std::size_t v : transmitters) {
    h = (h ^ static_cast<std::uint64_t>(v)) * 0x9E3779B97F4A7C15ULL;
  }
  return Mix64(h);
}

bool Engine::RoundMemo::Holds(std::size_t at, std::uint64_t hash,
                              std::span<const std::size_t> transmitters) const {
  const Record& head = records_[at];
  if (head[0] != transmitters.size() ||
      head[2] != static_cast<std::uint32_t>(hash) ||
      head[3] != static_cast<std::uint32_t>(hash >> 32)) {
    return false;
  }
  for (std::size_t i = 0; i < transmitters.size(); ++i) {
    if (records_[at + 1 + i / 4][i % 4] != transmitters[i]) return false;
  }
  return true;
}

bool Engine::RoundMemo::Find(std::uint64_t hash,
                             std::span<const std::size_t> transmitters,
                             std::vector<Reception>& out) const {
  if (slots_.empty()) return false;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask; slots_[i] != 0; i = (i + 1) & mask) {
    const std::size_t at = slots_[i] - 1;
    if (!Holds(at, hash, transmitters)) continue;
    const std::size_t first = at + 1 + (transmitters.size() + 3) / 4;
    out.clear();
    for (std::size_t r = first; r < first + records_[at][1]; ++r) {
      const Record& rec = records_[r];
      out.push_back(Reception{
          rec[0], rec[1],
          std::bit_cast<double>(std::uint64_t{rec[3]} << 32 | rec[2])});
    }
    return true;
  }
  return false;
}

void Engine::RoundMemo::Insert(std::uint64_t hash,
                               std::span<const std::size_t> transmitters,
                               std::span<const Reception> receptions) {
  const std::size_t need =
      1 + (transmitters.size() + 3) / 4 + receptions.size();
  if (need > kRoundMemoRecords) return;
  if (records_.capacity() < kRoundMemoRecords) {
    records_.reserve(kRoundMemoRecords);
  }
  if (records_.size() + need > kRoundMemoRecords) Clear();
  if (2 * (entries_ + 1) > slots_.size()) {
    // Double the index (1024 slots at first) and re-place every entry.
    std::vector<std::uint32_t> old(
        std::max<std::size_t>(1024, 2 * slots_.size()), 0);
    old.swap(slots_);
    for (const std::uint32_t slot : old) {
      if (slot == 0) continue;
      const Record& head = records_[slot - 1];
      Index(slot - 1, std::uint64_t{head[3]} << 32 | head[2]);
    }
  }
  const std::size_t at = records_.size();
  records_.push_back(Record{static_cast<std::uint32_t>(transmitters.size()),
                            static_cast<std::uint32_t>(receptions.size()),
                            static_cast<std::uint32_t>(hash),
                            static_cast<std::uint32_t>(hash >> 32)});
  for (std::size_t i = 0; i < transmitters.size(); i += 4) {
    Record key{};
    for (std::size_t j = i; j < std::min(i + 4, transmitters.size()); ++j) {
      key[j - i] = static_cast<std::uint32_t>(transmitters[j]);
    }
    records_.push_back(key);
  }
  for (const Reception& r : receptions) {
    const auto bits = std::bit_cast<std::uint64_t>(r.sinr);
    records_.push_back(Record{static_cast<std::uint32_t>(r.listener),
                              static_cast<std::uint32_t>(r.sender),
                              static_cast<std::uint32_t>(bits),
                              static_cast<std::uint32_t>(bits >> 32)});
  }
  Index(at, hash);
  ++entries_;
}

void Engine::RoundMemo::Index(std::size_t at, std::uint64_t hash) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = static_cast<std::uint32_t>(at + 1);
}

void Engine::RoundMemo::Clear() {
  records_.clear();
  std::fill(slots_.begin(), slots_.end(), 0);
  entries_ = 0;
}

void Engine::AddStatsToMetrics() const {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static obs::Counter& rounds =
      reg.GetCounter("dcc_engine_rounds_total", "SINR rounds stepped");
  static obs::Counter& receptions = reg.GetCounter(
      "dcc_engine_receptions_total", "Receptions resolved across rounds");
  static obs::Counter& dispatched = reg.GetCounter(
      "dcc_engine_rounds_dispatched_total",
      "SINR rounds dispatched across engine shards");
  static obs::Counter& under_grain = reg.GetCounter(
      "dcc_engine_rounds_under_grain_total",
      "SINR rounds a parallel engine ran serially, under the listener grain");
  static obs::Counter& tile_states = reg.GetCounter(
      "dcc_engine_tile_states_total",
      "Far-field listener-tile states built by grid round prologues");
  rounds.Add(stats_.rounds);
  receptions.Add(stats_.receptions);
  dispatched.Add(stats_.parallel_rounds);
  under_grain.Add(stats_.parallel_small_rounds);
  tile_states.Add(stats_.tile_states_computed);
}

int Engine::ShardsFor(std::size_t n_listen) const {
  if (threads_ <= 1) return 1;
  if (n_listen < kMinListenersPerShard * static_cast<std::size_t>(threads_)) {
    ++stats_.parallel_small_rounds;
    return 1;
  }
  return threads_;
}

void Engine::BuildPrologue(std::span<const std::size_t> tx,
                           std::span<const std::size_t> listeners) const {
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
  for (const std::size_t v : tx) {
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
  P.tx_id.resize(tx.size());
  P.tx_fill.assign(P.tx_start.begin(), P.tx_start.end() - 1);
  for (const std::size_t v : tx) {
    const std::size_t slot =
        P.tx_fill[static_cast<std::size_t>(grid.TileOfPoint(v))]++;
    P.tx_members[slot] = v;
    const Vec2 p = net.position(v);
    P.tx_sx[slot] = p.x;
    P.tx_sy[slot] = p.y;
    P.tx_id[slot] = net.id(v);
  }

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
        grid.TileOfPoint(listeners[ord]))]++] = static_cast<std::uint32_t>(ord);
  }

  BuildTileState(listeners);
}

void Engine::BuildTileState(std::span<const std::size_t> listeners) const {
  DCC_TRACE_SPAN("engine.farfield");
  RoundPrologue& P = prologue_;
  const PathLossModel& model = net_->propagation();
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
      pyramid_.Accumulate(grid, t, far_sq, model, P.close_pool, far_lo,
                          far_ub);
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
          far_lo += cnt * model.MinGainD2(grid.TileDistHiSq(t, b));
          far_ub = std::max(far_ub, model.MaxGainD2(d2_lo));
        } else {
          P.close_pool.push_back(b);
        }
      }
      P.tile_close_end[tile] = static_cast<std::uint32_t>(P.close_pool.size());
      P.tile_far_lo[tile] = far_lo;
      P.tile_far_ub[tile] = far_ub;
    }
  }

  P.close_tiles.resize(P.close_pool.size());
  for (std::size_t c = 0; c < P.close_pool.size(); ++c) {
    const int b = P.close_pool[c];
    const auto t = static_cast<std::size_t>(b);
    P.close_tiles[c] = kernel::CloseTile{
        grid.TileBox(b),
        static_cast<double>(P.tx_start[t + 1] - P.tx_start[t])};
  }
}

template <typename Emit>
void Engine::ResolveExact(std::span<const std::size_t> transmitters,
                          std::span<const std::size_t> listeners,
                          ExactLanes& L, const Emit& emit) const {
  const Network& net = *net_;
  const std::size_t count = listeners.size();
  // The gain kernel (AddCoordinateGains) reads and writes whole groups of
  // lanes, so the lanes are padded to a multiple of kGainLanes.
  const std::size_t padded = (count + kernel::kGainLanes - 1) /
                             kernel::kGainLanes * kernel::kGainLanes;
  if (L.node.size() < padded) {
    L.node.resize(padded);
    L.total.resize(padded);
    L.best.resize(padded);
    L.best_k.resize(padded);
    L.sinr.resize(padded);
    L.hit.resize(padded);
    L.x.resize(padded);
    L.y.resize(padded);
    L.id.resize(padded);
  }

  // Step 1: the in-reach listeners, in listener order, become the lanes.
  // Every listener is checked, in reach or not.
  std::size_t m = 0;
  bool listening_tx = false;
  for (const std::size_t u : listeners) {
    listening_tx |= is_tx_[u] != 0;
    L.node[m] = static_cast<std::uint32_t>(u);
    m += InReach(u) ? 1 : 0;
  }
  DCC_CHECK(!listening_tx);  // a transmitter cannot listen
  if (m == 0) return;
  std::fill_n(L.total.begin(), m, 0.0);
  std::fill_n(L.best.begin(), m, -1.0);
  std::fill_n(L.best_k.begin(), m, std::size_t{0});

  // Step 2: each transmitter's gains at the lanes, in call order.
  if (!gain_.empty()) {
    L.rows.resize(transmitters.size());
    for (std::size_t k = 0; k < transmitters.size(); ++k) {
      L.rows[k] = gain_.data() + transmitters[k] * net.size();
    }
    AddTableRows(L.rows.data(), transmitters.size(), L.node.data(), m,
                 L.total.data(), L.best.data(), L.best_k.data());
  } else {
    AddCoordinateGains(transmitters, m, L);
  }

  // Step 3: every lane's SINR; the lanes that clear beta, gathered without
  // a branch per lane, emit in listener order.
  LaneSinr(L.total.data(), L.best.data(), m, net.params().noise,
           L.sinr.data());
  const double beta = net.params().beta;
  std::size_t hits = 0;
  for (std::size_t j = 0; j < m; ++j) {
    L.hit[hits] = static_cast<std::uint32_t>(j);
    hits += L.sinr[j] >= beta ? 1 : 0;
  }
  for (std::size_t h = 0; h < hits; ++h) {
    const std::size_t j = L.hit[h];
    emit(Reception{L.node[j], transmitters[L.best_k[j]], L.sinr[j]});
  }
}

void Engine::AddCoordinateGains(std::span<const std::size_t> transmitters,
                                std::size_t m, ExactLanes& L) const {
  const Network& net = *net_;
  const PathLossModel& model = net.propagation();
  // The kernel reads ids only under shadowing, so only then are they
  // gathered.
  const bool shadowed = model.shadowed();
  // The lanes past m, up to the next multiple of kGainLanes (ResolveExact
  // sizes L for it), repeat lane 0's node.
  const std::size_t padded = (m + kernel::kGainLanes - 1) /
                             kernel::kGainLanes * kernel::kGainLanes;
  for (std::size_t j = 0; j < padded; ++j) {
    const std::size_t u = L.node[j < m ? j : 0];
    const Vec2 p = net.position(u);
    L.x[j] = p.x;
    L.y[j] = p.y;
    if (shadowed) L.id[j] = net.id(u);
  }
  L.tx_x.resize(transmitters.size());
  L.tx_y.resize(transmitters.size());
  L.tx_id.resize(transmitters.size());
  for (std::size_t k = 0; k < transmitters.size(); ++k) {
    const Vec2 p = net.position(transmitters[k]);
    L.tx_x[k] = p.x;
    L.tx_y[k] = p.y;
    if (shadowed) L.tx_id[k] = net.id(transmitters[k]);
  }
  for (std::size_t j = 0; j < m; j += kernel::kGainLanes) {
    const std::size_t lanes = std::min(kernel::kGainLanes, m - j);
    kernel::AddGains(model, L.tx_x.data(), L.tx_y.data(), L.tx_id.data(), 0,
                     transmitters.size(), &L.x[j], &L.y[j], &L.id[j],
                     (1u << lanes) - 1, &L.total[j], &L.best[j],
                     &L.best_k[j]);
  }
}

template <typename Resolve>
void Engine::RunShards(int shards, std::size_t n_listen, const Resolve& resolve,
                       std::vector<Reception>& out) const {
  if (shards == 1) {
    resolve(0, n_listen, scratch_[0]);
  } else {
    EnsureScratch(shards);
    ++stats_.parallel_rounds;
    const auto k_shards = static_cast<std::size_t>(shards);
    pool_->Run(k_shards, [&](std::size_t k) {
      resolve(n_listen * k / k_shards, n_listen * (k + 1) / k_shards,
              scratch_[k]);
    });
  }
  MergeShards(shards, out);
}

void Engine::StepExact(std::span<const std::size_t> transmitters,
                       std::span<const std::size_t> listeners, int shards,
                       std::vector<Reception>& out) const {
  if (shards == 1) {
    ResolveExact(transmitters, listeners, scratch_[0].exact,
                 [&](const Reception& r) { out.push_back(r); });
    return;
  }
  RunShards(
      shards, listeners.size(),
      [&](std::size_t lo, std::size_t hi, RoundScratch& s) {
        // The kernel emits in listener order, at most one reception per
        // listener of [lo, hi), so lo, lo + 1, ... order this shard's
        // receptions among every shard's for the merge.
        s.pending.clear();
        auto ordinal = static_cast<std::uint32_t>(lo);
        ResolveExact(transmitters, listeners.subspan(lo, hi - lo), s.exact,
                     [&](const Reception& r) {
                       s.pending.emplace_back(ordinal++, r);
                     });
      },
      out);
}

void Engine::ResolveFallbacksBlocked(
    const RoundPrologue& P, std::span<const std::size_t> transmitters,
    RoundScratch& s) const {
  const Network& net = *net_;
  const PathLossModel& plm = net.propagation();
  const double beta = net.params().beta;
  const double noise = net.params().noise;

  // s.fallback is already in (tile, ordinal) order: the lane groups walk
  // the shard's slice of the prologue's stable tile-sorted order, their
  // survivors join one tile's survivor group at a time in that order, and
  // each survivor group queues its lanes in it. So each tile's deferred
  // listeners form one run that shares one far-range scan; the caller
  // sorts s.pending back into listener order.
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
      NodeId lid[kChunk];
      for (std::size_t j = 0; j < kChunk; ++j) {
        // Pad short chunks with lane 0; padded lanes are never emitted.
        const GridFallback& r = s.fallback[c0 + (j < m ? j : 0)];
        const Vec2 p = net.position(r.u);
        lx[j] = p.x;
        ly[j] = p.y;
        lid[j] = net.id(r.u);
        total[j] = 0.0;
        far_best[j] = -1.0;
      }
#ifdef DCC_X86_DISPATCH
      if (plm.alpha_is_three() && !plm.shadowed() && kernel::HasAvx512()) {
        FarSweepAlpha3Avx512(P.tx_sx.data(), P.tx_sy.data(),
                             s.far_ranges.data(), s.far_ranges.size(),
                             plm.power(), lx, ly, total, far_best, far_best_v);
      } else
#endif
      {
        for (const auto& [mb, me] : s.far_ranges) {
          kernel::AddGains(plm, P.tx_sx.data(), P.tx_sy.data(),
                           P.tx_id.data(), mb, me, lx, ly, lid,
                           (1u << m) - 1, total, far_best, far_best_v);
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
          // (see kThresholdRecheck): re-resolve with the exact kernel.
          ResolveExact(transmitters, std::span(&r.u, 1), s.exact,
                       [&](const Reception& rec) {
                         s.pending.emplace_back(r.ordinal, rec);
                       });
        } else if (sinr >= beta) {
          s.pending.emplace_back(r.ordinal, Reception{r.u, best_v, sinr});
        }
      }
    }
    i = group_end;
  }
}

Engine::GridLanes::GridLanes()
    : ordinal(kernel::kGainLanes),
      node(kernel::kGainLanes),
      x(kernel::kGainLanes),
      y(kernel::kGainLanes),
      id(kernel::kGainLanes),
      close_sum(kernel::kGainLanes),
      best(kernel::kGainLanes),
      best_slot(kernel::kGainLanes) {}

void Engine::StepGridRange(const RoundPrologue& P,
                           std::span<const std::size_t> transmitters,
                           std::span<const std::size_t> listeners,
                           std::span<const std::uint32_t> ordinals,
                           RoundScratch& s) const {
  DCC_TRACE_SPAN("engine.shard");
  s.fallback.clear();
  s.pending.clear();
  s.pruned = 0;
  s.exact_fallbacks = 0;

  // Lane groups: up to kGainLanes in-reach listeners of one tile, in a row
  // of the (tile-sorted) slice.
  GridLanes& G = s.lanes;
  s.survivors.m = 0;
  for (std::size_t i = 0; i < ordinals.size();) {
    G.m = 0;
    for (; i < ordinals.size() && G.m < kernel::kGainLanes; ++i) {
      const std::uint32_t ordinal = ordinals[i];
      const std::size_t u = listeners[ordinal];
      DCC_CHECK(!is_tx_[u]);  // a transmitter cannot listen
      if (!InReach(u)) {  // stage 1 would prune it (engine.h)
        ++s.pruned;
        continue;
      }
      const auto tile_u = static_cast<std::size_t>(grid_->TileOfPoint(u));
      if (G.m > 0 && tile_u != G.tile) break;  // the next group's first lane
      G.tile = tile_u;
      G.ordinal[G.m] = ordinal;
      G.node[G.m] = u;
      ++G.m;
    }
    if (G.m > 0) ResolveLaneGroup(P, s);
  }
  if (s.survivors.m > 0) ResolveSurvivors(P, s);

  if (!s.fallback.empty()) {
    ResolveFallbacksBlocked(P, transmitters, s);
  }
  std::sort(s.pending.begin(), s.pending.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

void Engine::ScanCloseTile(const RoundPrologue& P, int b, unsigned lanes,
                           GridLanes& L) const {
  const auto t = static_cast<std::size_t>(b);
  kernel::AddGains(net_->propagation(), P.tx_sx.data(), P.tx_sy.data(),
                   P.tx_id.data(), P.tx_start[t], P.tx_start[t + 1],
                   L.x.data(), L.y.data(), L.id.data(), lanes,
                   L.close_sum.data(), L.best.data(), L.best_slot.data());
}

void Engine::ResolveLaneGroup(const RoundPrologue& P, RoundScratch& s) const {
  const Network& net = *net_;
  const double beta = net.params().beta;
  const double noise = net.params().noise;
  GridLanes& G = s.lanes;
  const std::size_t tile = G.tile;

  // Every lane adds in the per-listener order: close-list order, CSR order
  // within a tile, the strongest changing only on a strictly larger gain;
  // near tiles here, mid tiles in stage 2. The lanes past m are never on.
  alignas(64) double bound_lo[kernel::kGainLanes] = {};
  alignas(64) double gain_ub[kernel::kGainLanes] = {};
  for (std::size_t j = 0; j < G.m; ++j) {
    const std::size_t u = G.node[j];
    const Vec2 p = net.position(u);
    G.x[j] = p.x;
    G.y[j] = p.y;
    G.id[j] = net.id(u);
    G.close_sum[j] = 0.0;
    G.best[j] = -1.0;
    G.best_slot[j] = 0;
    bound_lo[j] = P.tile_far_lo[tile];
    gain_ub[j] = P.tile_far_ub[tile];
  }

  // Stage 1 — mid tiles: envelope bounds; near tiles: exact member scan.
  const std::uint32_t close_begin = P.tile_close_begin[tile];
  const std::size_t n_close = P.tile_close_end[tile] - close_begin;
  if (G.scan.size() < n_close) G.scan.resize(n_close);
  kernel::AddTileBounds(net.propagation(), P.close_tiles.data() + close_begin,
                        n_close, near_radius_ * near_radius_, G.x.data(),
                        G.y.data(), (1u << G.m) - 1, bound_lo, gain_ub,
                        G.scan.data());
  for (std::size_t c = 0; c < n_close; ++c) {
    if (G.scan[c] != 0) {
      ScanCloseTile(P, P.close_pool[close_begin + c], G.scan[c], G);
    }
  }

  // Stage 1's prune; the lanes it keeps join the survivor group, in order,
  // so the fallback queue stays in (tile, ordinal) order.
  GridLanes& S = s.survivors;
  for (std::size_t j = 0; j < G.m; ++j) {
    if (CannotReceive(std::max(G.best[j], gain_ub[j]),
                      G.close_sum[j] + bound_lo[j], noise, beta)) {
      ++s.pruned;
      continue;
    }
    if (S.m > 0 && S.tile != tile) ResolveSurvivors(P, s);
    const std::size_t k = S.m++;
    if (k == 0) {
      S.tile = tile;
      S.scan.assign(n_close, 0);
    }
    S.ordinal[k] = G.ordinal[j];
    S.node[k] = G.node[j];
    S.x[k] = G.x[j];
    S.y[k] = G.y[j];
    S.id[k] = G.id[j];
    S.close_sum[k] = G.close_sum[j];
    S.best[k] = G.best[j];
    S.best_slot[k] = G.best_slot[j];
    for (std::size_t c = 0; c < n_close; ++c) {
      if (((G.scan[c] >> j) & 1u) == 0) S.scan[c] |= 1u << k;  // a mid tile
    }
    if (S.m == kernel::kGainLanes) ResolveSurvivors(P, s);
  }
}

void Engine::ResolveSurvivors(const RoundPrologue& P, RoundScratch& s) const {
  const double beta = net_->params().beta;
  const double noise = net_->params().noise;
  GridLanes& S = s.survivors;
  const std::size_t tile = S.tile;

  // Stage 2 — scan the mid tiles exactly; only the shared far-field bound
  // remains an estimate.
  const std::uint32_t close_begin = P.tile_close_begin[tile];
  const std::size_t n_close = P.tile_close_end[tile] - close_begin;
  for (std::size_t c = 0; c < n_close; ++c) {
    if (S.scan[c] != 0) {
      ScanCloseTile(P, P.close_pool[close_begin + c], S.scan[c], S);
    }
  }

  // Stage 2's prune, then stage 3 — a reception is genuinely possible:
  // defer to the batched exact fallback.
  for (std::size_t j = 0; j < S.m; ++j) {
    if (CannotReceive(std::max(S.best[j], P.tile_far_ub[tile]),
                      S.close_sum[j] + P.tile_far_lo[tile], noise, beta)) {
      ++s.pruned;
      continue;
    }
    ++s.exact_fallbacks;
    s.fallback.push_back(GridFallback{
        static_cast<std::uint32_t>(tile), S.ordinal[j], S.node[j],
        S.close_sum[j], S.best[j], P.tx_members[S.best_slot[j]]});
  }
  S.m = 0;
}

void Engine::MergeShards(int shards, std::vector<Reception>& out) const {
  DCC_TRACE_SPAN("engine.merge");
  // Shard-ordered concatenation; ordinals are globally unique, so one sort
  // restores the exact serial (listener-order) output, and one shard's are
  // already in that order.
  merge_.clear();
  for (int k = 0; k < shards; ++k) {
    RoundScratch& s = scratch_[static_cast<std::size_t>(k)];
    merge_.insert(merge_.end(), s.pending.begin(), s.pending.end());
    stats_.grid_pruned += s.pruned;
    stats_.grid_exact_fallbacks += s.exact_fallbacks;
    s.pruned = 0;
    s.exact_fallbacks = 0;
  }
  if (shards > 1) {
    std::sort(merge_.begin(), merge_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  for (const auto& [ordinal, rec] : merge_) {
    out.push_back(rec);
  }
}

void Engine::StepGrid(std::span<const std::size_t> transmitters,
                      std::span<const std::size_t> listeners, int shards,
                      std::vector<Reception>& out) const {
  BuildPrologue(transmitters, listeners);
  const RoundPrologue& P = prologue_;
  stats_.tile_states_computed += static_cast<std::int64_t>(P.lt_tiles.size());
  RunShards(
      shards, listeners.size(),
      [&](std::size_t lo, std::size_t hi, RoundScratch& s) {
        StepGridRange(P, transmitters, listeners,
                      std::span(P.order).subspan(lo, hi - lo), s);
      },
      out);
}

}  // namespace dcc::sinr
