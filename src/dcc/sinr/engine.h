// The SINR round engine: given the set of transmitters in a round, computes
// which listeners successfully receive and from whom (Eq. 1 of the paper).
//
// Because beta > 1, at most one transmitter can satisfy the SINR constraint
// at a given listener, so reception resolves to "the strongest transmitter,
// if its SINR clears beta" — the engine computes exactly that.
//
// Two interference resolution strategies:
//  * kExact — brute force O(|T|) per listener. The semantic reference and
//    test oracle.
//  * kGrid — a uniform spatial index (common/spatial_grid.h) buckets the
//    round's transmitters into tiles. Near-field tiles are scanned exactly;
//    mid- and far-field tiles contribute conservative interference bounds
//    through the propagation model's distance envelope. The bounds prune
//    listeners whose best-case SINR cannot clear beta (the common case in
//    dense rounds); every listener that might receive is resolved exactly
//    by a batched far-field sweep (vectorized where the host supports it),
//    so the reception set matches kExact and reported SINR values agree to
//    >= 9 significant digits (floating-point reassociation only; at extreme
//    SINRs the agreement degrades by an additional eps * |T| * sinr factor
//    from cancellation in the interference subtraction, which affects both
//    modes equally).
// kAuto picks kExact while the network still carries its dense gain matrix
// and kGrid above that size threshold.
//
// --- Parallel sharded rounds (Options::threads) ---
// Either strategy can run one round across K shards on the process-wide
// parallel::WorkerPool, and both cut it one way: shard k resolves the equal
// slice [n*k/K, n*(k+1)/K) of one order of the round's n listeners — the
// call order in exact mode, the listeners stably sorted by tile in grid
// mode (so a shard's batched fallback groups stay full). Every worker reads
// the whole read-only round state (the "halo" by reference) and owns its
// whole scratch, and the fallback's lanes are independent accumulators, so
// a listener's reception is a pure function of (listener, round state):
// with the merge emitting receptions in listener order, any cut gives the
// reception set AND every SINR bit of serial execution. Rounds below
// min_listeners_per_shard * K listeners run serially (the dispatch would
// cost more than the round). Nested engines (inside a sweep job) dispatch
// too: idle pool workers steal their shard tickets, so the tail of a sweep
// donates its freed threads to the runs still going.
//
// --- One grid round ---
// A grid round is three stages: BuildPrologue (the transmitter CSR by
// tile, the tile-sorted listener order of a dispatched round, and the
// hoisted per-listener-tile far-field state, all collected in the single
// RoundPrologue member), then the shard fan-out (StepGridRange per shard,
// reading the prologue), then the merge into listener order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dcc/common/spatial_grid.h"
#include "dcc/sinr/farfield.h"
#include "dcc/sinr/network.h"

namespace dcc::parallel {
class WorkerPool;
}  // namespace dcc::parallel

namespace dcc::sinr {

// Result of one round for one listener.
struct Reception {
  std::size_t listener = 0;
  std::size_t sender = 0;
  double sinr = 0.0;
};

class Engine {
 public:
  enum class Mode {
    kAuto,   // kExact up to the dense-gain-matrix limit, kGrid beyond
    kExact,  // brute-force oracle
    kGrid,   // spatial-index pruning + exact fallback
  };

  // Default listener grain: below this many listeners per shard a round is
  // not worth dispatching (see Options::min_listeners_per_shard).
  // Re-measured with `bench_parallel_rounds --sweep_grain` (see the
  // ROADMAP's parallel-execution note): per-shard dispatch costs roughly
  // the resolution of a handful of listeners, so grains below ~8 pay pool
  // overhead for rounds too small to amortize it, while larger grains
  // start serializing mid-sized rounds.
  static constexpr std::size_t kMinListenersPerShard = 8;

  struct Options {
    Mode mode = Mode::kAuto;
    // Grid tile side; 0 picks a density-based default (~64 nodes/tile).
    double cell = 0.0;
    // kAuto switches to kGrid for networks larger than this.
    std::size_t grid_threshold = Network::kGainMatrixLimit;
    // Spatial-index coverage area for dynamic networks: positions may move
    // anywhere inside this box without outgrowing the index. Defaults to
    // the bounding box of the construction-time positions (static runs).
    // Not part of the flag grammar — set programmatically (scenario
    // dynamics passes its world box).
    std::optional<Box> coverage;
    // Round-level parallelism: every round is decomposed into this many
    // shards executed on the shared parallel::WorkerPool. 1 = serial
    // (default), 0 = one shard per hardware thread, K > 1 = exactly K
    // shards regardless of the host (receptions are bit-identical to
    // serial at every setting, so K only affects speed).
    int threads = 1;
    // Dispatch grain: a round with fewer than min_listeners_per_shard * K
    // listeners runs serially even when threads > 1 (counted in
    // Stats::parallel_small_rounds). Must be >= 1; raising it trades
    // parallel coverage of small rounds for less dispatch overhead —
    // bench_parallel_rounds --sweep_grain measures the trade.
    std::size_t min_listeners_per_shard = kMinListenersPerShard;
    // Grid mode descends the far-field tile pyramid (sinr/farfield.h) only
    // for rounds whose transmitters occupy at least this many tiles; below
    // it the flat occupied-tile walk is already trivially cheap and the
    // descent's constant factor loses (measured ~+4..9% per round at <100
    // occupied tiles vs ~5x faster at >1000). Receptions are bit-identical
    // on either path (the pyramid's bounds are conservative relative to the
    // flat walk, so it can only defer more listeners to the exact
    // fallback), so the per-round choice is invisible outside timing.
    // Tests pin 0 to force the descent and SIZE_MAX to force the flat walk.
    std::size_t pyramid_min_occupied = 512;
    // Pool to dispatch on (defaults to WorkerPool::Shared()). Must outlive
    // the engine; ignored when the resolved thread count is 1. Not in the
    // flag grammar — tests inject a dedicated pool to pin scheduling
    // behavior without touching the process-wide one.
    parallel::WorkerPool* pool = nullptr;

    // Options overridden from the environment (the bench/ regenerators;
    // dcc_run takes its engine options from flags only):
    //   DCC_ENGINE_MODE      = exact | grid | auto (default auto)
    //   DCC_ENGINE_CELL      = <tile side>     (default: engine heuristic)
    //   DCC_ENGINE_THREADS   = <shard count, 0=hw> (default: 1, serial)
    //   DCC_ENGINE_MIN_SHARD = <listener grain> (default: 8)
    // Throws InvalidArgument on any unrecognized or malformed value — a
    // typo must not silently fall back to the default strategy.
    static Options FromEnv();
  };

  explicit Engine(const Network& net) : Engine(net, Options{}) {}
  Engine(const Network& net, Options options);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Computes receptions for one round.
  //  * `transmitters`: indices of nodes transmitting this round.
  //  * `listeners`: indices of nodes listening (a transmitter never listens;
  //    passing it as a listener is an error).
  // Returns one entry per successful reception.
  std::vector<Reception> Step(const std::vector<std::size_t>& transmitters,
                              const std::vector<std::size_t>& listeners) const;

  // Allocation-free variant: clears `out` and appends receptions into it.
  // Reuses internal scratch buffers across rounds — a single Engine must
  // not run concurrent Steps from multiple threads (parallelism inside one
  // Step is the engine's own job, via Options::threads).
  void StepInto(std::span<const std::size_t> transmitters,
                std::span<const std::size_t> listeners,
                std::vector<Reception>& out) const;

  // SINR of transmitter `v` at listener `u` under transmitter set T.
  double Sinr(std::size_t v, std::size_t u,
              const std::vector<std::size_t>& transmitters) const;

  // Total interference power at `u` from `transmitters` (no noise term).
  double InterferenceAt(std::size_t u,
                        const std::vector<std::size_t>& transmitters) const;

  const Network& net() const { return *net_; }

  // The resolved strategy (never kAuto).
  Mode mode() const { return mode_; }
  const Options& options() const { return options_; }

  // Resolved shard count (>= 1; Options::threads with 0 resolved to the
  // shared pool's parallelism).
  int threads() const { return threads_; }

  // --- Dynamic networks: spatial-index maintenance. ---
  // The grid built at construction tracks the network's positions; after
  // the network mutates (Network::SetPositions / churn), reconcile the
  // index before the next Step. All three are O(changed points) bucket
  // updates — never a rebuild — and no-ops in exact mode.

  // Re-tiles every indexed point whose position changed tiles. Call after
  // a bulk Network::SetPositions.
  void SyncIndex();

  // Removes node i from the index (churn leave). Until re-inserted, i must
  // not appear as a transmitter or listener in grid-mode Steps.
  void IndexErase(std::size_t i);

  // Restores node i at its current network position (churn join; pair with
  // Network::SetPosition for the respawn point).
  void IndexInsert(std::size_t i);

  // Live points in the index (== net().size() minus erased nodes); 0 in
  // exact mode, where no index exists.
  std::size_t IndexSize() const { return grid_ ? grid_->point_count() : 0; }

  // Cumulative counters (diagnostics for benches).
  struct Stats {
    std::int64_t rounds = 0;
    std::int64_t transmissions = 0;
    std::int64_t receptions = 0;
    // Grid mode only: listeners rejected by interference bounds alone vs
    // listeners resolved by the exact fallback loop.
    std::int64_t grid_pruned = 0;
    std::int64_t grid_exact_fallbacks = 0;
    // Parallel engines only (threads() > 1): rounds dispatched across
    // shards vs rounds run serially because they fell under the listener
    // grain (the dcc.parallel.v2 report section exposes both).
    std::int64_t parallel_rounds = 0;
    std::int64_t parallel_small_rounds = 0;
    // Per-listener-tile far-field states computed by prologue builds (one
    // per distinct listener tile per grid round; a tile whose listeners
    // span two shards is computed once, not once per shard).
    std::int64_t tile_states_computed = 0;
  };
  const Stats& stats() const { return stats_; }
  // Counters accumulate through const Steps (they are diagnostics, not
  // logical state), so resetting them is const as well.
  void ResetStats() const { stats_ = {}; }

 private:
  // Listeners deferred to the exact fallback, with their phase-A partials.
  struct GridFallback {
    std::uint32_t tile = 0;     // listener tile (phase-B grouping key)
    std::uint32_t ordinal = 0;  // position in the listeners span
    std::size_t u = 0;
    double close_sum = 0.0;   // exact near+mid interference
    double close_best = -1.0; // strongest near/mid gain...
    std::size_t close_best_v = 0;  // ...and its transmitter
  };

  // Everything a grid round computes before listener resolution, as one
  // value: the per-round transmitter index (CSR by tile), the tile-sorted
  // listener order, and the hoisted far-field state. A pure function of
  // (transmitters, listeners, index state), built serially at the top of
  // StepGrid and read-only for the rest of the round, which is what lets
  // shard workers share it.
  struct RoundPrologue {
    // Transmitter index: CSR over tiles, positions in CSR order.
    std::vector<char> is_tx;  // per-node transmitter marks (cleared per round)
    std::vector<std::size_t> tx_start;    // CSR offsets per tile
    std::vector<std::size_t> tx_fill;     // scatter cursors
    std::vector<std::size_t> tx_members;  // transmitters by tile
    std::vector<double> tx_sx;
    std::vector<double> tx_sy;
    std::vector<int> occupied_tx;  // tiles with >= 1 transmitter

    // Hoisted per-listener-tile far-field state: shared far-field bounds
    // plus each tile's close (near/mid) transmitter-tile list, computed
    // once per build for every distinct listener tile (ascending) and read
    // by every shard — a tile whose listeners span two shards is not
    // recomputed per shard. Only the entries named by lt_tiles are valid.
    std::vector<int> lt_tiles;  // distinct listener tiles, ascending
    std::vector<char> lt_mark;  // collection scratch (all-zero between builds)
    std::vector<double> tile_far_lo;
    std::vector<double> tile_far_ub;
    std::vector<std::uint32_t> tile_close_begin;
    std::vector<std::uint32_t> tile_close_end;
    std::vector<int> close_pool;

    // Listener ordinals stably sorted by tile, the order shards cut into
    // equal slices (only filled for dispatched rounds).
    std::vector<std::uint32_t> order_fill;  // scatter cursors per tile
    std::vector<std::uint32_t> order;
  };

  // One worker's whole mutable state for one round: the deferred-fallback
  // queue and the (ordinal, Reception) pairs it produced (shards read the
  // per-listener-tile far-field state from the prologue, they never build
  // it). Serial rounds use scratch_[0]; a K-shard round uses
  // scratch_[0..K) with no sharing, which is what makes the fan-out
  // race-free by construction.
  struct RoundScratch {
    std::vector<GridFallback> fallback;
    // Receptions tagged with their listener ordinal; sorted by ordinal at
    // the end of a range so the merge is a deterministic concatenation.
    std::vector<std::pair<std::uint32_t, Reception>> pending;
    std::vector<std::pair<std::size_t, std::size_t>> far_ranges;
    // Round-local counter deltas, folded into stats_ after the join.
    std::int64_t pruned = 0;
    std::int64_t exact_fallbacks = 0;
  };

  // The dispatch decision both modes share: the number of shards a round
  // of `n_listen` listeners runs on (1 = serial). A parallel engine's round
  // under the listener grain is counted in Stats::parallel_small_rounds.
  int ShardsFor(std::size_t n_listen) const;
  void StepExact(std::span<const std::size_t> transmitters,
                 std::span<const std::size_t> listeners, int shards,
                 std::vector<Reception>& out) const;
  void StepGrid(std::span<const std::size_t> transmitters,
                std::span<const std::size_t> listeners, int shards,
                std::vector<Reception>& out) const;
  // The exact per-listener inner loop, shared by kExact mode, kGrid's
  // fallback for models without a devirtualized kernel, and the
  // near-threshold recheck; returns the reception if SINR clears beta.
  std::optional<Reception> ResolveExact(
      std::size_t u, std::span<const std::size_t> transmitters) const;
  // Builds prologue_ from (tx, listeners): buckets the transmitters into
  // tiles (CSR, occupied tiles ascending), and — for a `sharded` round —
  // counting-sorts the listener ordinals by tile into prologue_.order.
  void BuildPrologue(std::span<const std::size_t> tx,
                     std::span<const std::size_t> listeners,
                     bool sharded) const;
  // The hoisted far-field stage of BuildPrologue: collects the distinct
  // listener tiles and computes each one's far-field bounds + close list,
  // via the pyramid (rounds with >= pyramid_min_occupied occupied tiles)
  // or the flat occupied-tile walk.
  void BuildTileState(std::span<const std::size_t> listeners) const;
  // Resolves listeners into s.pending, tagged with their ordinal and
  // ordinal-sorted: all of them when `all_listeners` is set (a whole
  // serial grid round), else exactly the ones named by `ordinals` (one
  // shard's slice of prologue_.order). The body of one grid shard worker.
  void StepGridRange(const RoundPrologue& P,
                     std::span<const std::size_t> transmitters,
                     std::span<const std::size_t> listeners,
                     bool all_listeners,
                     std::span<const std::uint32_t> ordinals,
                     RoundScratch& s) const;
  // kGrid's batched exact fallback for the pure path-loss model: resolves
  // s.fallback tile by tile, sweeping each tile group's far-field
  // transmitter ranges once per kChunk-listener chunk (kChunk is defined in
  // engine.cc; one AVX-512 register of lanes). Near-threshold SINRs are
  // re-resolved over `transmitters` with the scalar kernel so the
  // reception set is host-invariant.
  void ResolveFallbacksBlocked(const RoundPrologue& P,
                               std::span<const std::size_t> transmitters,
                               RoundScratch& s) const;
  // Grows scratch_ to `shards` entries.
  void EnsureScratch(int shards) const;
  // The fan-out both modes share: runs resolve(lo, hi, scratch_[k]) for
  // every shard k on the pool, [lo, hi) = [n*k/K, n*(k+1)/K) being shard
  // k's slice of the round's listener order, then merges into `out`.
  template <typename Resolve>
  void RunShards(int shards, std::size_t n_listen, const Resolve& resolve,
                 std::vector<Reception>& out) const;
  // Concatenates every shard's pending receptions, restores global
  // listener order, and appends to `out` (allocation-free at steady
  // state). Folds the shards' counter deltas into stats_.
  void MergeShards(int shards, std::vector<Reception>& out) const;

  const Network* net_;
  Options options_;
  Mode mode_ = Mode::kExact;
  int threads_ = 1;                       // resolved, >= 1
  parallel::WorkerPool* pool_ = nullptr;  // set iff threads_ > 1
  mutable Stats stats_;

  // --- Grid-mode state (unused in kExact). ---
  std::optional<SpatialGrid> grid_;
  double near_radius_ = 0.0;  // exact-scan distance
  double far_start_ = 0.0;    // beyond this, tiles share per-listener-tile bounds
  // Set iff the network's model is exactly PathLossModel: the grid hot
  // loops then inline PathLossModel::GainD2 instead of dispatching through
  // the virtual GainFromDistanceSq per link.
  const PathLossModel* pure_path_loss_ = nullptr;

  // The round prologue: rebuilt at the top of every grid round, then read
  // by that round's shards.
  mutable RoundPrologue prologue_;

  // Far-field tile pyramid, rebuilt by each prologue build that descends
  // it from that round's tx CSR. Shards never touch it — they read the
  // hoisted tile state instead.
  mutable FarFieldPyramid pyramid_;

  // Per-worker round state; [0] doubles as the serial scratch.
  mutable std::vector<RoundScratch> scratch_;
  mutable std::vector<std::pair<std::uint32_t, Reception>> merge_;
};

}  // namespace dcc::sinr
