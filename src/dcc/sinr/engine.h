// The SINR round engine: given the set of transmitters in a round, computes
// which listeners successfully receive and from whom (Eq. 1 of the paper).
//
// Because beta > 1, at most one transmitter can satisfy the SINR constraint
// at a given listener, so reception resolves to "the strongest transmitter,
// if its SINR clears beta" — the engine computes exactly that.
//
// Two interference resolution strategies, both resolving only the
// listeners within some transmitter's reception reach (below):
//  * kExact — brute force O(|T|) per listener within reach. The semantic
//    reference and test oracle. One transmitter-major kernel
//    (ResolveExact) does every exact resolution: it collects the in-reach
//    listeners in listener order, adds each transmitter's gains at them
//    into per-listener sums, in the order the round lists its
//    transmitters, then computes every SINR in one pass. The gains are
//    gathered from each transmitter's row of the engine's gain table; above
//    kGainMatrixLimit they are computed from the lanes' and the
//    transmitters' coordinates (and, under shadowing, ids) by the gain
//    kernel (sinr/gain_kernel.h). Its order rules keep every bit of the
//    per-listener definition: a listener's sum starts from 0.0 + g and
//    adds its gains in transmitter order; its strongest transmitter
//    changes only on a strictly larger gain, so the first maximal one
//    wins; the table gather multiplies nothing, so no clone contracts an
//    FMA, and the gain kernel computes PathLossModel::Gain's correctly
//    rounded bits in every variant.
//  * kGrid — rounds of at most kExactMaxTransmitters transmitters run the
//    exact kernel above, SINR bits and all (see "One rule per round"
//    below). A larger round is resolved by the grid path: a uniform
//    spatial index (common/spatial_grid.h) buckets the round's
//    transmitters into tiles. Near-field tiles are scanned exactly by the
//    gain kernel, eight listeners of a tile at a time, shadowed or not;
//    mid- and far-field tiles contribute conservative interference bounds
//    through the propagation model's distance envelope (the mid tiles'
//    from the bounds kernel, sinr/gain_kernel.h). The bounds prune
//    listeners whose best-case SINR cannot clear beta (the common case in
//    dense rounds); every listener that might receive is resolved exactly
//    by a batched far-field sweep (a hand-written AVX-512 one for alpha = 3
//    without shadowing on avx512f hosts, the gain kernel otherwise), so
//    the reception set matches kExact and reported SINR values agree to
//    >= 9 significant digits (floating-point reassociation only; at extreme
//    SINRs the agreement degrades by an additional eps * |T| * sinr factor
//    from cancellation in the interference subtraction, which affects both
//    modes equally).
// kAuto picks kExact up to kGainMatrixLimit nodes, where every engine keeps
// its gain table, and kGrid above that size.
//
// --- One rule per round ---
// StepInto picks the resolution once per round from the round's own
// transmitter count |T|: at most kExactMaxTransmitters runs StepExact in
// every mode; only a kGrid round with more builds the prologue and runs
// the bounds, the fallback and the pyramid. The paper's clustering runs
// 10^5-10^6 rounds of a few transmitters each, and on those the grid
// path's per-round index costs more than the O(|T|) sweep it saves.
//
// --- Reception reach ---
// Every reception has a gain of at least beta * noise (SINR <= gain /
// noise), so no listener farther than the reach radius r from every
// transmitter can receive: r is the smallest distance (to bisection
// precision) with PathLossModel::MaxGainD2(r * r) < beta * noise *
// (1 - 1e-6), about 1 at the paper's P = N * beta. Each engine keeps, for
// every node, the nodes within r of it (itself included) as a CSR, built
// by one PointGrid::ForNear query per node (common/geometry.h), and each
// round stamps its transmitters' reach into a per-node mark; an unmarked
// listener is skipped without a gain evaluation, after the
// transmitter-cannot-listen check (in the exact kernel, its first step:
// every listener is checked, and only the marked ones become its lanes,
// still in listener order). The skip is invisible outside timing:
// the 1e-6 margin dwarfs the rounding of every gain and bound, so a
// listener beyond r never clears beta in the exact kernel, and on kGrid's
// grid path, where r must not exceed the near radius (>= 2) for the reach
// to be used, its stage-1 bounds already prune it, so it is counted in
// Stats::grid_pruned either way. That also covers the nodes the query's
// rule (d^2 <= r^2 + 1e-12) marks just beyond r: they are resolved and
// miss beta, or pruned. The reach is not built when r covers the whole
// network or the CSR would exceed max(64 n, 2^22) entries (never for
// n <= 2048); every listener is then resolved.
//
// --- Moving nodes ---
// Engines follow Network::SetPositions by themselves: the first StepInto
// after a move (Network::positions_version() changed) re-tiles the grid,
// refills the gain table, rebuilds the reach and clears the round memo
// (FollowPositions, the one function that refreshes every
// position-derived structure a round reads), so no engine, exact or grid,
// resolves a round against stale positions. The tiling is fixed at
// construction, so every position must stay inside Options::coverage
// (StepInto throws InvalidArgument otherwise).
//
// --- Parallel sharded rounds (Options::threads) ---
// Either strategy can run one round across K shards on the process-wide
// parallel::WorkerPool, and both cut it one way: shard k resolves the equal
// slice [n*k/K, n*(k+1)/K) of one order of the round's n listeners — the
// call order for the exact kernel, the listeners stably sorted by tile on
// the grid path (so a shard's batched fallback groups stay full; a serial
// grid round walks the same order, as one shard run inline). Every
// worker reads the whole read-only round state (the "halo" by reference)
// and owns its whole scratch, and the fallback's lanes are independent
// accumulators, so a listener's reception is a pure function of
// (listener, round state): with the merge emitting receptions in listener
// order, any cut gives the reception set AND every SINR bit of serial
// execution. Rounds below kMinListenersPerShard * K listeners run serially
// (the dispatch would cost more than the round). Nested engines (inside a
// sweep job) dispatch too: idle pool workers steal their shard tickets, so
// the tail of a sweep donates its freed threads to the runs still going.
//
// --- One grid-path round ---
// A round the grid path resolves is three stages: BuildPrologue (the
// transmitter CSR by tile, the tile-sorted listener order, and the
// hoisted per-listener-tile far-field state, all collected in the single
// RoundPrologue member), then the shard fan-out (StepGridRange per shard,
// reading the prologue; a serial round is one shard, run inline), then
// the merge into listener order. A shard resolves its slice in two kinds
// of group of up to kernel::kGainLanes listeners of one tile
// (ResolveLaneGroup). A lane group, in-reach listeners taken in a row from
// the tile-sorted slice, runs stage 1: the bounds kernel
// (kernel::AddTileBounds) splits the tile's close list into near and mid
// tiles for all its lanes at once and bounds the mid ones, the gain kernel
// scans the near ones exactly, and stage 1's prune follows. The lanes it
// keeps join the tile's survivor group, which carries across the shard's
// lane groups; when the tile changes, when it is full and at the end of
// the slice, the survivor group runs stage 2 (exact mid-tile scans), its
// prune and the fallback's queue (ResolveSurvivors). Each lane adds in the
// per-listener order (near tiles, then mid tiles, each in close-list
// order, CSR order within a tile, the strongest changing only on a
// strictly larger gain), and the fallback queue stays in (tile, ordinal)
// order, so a lane's sums, bounds and prune decisions keep every bit
// wherever a group or a shard cut falls.
//
// --- Round memo ---
// The paper's protocols replay every selector stage many times, and on a
// fixed network a round in which every other node listens is a pure
// function of its transmitter sequence. So the all-listening StepInto
// keeps the receptions of the rounds the exact kernel resolves (kExact,
// and kGrid rounds of at most kExactMaxTransmitters) and copies them out
// when the same sequence comes back.
//  * Key: the transmitter sequence, order included, since a listener's
//    sum adds its gains in transmitter order (a set in two orders is two
//    entries).
//  * A hit clears `out` and appends the stored (listener, sender, SINR
//    bits) receptions. It counts rounds, transmissions and receptions and
//    opens one engine.round span, as a resolved round does, and allocates
//    nothing. It dispatches nothing either, so parallel_rounds and
//    parallel_small_rounds count only the rounds the engine resolves.
//  * Never kept: rounds of the explicit-listener StepInto and rounds the
//    grid path resolves.
//  * FollowPositions clears the memo, so a hit never outlives the
//    positions it was resolved on.
//  * Budget: kRoundMemoRecords 16-byte records, reserved on first use and
//    cleared whole when an entry does not fit. An entry is a header
//    record, its key four transmitters to a record, and one record per
//    reception; an open-addressed index of entry offsets, kept at most
//    half full, grows with the entries.
// The budget, swept on the share of non-empty rounds that hit, with
// dcc_run --algo=clustering: on clustering_dense's networks
// (uniform:n=64,side=1.768, seeds 1..16) 91.5% at 2^17 records against
// 93.9% with no bound; on uniform:n=256,side=8 71.7% against 81.4%; on
// uniform:n=1024 54.5%; on uniform:n=2500,side=25, where kAuto picks kGrid
// and the grid path's rounds are never kept, 18.7%, and its run time did
// not move.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dcc/common/spatial_grid.h"
#include "dcc/sinr/farfield.h"
#include "dcc/sinr/gain_kernel.h"
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
    kAuto,   // kExact up to kGainMatrixLimit nodes, kGrid beyond
    kExact,  // brute-force oracle
    kGrid,   // spatial-index pruning + exact fallback above
             // kExactMaxTransmitters, the exact kernel up to it
  };

  // Listener grain: a round with fewer than kMinListenersPerShard * K
  // listeners runs serially even when threads > 1 (counted in
  // Stats::parallel_small_rounds). Per-shard dispatch costs roughly the
  // resolution of a handful of listeners, so grains below ~8 pay pool
  // overhead for rounds too small to amortize it, while larger grains
  // start serializing mid-sized rounds.
  static constexpr std::size_t kMinListenersPerShard = 8;

  // Resolution cutover: a round of at most this many transmitters runs the
  // exact kernel in every mode; only a larger kGrid round takes the grid
  // path. Set by a sweep of StepInto per round, kGrid's grid path against
  // kExact (random |T|-subsets, the other nodes listening, best of 5 per
  // subset, mean of 5 subsets; 4-core Xeon, avx512f, gcc 12.2, Release).
  // With the gain table (n = 1024 at side 5, n = 2048 at sides 7 and 20)
  // the exact kernel won at every |T| up to 512, by 3.3-19x. Without the
  // table, where both sides run the gain kernel (sinr/gain_kernel.h),
  // exact against grid: n = 4096, side 5: 499 vs 1328 us at |T| = 64,
  // 966 vs 1832 at 128, 1846 vs 2429 at 256, 3541 vs 3838 at 512; side 28:
  // 105 vs 295, 364 vs 751, 1125 vs 1465, 2834 vs 2063; n = 16384, where
  // no reach is built, side 10: 1902 vs 4576, 3820 vs 7325, 7178 vs 9723,
  // 13970 vs 12784; side 56: 144 vs 552, 473 vs 1117, 1729 vs 2428, 6159
  // vs 5104. So the exact kernel wins up to |T| = 256 on all four and the
  // grid path at 512 on three. (Before the gain kernel the same sweep
  // had the exact kernel ahead at 64 only, the grid ahead from 256.) 64
  // keeps a margin below every crossover measured.
  static constexpr std::size_t kExactMaxTransmitters = 64;

  // Gain table limit: an engine on a network of 0 < n <= kGainMatrixLimit
  // nodes keeps every pairwise gain, Network::Gain(i, j) at [i * n + j]
  // (n^2 doubles, 32 MiB at the limit), in every mode, read only by the
  // exact kernel; every other gain comes from the gain kernel.
  // kAuto resolves to kExact up to the limit and to kGrid beyond.
  static constexpr std::size_t kGainMatrixLimit = 2048;

  // Round memo budget (see "Round memo" above): 2^17 records of 16 bytes,
  // 2 MiB, plus an index of at most 2^17 4-byte slots.
  static constexpr std::size_t kRoundMemoRecords = std::size_t{1} << 17;

  struct Options {
    Mode mode = Mode::kAuto;
    // Grid tile side; 0 picks a density-based default (~64 nodes/tile).
    double cell = 0.0;
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

  // The all-listening round: every node that does not transmit listens, in
  // node order, so the receptions equal the explicit form's on that
  // listener list, bit for bit. The rounds the exact kernel resolves are
  // kept in the round memo and a repeated transmitter sequence is copied
  // from it (see "Round memo" above).
  void StepInto(std::span<const std::size_t> transmitters,
                std::vector<Reception>& out) const;

  const Network& net() const { return *net_; }

  // The resolved strategy (never kAuto).
  Mode mode() const { return mode_; }
  const Options& options() const { return options_; }

  // Resolved shard count (>= 1; Options::threads with 0 resolved to the
  // shared pool's parallelism).
  int threads() const { return threads_; }

  // Cumulative counters (diagnostics for benches).
  struct Stats {
    std::int64_t rounds = 0;
    std::int64_t transmissions = 0;
    std::int64_t receptions = 0;
    // Grid mode only, and only the rounds the grid path resolves (more
    // than kExactMaxTransmitters transmitters): listeners rejected by
    // interference bounds alone vs listeners resolved by the exact fallback
    // loop.
    std::int64_t grid_pruned = 0;
    std::int64_t grid_exact_fallbacks = 0;
    // Parallel engines only (threads() > 1): rounds dispatched across
    // shards vs rounds run serially because they fell under the listener
    // grain (a round memo hit counts in neither). Both depend on the thread
    // count, so they are telemetry (AddStatsToMetrics), never part of a
    // report.
    std::int64_t parallel_rounds = 0;
    std::int64_t parallel_small_rounds = 0;
    // Per-listener-tile far-field states computed by prologue builds (one
    // per distinct listener tile per round the grid path resolves; a tile
    // whose listeners span two shards is computed once, not once per
    // shard).
    std::int64_t tile_states_computed = 0;
  };
  const Stats& stats() const { return stats_; }
  // Counters accumulate through const Steps (they are diagnostics, not
  // logical state), so resetting them is const as well.
  void ResetStats() const { stats_ = {}; }
  // Adds rounds, receptions, parallel_rounds, parallel_small_rounds and
  // tile_states_computed to the process metrics registry:
  // dcc_engine_rounds_total, dcc_engine_receptions_total,
  // dcc_engine_rounds_dispatched_total, dcc_engine_rounds_under_grain_total
  // and dcc_engine_tile_states_total. The scenario runners call it once
  // per run that returns, so no round pays for it and a run that throws
  // adds nothing to any of the five.
  void AddStatsToMetrics() const;

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
    std::vector<std::size_t> tx_start;    // CSR offsets per tile
    std::vector<std::size_t> tx_fill;     // scatter cursors
    std::vector<std::size_t> tx_members;  // transmitters by tile
    std::vector<double> tx_sx;
    std::vector<double> tx_sy;
    std::vector<NodeId> tx_id;     // ids in CSR order (the kernel's)
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
    // Parallel to close_pool: each close tile's box and transmitter count,
    // as stage 1's bounds kernel reads them.
    std::vector<kernel::CloseTile> close_tiles;

    // Listener ordinals stably sorted by tile: the order every grid round
    // walks, and shards cut into equal slices.
    std::vector<std::uint32_t> order_fill;  // scatter cursors per tile
    std::vector<std::uint32_t> order;
  };

  // The exact kernel's lanes (ResolveExact): one entry per in-reach
  // listener of the call, in listener order.
  struct ExactLanes {
    std::vector<std::uint32_t> node;  // the listener
    std::vector<double> total;        // gains summed so far...
    std::vector<double> best;         // ...the strongest of them...
    std::vector<std::size_t> best_k;  // ...and its transmitter's position
    std::vector<double> sinr;
    std::vector<std::uint32_t> hit;   // the lanes whose SINR clears beta
    std::vector<const double*> rows;  // the transmitters' gain rows
    // Without the table: the lanes' and the transmitters' (in call order)
    // coordinates, and under shadowing their ids.
    std::vector<double> x, y, tx_x, tx_y;
    std::vector<NodeId> id, tx_id;
  };

  // Lanes of the grid path (StepGridRange): up to kernel::kGainLanes
  // in-reach listeners of one tile, resolved together; entry j is lane j.
  // A shard keeps two groups: the lane group stage 1 resolves, taken in a
  // row from its slice of the tile-sorted order, and the survivor group
  // stage 2 resolves, which collects the lanes stage 1 keeps.
  struct GridLanes {
    GridLanes();  // sizes every per-lane vector to kernel::kGainLanes
    std::size_t m = 0;                   // lanes in use, [0, m)
    std::size_t tile = 0;                // their tile
    std::vector<std::uint32_t> ordinal;  // the listener's ordinal...
    std::vector<std::size_t> node;       // ...and node
    std::vector<double> x, y;            // its position
    std::vector<NodeId> id;              // its id
    std::vector<double> close_sum;       // exact near, then mid, gains...
    std::vector<double> best;            // ...the strongest of them...
    std::vector<std::size_t> best_slot;  // ...and its transmitter's CSR slot
    // Per close tile of `tile`, in close-list order: the lanes whose exact
    // scan of it is this group's to run (bit j for lane j). In the lane
    // group, the lanes it is near (stage 1); in the survivor group, the
    // lanes it is mid for (stage 2).
    std::vector<std::uint8_t> scan;
  };

  // One worker's whole mutable state for one round: the grid path's lane
  // group, the deferred-fallback queue, the exact kernel's lanes and the
  // (ordinal, Reception) pairs it produced (shards read the
  // per-listener-tile far-field state from the prologue, they never build
  // it). Serial rounds use scratch_[0]; a K-shard round uses
  // scratch_[0..K) with no sharing, which is what makes the fan-out
  // race-free by construction.
  struct RoundScratch {
    GridLanes lanes;      // stage 1's lane group
    GridLanes survivors;  // stage 2's survivor group
    ExactLanes exact;
    std::vector<GridFallback> fallback;
    // Receptions tagged with their listener ordinal; sorted by ordinal at
    // the end of a range so the merge is a deterministic concatenation.
    std::vector<std::pair<std::uint32_t, Reception>> pending;
    std::vector<std::pair<std::size_t, std::size_t>> far_ranges;
    // Round-local counter deltas, folded into stats_ after the join.
    std::int64_t pruned = 0;
    std::int64_t exact_fallbacks = 0;
  };

  // The reception reach (see "Reception reach" above): the nodes within
  // reach_radius_ of every node as a CSR, rebuilt for every new set of
  // positions, and the per-node stamp of the current round's transmitters'
  // reach.
  struct ReceptionReach {
    bool on = false;  // false: no reach, every listener is resolved
    std::vector<std::size_t> start;      // CSR offsets per node (n + 1)
    std::vector<std::uint32_t> members;  // the nodes within reach, by node
    std::vector<std::uint32_t> mark;     // == stamp: in reach this round
    std::uint32_t stamp = 0;
  };

  // The round memo (see "Round memo" above). Its callers hash a sequence
  // once (Hash) and pass the hash to Find and, on a miss, to Insert.
  class RoundMemo {
   public:
    static std::uint64_t Hash(std::span<const std::size_t> transmitters);
    // Clears `out` and appends the receptions kept for `transmitters`;
    // false, with `out` untouched, when it has no entry.
    bool Find(std::uint64_t hash, std::span<const std::size_t> transmitters,
              std::vector<Reception>& out) const;
    // Keeps `receptions` for `transmitters`, which Find did not know,
    // clearing the whole memo first if the entry does not fit in what is
    // left of the budget. An entry larger than the budget is not kept.
    void Insert(std::uint64_t hash, std::span<const std::size_t> transmitters,
                std::span<const Reception> receptions);
    void Clear();

   private:
    // A header {|T|, reception count, hash low, hash high}, four
    // transmitters of a key, or a reception {listener, sender, SINR bits
    // low, high}.
    using Record = std::array<std::uint32_t, 4>;
    // The entry at records_[at] holds `transmitters`.
    bool Holds(std::size_t at, std::uint64_t hash,
               std::span<const std::size_t> transmitters) const;
    // Places the entry at records_[at] in the index.
    void Index(std::size_t at, std::uint64_t hash);
    std::vector<Record> records_;       // entries, back to back
    std::vector<std::uint32_t> slots_;  // entry offset + 1; 0 is empty
    std::size_t entries_ = 0;
  };

  // Re-tiles the grid, refills gain_, rebuilds the reach and clears the
  // round memo for the network's current positions (the first StepInto
  // after a SetPositions calls it).
  void FollowPositions() const;
  // Fills gain_ row-major from Network::Gain when 0 < n <=
  // kGainMatrixLimit; leaves it empty otherwise.
  void FillGains() const;
  // Rebuilds reach_ from the current positions: one PointGrid over them
  // (common/geometry.h, cells of side >= reach_radius_) and one ForNear
  // query per node. Leaves reach_.on false when no listener could be
  // skipped or the CSR would outgrow its cap.
  void BuildReach() const;
  // Stamps every transmitter's reach into reach_.mark for this round.
  void StampReach(std::span<const std::size_t> transmitters) const;
  // Whether some transmitter of the stamped round might reach `u`.
  bool InReach(std::size_t u) const {
    return !reach_.on || reach_.mark[u] == reach_.stamp;
  }

  // The body both StepIntos share, for a round with transmitters and
  // listeners on current positions: stamps the reach, marks the
  // transmitters, runs StepGrid or StepExact and counts the receptions.
  void ResolveRound(std::span<const std::size_t> transmitters,
                    std::span<const std::size_t> listeners,
                    std::vector<Reception>& out) const;
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
  // The exact kernel (kExact, above), shared by kExact rounds and shards
  // and kGrid's near-threshold recheck: resolves `listeners` against every
  // transmitter in the lanes L and calls emit(reception) for each
  // reception, in listener order.
  template <typename Emit>
  void ResolveExact(std::span<const std::size_t> transmitters,
                    std::span<const std::size_t> listeners, ExactLanes& L,
                    const Emit& emit) const;
  // Step 2 of the exact kernel without the gain table: adds every
  // transmitter's gains at lanes [0, m) of L, computed by the gain kernel
  // from their coordinates (and their ids, gathered only under shadowing).
  void AddCoordinateGains(std::span<const std::size_t> transmitters,
                          std::size_t m, ExactLanes& L) const;
  // Builds prologue_ from (tx, listeners): buckets the transmitters into
  // tiles (CSR, occupied tiles ascending) and counting-sorts the listener
  // ordinals by tile into prologue_.order.
  void BuildPrologue(std::span<const std::size_t> tx,
                     std::span<const std::size_t> listeners) const;
  // The hoisted far-field stage of BuildPrologue: collects the distinct
  // listener tiles and computes each one's far-field bounds + close list,
  // via the pyramid (rounds with >= pyramid_min_occupied occupied tiles)
  // or the flat occupied-tile walk.
  void BuildTileState(std::span<const std::size_t> listeners) const;
  // Resolves the listeners named by `ordinals` (one shard's slice of
  // prologue_.order) into s.pending, tagged with their ordinal and
  // ordinal-sorted, one lane group at a time, then the last survivor group
  // and the batched fallback. The body of one grid shard.
  void StepGridRange(const RoundPrologue& P,
                     std::span<const std::size_t> transmitters,
                     std::span<const std::size_t> listeners,
                     std::span<const std::uint32_t> ordinals,
                     RoundScratch& s) const;
  // Stage 1 of the grid path for the lane group s.lanes: the bounds
  // kernel's mid-tile bounds and near/mid split, the exact near-tile scans
  // and stage 1's prune. The lanes it keeps join s.survivors, which is
  // resolved first when it holds another tile's lanes and whenever it
  // fills up.
  void ResolveLaneGroup(const RoundPrologue& P, RoundScratch& s) const;
  // Stages 2 and 3 for the survivor group s.survivors, which it empties:
  // the exact mid-tile scans, stage 2's prune, and the batched fallback's
  // queue for the lanes that might receive.
  void ResolveSurvivors(const RoundPrologue& P, RoundScratch& s) const;
  // The exact scan of close tile b's transmitters for the lanes of L in
  // `lanes`.
  void ScanCloseTile(const RoundPrologue& P, int b, unsigned lanes,
                     GridLanes& L) const;
  // kGrid's batched exact fallback: resolves s.fallback tile by tile,
  // sweeping each tile group's far-field transmitter ranges once per
  // kChunk-listener chunk (kChunk is defined in engine.cc; one AVX-512
  // register of lanes). Near-threshold SINRs are re-resolved over
  // `transmitters` by the exact kernel so the reception set is
  // host-invariant.
  void ResolveFallbacksBlocked(const RoundPrologue& P,
                               std::span<const std::size_t> transmitters,
                               RoundScratch& s) const;
  // Grows scratch_ to `shards` entries.
  void EnsureScratch(int shards) const;
  // The fan-out both modes share: runs resolve(lo, hi, scratch_[k]) for
  // every shard k on the pool, [lo, hi) = [n*k/K, n*(k+1)/K) being shard
  // k's slice of the round's listener order, then merges into `out`. One
  // shard runs inline, without the pool (a serial grid round).
  template <typename Resolve>
  void RunShards(int shards, std::size_t n_listen, const Resolve& resolve,
                 std::vector<Reception>& out) const;
  // Concatenates every shard's pending receptions, restores global
  // listener order (one shard's need no sort), and appends to `out`
  // (allocation-free at steady state). Folds the shards' counter deltas
  // into stats_.
  void MergeShards(int shards, std::vector<Reception>& out) const;

  const Network* net_;
  Options options_;
  Mode mode_ = Mode::kExact;
  int threads_ = 1;                       // resolved, >= 1
  parallel::WorkerPool* pool_ = nullptr;  // set iff threads_ > 1
  mutable Stats stats_;

  // Per-node marks of the current round's transmitters (set by StepInto,
  // cleared at the end of the round; both modes).
  mutable std::vector<char> is_tx_;

  // The all-listening StepInto's listeners (every other node) and its
  // memo, cleared by FollowPositions.
  mutable std::vector<std::size_t> all_listeners_;
  mutable RoundMemo memo_;

  // The gain table (see kGainMatrixLimit; both modes), refilled for every
  // new set of positions and read only by ResolveExact.
  mutable std::vector<double> gain_;

  // --- Reception reach (both modes). ---
  // Infinity when unused: the envelope never drops below the threshold, or
  // (kGrid) r exceeds near_radius_.
  double reach_radius_ = 0.0;
  mutable std::uint64_t positions_version_ = 0;  // the indexed positions
  mutable ReceptionReach reach_;

  // --- Grid-mode state (unused in kExact). ---
  mutable std::optional<SpatialGrid> grid_;  // re-tiled by FollowPositions
  double near_radius_ = 0.0;  // exact-scan distance
  double far_start_ = 0.0;    // beyond this, tiles share per-listener-tile bounds

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
