// Domain decomposition for the sharded round engine: a ShardPlan partitions
// the spatial grid's row-major tile range [0, n_tiles) into K *contiguous*
// shards. Contiguity is the load-bearing property: every tile belongs to
// exactly one shard, so all listeners of a tile resolve inside one worker —
// the engine's batched fallback then groups and chunks them exactly as the
// serial sweep does, which is what keeps parallel rounds bit-identical to
// serial execution (see engine.h).
//
// Two cut policies:
//  * kEven     — equal-length tile ranges; oblivious to occupancy.
//  * kBalanced — cut at equal cumulative per-tile weight (the engine passes
//    this round's listeners-per-tile histogram), so dense regions don't
//    serialize behind one worker. The plan is a pure function of
//    (n_tiles, shards, weights) — never of thread scheduling — so results
//    stay deterministic and machine-independent.
//
// Plans are cheap (O(n_tiles)) and rebuilt per parallel round: mobility and
// churn move listeners between tiles every epoch, and re-planning from the
// incrementally maintained SpatialGrid re-balances for free.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace dcc::parallel {

enum class ShardPolicy {
  kEven,      // equal tile ranges
  kBalanced,  // equal cumulative weight per shard (default in the engine)
};

class ShardPlan {
 public:
  ShardPlan() = default;

  // Re-plans in place (buffers are reused across rounds). `weights` must
  // have n_tiles entries under kBalanced and is ignored under kEven;
  // `shards` >= 1. Shards may come out empty when shards > n_tiles or the
  // weight mass is concentrated.
  void Reset(int n_tiles, int shards, ShardPolicy policy,
             std::span<const std::uint32_t> weights);

  int shard_count() const { return static_cast<int>(bounds_.size()) - 1; }

  // Shard k covers tiles [begin(k), end(k)).
  int begin(int k) const { return bounds_[static_cast<std::size_t>(k)]; }
  int end(int k) const { return bounds_[static_cast<std::size_t>(k) + 1]; }

  // The shard owning `tile` (bounds are monotone; binary search over K+1
  // entries).
  int ShardOfTile(int tile) const;

  // The raw cut points: bounds()[k] .. bounds()[k+1] is shard k's tile
  // range.
  std::span<const int> bounds() const { return bounds_; }

 private:
  // bounds_[0] = 0 <= bounds_[1] <= ... <= bounds_[K] = n_tiles.
  std::vector<int> bounds_;
};

}  // namespace dcc::parallel
