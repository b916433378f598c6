// Mobility layer: time-varying node positions for dynamic ad hoc networks.
//
// The source paper clusters a static network; the dynamics subsystem grows
// it to the MANET setting (Gavalas et al.; Agarwal's MANET clustering
// survey) where node motion and churn are the defining workload. A
// MobilityModel owns per-node kinematic state and advances all positions by
// one *epoch* of simulated time at a time; between epochs the scenario
// layer re-runs clustering and measures how much of the previous epoch's
// structure survived (see scenario/dynamics.h).
//
// Conventions:
//  * Positions are confined to the model's world Box. Models reflect or
//    re-target at the boundary; they never emit a position outside it, so
//    a SpatialGrid tiled over the world box can re-tile every epoch's
//    positions (SpatialGrid::Retile rejects a point outside its coverage).
//  * All randomness is seed-deterministic (Xoshiro256ss per model): the
//    same seed replays the same trajectories on any host.
//  * Node count is fixed; churn (ChurnProcess, churn.h) toggles *activity*.
//    Inactive nodes keep their slot but do not move; a rejoining node gets
//    fresh kinematic state via Respawn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "dcc/common/geometry.h"

namespace dcc::mobility {

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  // The rectangle every emitted position stays inside.
  virtual const Box& world() const = 0;

  // Adopts the initial placement (one entry per node) and seeds per-node
  // kinematic state. Must be called once, before the first Step.
  virtual void Init(std::span<const Vec2> pos) = 0;

  // Advances simulated time by dt: every node with active[i] != 0 gets a
  // new position written into pos[i]; inactive nodes are left untouched.
  virtual void Step(double dt, std::span<Vec2> pos,
                    std::span<const char> active) = 0;

  // Re-seeds node i's kinematic state after a churn rejoin and returns its
  // spawn position (inside the world box).
  virtual Vec2 Respawn(std::size_t i) = 0;
};

}  // namespace dcc::mobility
