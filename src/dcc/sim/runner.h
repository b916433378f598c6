// Round execution over the SINR engine.
//
// `Exec` is the shared round clock: every protocol stage in a composite
// algorithm advances the same Exec, so measured round counts are end-to-end.
//
// Knowledge discipline: protocol code receives node *indices* for engine
// efficiency but must base decisions only on node-visible state: own ID,
// public parameters (N, Gamma, SINR params, profile), the round counter and
// previously received messages. The cluster algorithms keep per-node state
// in arrays indexed by node and only ever read their own entry + messages.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "dcc/sim/message.h"
#include "dcc/sinr/engine.h"
#include "dcc/sinr/network.h"

namespace dcc::sim {

class Exec {
 public:
  // `engine_options` selects the interference resolution strategy (exact vs
  // grid-indexed) for every round this Exec runs; the default auto mode
  // picks by network size.
  explicit Exec(const sinr::Network& net,
                sinr::Engine::Options engine_options = {});

  using Decide = std::function<std::optional<Message>(std::size_t)>;
  using Hear = std::function<void(std::size_t, const Message&)>;

  // Runs one SINR round.
  //  * `candidates`: indices that may transmit; `decide` is called for each
  //    and a returned message means "transmit". An index >= net().size()
  //    throws InvalidArgument.
  //  * every non-transmitting node is a listener; `hear` fires on each
  //    successful reception (including nodes outside `candidates` — that is
  //    how sleeping nodes get woken in the broadcast problems).
  //  * with no activity mask set, the round is the engine's all-listening
  //    StepInto: the Exec builds no listener list, and a transmitter
  //    sequence the engine has already resolved on these positions is
  //    copied from its round memo (sinr/engine.h, "Round memo"). Under a
  //    mask the Exec lists the nodes that are on and runs the
  //    explicit-listener StepInto, which never memoises. Either way the
  //    receptions are the same bits.
  // Returns the number of transmitters.
  int RunRound(const std::vector<std::size_t>& candidates,
               const Decide& decide, const Hear& hear);

  // Advances the round clock without executing (used to account for stages
  // a node set sits out; keeps measured totals aligned with schedules).
  void ChargeRounds(Round r) {
    DCC_REQUIRE(r >= 0, "ChargeRounds: negative charge");
    round_ += r;
  }

  Round rounds() const { return round_; }
  const sinr::Network& net() const { return *net_; }
  sinr::Engine& engine() { return engine_; }

  // Optional per-round observer (round, transmitter indices, receptions);
  // used by test oracles and benches, never by protocol logic.
  using Observer = std::function<void(Round, const std::vector<std::size_t>&,
                                      const std::vector<sinr::Reception>&)>;
  void SetObserver(Observer obs) { observer_ = std::move(obs); }

  // Failure injection: nodes that transmit `msg` in *every* round
  // (jammers / rogue beacons). They participate in the SINR computation as
  // interferers, their messages are delivered like any other, and they
  // never listen. Protocol code is unaware of them — that is the point.
  void SetBackgroundTransmitters(std::vector<std::size_t> nodes, Message msg);
  void ClearBackgroundTransmitters() { background_.clear(); }

  // Churn (dynamic networks): nodes with mask[i] == 0 are *off* — they
  // neither transmit (candidates and background transmitters are filtered)
  // nor listen, exactly as if powered down, so no round reads their
  // position or grid tile. The mask must outlive the rounds run under it;
  // an empty span restores the everyone-on default. Protocol code
  // stays unaware: departed nodes simply drop out of the member sets the
  // scenario layer passes in.
  void SetActivityMask(std::span<const char> mask);

 private:
  const sinr::Network* net_;
  sinr::Engine engine_;
  Round round_ = 0;
  // scratch, reused across rounds (RunRound is allocation-free after the
  // first few rounds warm these up)
  std::vector<std::size_t> tx_;
  std::vector<Message> msgs_;
  std::vector<std::size_t> listeners_;  // masked rounds only
  std::vector<char> is_tx_;             // masked rounds only
  std::vector<std::size_t> slot_of_;
  std::vector<sinr::Reception> receptions_;
  Observer observer_;
  std::vector<std::size_t> background_;
  Message background_msg_;
  std::span<const char> active_;  // empty = all nodes on
};

}  // namespace dcc::sim
