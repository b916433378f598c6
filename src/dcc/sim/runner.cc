#include "dcc/sim/runner.h"

#include <algorithm>

namespace dcc::sim {

Exec::Exec(const sinr::Network& net, sinr::Engine::Options engine_options)
    : net_(&net), engine_(net, engine_options) {
  is_tx_.assign(net.size(), 0);
}

void Exec::SetBackgroundTransmitters(std::vector<std::size_t> nodes,
                                     Message msg) {
  for (const std::size_t i : nodes) {
    DCC_REQUIRE(i < net_->size(), "background transmitter index out of range");
  }
  background_ = std::move(nodes);
  background_msg_ = msg;
}

void Exec::SetActivityMask(std::span<const char> mask) {
  DCC_REQUIRE(mask.empty() || mask.size() == net_->size(),
              "SetActivityMask: mask size must equal the node count");
  active_ = mask;
}

int Exec::RunRound(const std::vector<std::size_t>& candidates,
                   const Decide& decide, const Hear& hear) {
  tx_.clear();
  msgs_.clear();
  // Off nodes are filtered on the transmit side too (not just as
  // listeners): a stale candidate list crossing a churn epoch must not put
  // an index-erased node in front of the engine.
  const auto on = [&](std::size_t i) {
    return active_.empty() || active_[i];
  };
  for (const std::size_t i : candidates) {
    DCC_REQUIRE(i < net_->size(), "RunRound: candidate index out of range");
    if (!on(i)) continue;
    if (auto m = decide(i)) {
      tx_.push_back(i);
      msgs_.push_back(*m);
    }
  }
  for (const std::size_t j : background_) {
    if (!on(j)) continue;
    if (std::find(tx_.begin(), tx_.end(), j) == tx_.end()) {
      tx_.push_back(j);
      msgs_.push_back(background_msg_);
    }
  }
  ++round_;
  if (tx_.empty()) {
    if (observer_) observer_(round_ - 1, tx_, {});
    return 0;
  }

  const std::size_t n = net_->size();
  if (slot_of_.size() != n) slot_of_.assign(n, 0);
  for (std::size_t s = 0; s < tx_.size(); ++s) slot_of_[tx_[s]] = s;
  if (active_.empty()) {
    // Every other node listens: the engine's all-listening round, which
    // copies a repeated transmitter sequence from its round memo.
    engine_.StepInto(tx_, receptions_);
  } else {
    for (const std::size_t i : tx_) is_tx_[i] = 1;
    listeners_.clear();
    for (std::size_t u = 0; u < n; ++u) {
      if (!is_tx_[u] && active_[u]) listeners_.push_back(u);
    }
    for (const std::size_t i : tx_) is_tx_[i] = 0;
    engine_.StepInto(tx_, listeners_, receptions_);
  }

  if (observer_) observer_(round_ - 1, tx_, receptions_);
  for (const auto& rec : receptions_) {
    hear(rec.listener, msgs_[slot_of_[rec.sender]]);
  }
  return static_cast<int>(tx_.size());
}

}  // namespace dcc::sim
