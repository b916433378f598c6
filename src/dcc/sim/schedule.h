// Transmission schedules (paper, Section 3.1): a schedule is a sequence
// S_1..S_t of subsets of [N] (unclustered) or [N]x[N] (clustered); a node
// with id v (and cluster phi) transmits in local round i iff v in S_i
// (resp. (v, phi) in S_i).
//
// `Schedule` is the common interface; concrete schedules wrap the selector
// structures. `Tabulate` evaluates a schedule once over a participant set
// into a `TransmitTable`, and `ExecuteSchedule` runs that table over an
// Exec — the workhorse of every algorithm in the library. The protocols
// replay one exchange stage many times (confirmations, labeling,
// inheritance, MIS rounds), so each replay reads the table instead of
// asking the selector again.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dcc/sel/ssf.h"
#include "dcc/sel/wcss.h"
#include "dcc/sel/wss.h"
#include "dcc/sim/runner.h"

namespace dcc::sim {

class Schedule {
 public:
  virtual ~Schedule() = default;
  virtual std::int64_t size() const = 0;
  // Does (id, cluster) transmit in local round i? Unclustered schedules
  // ignore `cluster`.
  virtual bool Transmits(std::int64_t i, NodeId id, ClusterId cluster) const = 0;
};

class SsfSchedule final : public Schedule {
 public:
  explicit SsfSchedule(sel::Ssf ssf) : ssf_(std::move(ssf)) {}
  std::int64_t size() const override { return ssf_.size(); }
  bool Transmits(std::int64_t i, NodeId id, ClusterId) const override {
    return ssf_.Member(i, id);
  }
  const sel::Ssf& ssf() const { return ssf_; }

 private:
  sel::Ssf ssf_;
};

class WssSchedule final : public Schedule {
 public:
  explicit WssSchedule(sel::Wss wss) : wss_(wss) {}
  std::int64_t size() const override { return wss_.size(); }
  bool Transmits(std::int64_t i, NodeId id, ClusterId) const override {
    return wss_.Member(i, id);
  }

 private:
  sel::Wss wss_;
};

class WcssSchedule final : public Schedule {
 public:
  explicit WcssSchedule(sel::Wcss wcss) : wcss_(wcss) {}
  std::int64_t size() const override { return wcss_.size(); }
  bool Transmits(std::int64_t i, NodeId id, ClusterId cluster) const override {
    return wcss_.Member(i, id, cluster);
  }
  const sel::Wcss& wcss() const { return wcss_; }

 private:
  sel::Wcss wcss_;
};

// A participant in a schedule execution: node index plus the identity the
// schedule keys on.
struct Participant {
  std::size_t index = 0;
  NodeId id = kNoNode;
  ClusterId cluster = kNoCluster;
};

// The position `hear` reports for a listener outside the participant set.
inline constexpr std::size_t kNotParticipant = static_cast<std::size_t>(-1);

// One schedule evaluated over one participant list: for every local round t,
// the positions (into that list) of the participants the schedule selects,
// in ascending order. A CSR; built by `Tabulate`.
class TransmitTable {
 public:
  std::int64_t rounds() const {
    return static_cast<std::int64_t>(offsets_.size()) - 1;
  }
  std::size_t participants() const { return participants_; }

  // The positions selected in local round t, t in [0, rounds()).
  std::span<const std::uint32_t> Selected(std::int64_t t) const;
  // Does local round t select position p?
  bool Selects(std::int64_t t, std::size_t p) const;

 private:
  friend TransmitTable Tabulate(const Schedule& sched,
                                const std::vector<Participant>& parts);

  std::size_t participants_ = 0;
  std::vector<std::size_t> offsets_{0};  // rounds() + 1 entries
  std::vector<std::uint32_t> positions_;
};

// Evaluates `sched.Transmits(t, id, cluster)` once per local round and
// participant. At most 2^32 - 1 participants (InvalidArgument otherwise).
TransmitTable Tabulate(const Schedule& sched,
                       const std::vector<Participant>& parts);

// Runs `table` from its first to last round on `ex`, one Exec round per
// local round (empty rounds included); the participants the table selects
// in round t, in `parts` order, are that round's candidates.
//  * `make_msg(p, t)` produces the message of scheduled participant
//    `parts[p]` (nullopt = stay silent); it is never called for an
//    unscheduled participant.
//  * `hear(listener, p, msg, t)` fires per reception at any listening node
//    of the network: `listener` is its node index, `p` its position in
//    `parts` or kNotParticipant.
// `table` must be tabulated over `parts`; a table for a different
// participant count is rejected. Participant indices must be distinct and
// below `ex.net().size()`. Violations throw InvalidArgument before any
// round runs. Nothing is allocated per local round.
void ExecuteSchedule(
    Exec& ex, const TransmitTable& table, const std::vector<Participant>& parts,
    const std::function<std::optional<Message>(std::size_t, std::int64_t)>&
        make_msg,
    const std::function<void(std::size_t, std::size_t, const Message&,
                             std::int64_t)>& hear);

}  // namespace dcc::sim
