#include "dcc/sim/schedule.h"

#include <algorithm>
#include <limits>

namespace dcc::sim {

std::span<const std::uint32_t> TransmitTable::Selected(std::int64_t t) const {
  DCC_REQUIRE(t >= 0 && t < rounds(), "TransmitTable: round out of range");
  const auto i = static_cast<std::size_t>(t);
  return {positions_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
}

bool TransmitTable::Selects(std::int64_t t, std::size_t p) const {
  const std::span<const std::uint32_t> round = Selected(t);
  return p < participants_ &&
         std::binary_search(round.begin(), round.end(),
                            static_cast<std::uint32_t>(p));
}

TransmitTable Tabulate(const Schedule& sched,
                       const std::vector<Participant>& parts) {
  DCC_REQUIRE(parts.size() <= std::numeric_limits<std::uint32_t>::max(),
              "Tabulate: too many participants");
  TransmitTable table;
  table.participants_ = parts.size();
  table.offsets_.reserve(static_cast<std::size_t>(sched.size()) + 1);
  for (std::int64_t t = 0; t < sched.size(); ++t) {
    for (std::size_t p = 0; p < parts.size(); ++p) {
      if (sched.Transmits(t, parts[p].id, parts[p].cluster)) {
        table.positions_.push_back(static_cast<std::uint32_t>(p));
      }
    }
    table.offsets_.push_back(table.positions_.size());
  }
  return table;
}

void ExecuteSchedule(
    Exec& ex, const TransmitTable& table, const std::vector<Participant>& parts,
    const std::function<std::optional<Message>(std::size_t, std::int64_t)>&
        make_msg,
    const std::function<void(std::size_t, std::size_t, const Message&,
                             std::int64_t)>& hear) {
  DCC_REQUIRE(table.participants() == parts.size(),
              "ExecuteSchedule: table was tabulated for another participant "
              "count");
  // Node index -> position in `parts`.
  std::vector<std::size_t> pos(ex.net().size(), kNotParticipant);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    DCC_REQUIRE(parts[p].index < pos.size(),
                "ExecuteSchedule: participant index out of range");
    DCC_REQUIRE(pos[parts[p].index] == kNotParticipant,
                "ExecuteSchedule: duplicate participant index");
    pos[parts[p].index] = p;
  }

  std::vector<std::size_t> scheduled;
  scheduled.reserve(parts.size());
  std::int64_t t = 0;
  const Exec::Decide decide = [&](std::size_t idx) {
    return make_msg(pos[idx], t);
  };
  const Exec::Hear deliver = [&](std::size_t listener, const Message& m) {
    hear(listener, pos[listener], m, t);
  };
  for (; t < table.rounds(); ++t) {
    scheduled.clear();
    for (const std::uint32_t p : table.Selected(t)) {
      scheduled.push_back(parts[p].index);
    }
    ex.RunRound(scheduled, decide, deliver);
  }
}

}  // namespace dcc::sim
