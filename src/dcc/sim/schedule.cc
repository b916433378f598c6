#include "dcc/sim/schedule.h"

namespace dcc::sim {

void ExecuteSchedule(
    Exec& ex, const Schedule& sched, const std::vector<Participant>& parts,
    const std::function<std::optional<Message>(std::size_t, std::int64_t)>&
        make_msg,
    const std::function<void(std::size_t, std::size_t, const Message&,
                             std::int64_t)>& hear) {
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
  for (; t < sched.size(); ++t) {
    scheduled.clear();
    for (const Participant& part : parts) {
      if (sched.Transmits(t, part.id, part.cluster)) {
        scheduled.push_back(part.index);
      }
    }
    ex.RunRound(scheduled, decide, deliver);
  }
}

}  // namespace dcc::sim
