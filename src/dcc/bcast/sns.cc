#include "dcc/bcast/sns.h"

namespace dcc::bcast {

Round RunSns(sim::Exec& ex, const cluster::Profile& prof,
             const std::vector<sim::Participant>& parts,
             const std::function<std::optional<sim::Message>(std::size_t)>&
                 make_msg,
             const std::function<void(std::size_t, const sim::Message&)>& hear,
             std::uint64_t nonce) {
  const Round start = ex.rounds();
  const auto sns = prof.MakeSns(ex.net().params().id_space, nonce);
  sim::ExecuteSchedule(
      ex, sim::Tabulate(*sns, parts), parts,
      [&](std::size_t p, std::int64_t) -> std::optional<sim::Message> {
        auto m = make_msg(parts[p].index);
        if (m && m->src == kNoNode) m->src = ex.net().id(parts[p].index);
        return m;
      },
      [&](std::size_t listener, std::size_t, const sim::Message& m,
          std::int64_t) { hear(listener, m); });
  return ex.rounds() - start;
}

}  // namespace dcc::bcast
