#include "dcc/sim/schedule.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "dcc/sim/runner.h"

// Global operator new, replaced to count this thread's allocations.
namespace {
thread_local std::int64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dcc::sim {
namespace {

sinr::Network LineNetwork(int n, double pitch) {
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) pts.push_back({i * pitch, 0.0});
  return sinr::Network::WithSequentialIds(std::move(pts),
                                          sinr::Params::Default());
}

TEST(SsfScheduleTest, TransmitsPerMembership) {
  SsfSchedule sched(sel::Ssf::Construct(64, 3));
  for (std::int64_t i = 0; i < sched.size(); i += 5) {
    for (NodeId v = 1; v <= 64; v += 7) {
      EXPECT_EQ(sched.Transmits(i, v, kNoCluster),
                sched.ssf().Member(i, v));
    }
  }
}

TEST(WcssScheduleTest, KeysOnCluster) {
  WcssSchedule sched(sel::Wcss::WithLength(256, 3, 2, 500, 11));
  bool differs = false;
  for (std::int64_t i = 0; i < sched.size() && !differs; ++i) {
    if (sched.Transmits(i, 5, 1) != sched.Transmits(i, 5, 2)) differs = true;
  }
  EXPECT_TRUE(differs);  // cluster identity must matter
}

// Every (round, participant) of a table agrees with the schedule it was
// tabulated from, for each selector kind; participants 0-2 share cluster 3,
// 3-4 share cluster 9, the rest carry no cluster.
TEST(TransmitTableTest, SelectsWhatTheScheduleTransmits) {
  std::vector<Participant> parts;
  for (std::size_t p = 0; p < 9; ++p) {
    const ClusterId cluster = p < 3 ? 3 : p < 5 ? 9 : kNoCluster;
    parts.push_back({p, static_cast<NodeId>(7 * p + 2), cluster});
  }
  const std::vector<std::shared_ptr<const Schedule>> schedules{
      std::make_shared<SsfSchedule>(sel::Ssf::Construct(64, 3)),
      std::make_shared<WssSchedule>(sel::Wss::WithLength(64, 3, 120, 5)),
      std::make_shared<WcssSchedule>(sel::Wcss::WithLength(64, 3, 2, 300, 11)),
  };
  for (const auto& sched : schedules) {
    const TransmitTable table = Tabulate(*sched, parts);
    ASSERT_EQ(table.rounds(), sched->size());
    EXPECT_EQ(table.participants(), parts.size());
    std::int64_t selected = 0;
    for (std::int64_t t = 0; t < table.rounds(); ++t) {
      for (std::size_t p = 0; p < parts.size(); ++p) {
        EXPECT_EQ(table.Selects(t, p),
                  sched->Transmits(t, parts[p].id, parts[p].cluster))
            << "round " << t << ", position " << p;
      }
      const auto round = table.Selected(t);
      for (std::size_t k = 1; k < round.size(); ++k) {
        EXPECT_LT(round[k - 1], round[k]) << "round " << t;
      }
      selected += static_cast<std::int64_t>(round.size());
      EXPECT_FALSE(table.Selects(t, parts.size()));
    }
    EXPECT_GT(selected, 0);
    EXPECT_THROW(table.Selected(table.rounds()), InvalidArgument);
    EXPECT_THROW(table.Selected(-1), InvalidArgument);
  }
}

// Counts Transmits calls; transmits when (round + id) is divisible by 3.
class CountingSchedule final : public Schedule {
 public:
  explicit CountingSchedule(std::int64_t size) : size_(size) {}
  std::int64_t size() const override { return size_; }
  bool Transmits(std::int64_t i, NodeId id, ClusterId) const override {
    ++calls;
    return (i + id) % 3 == 0;
  }
  mutable std::int64_t calls = 0;

 private:
  std::int64_t size_;
};

TEST(TransmitTableTest, SchedulesAreEvaluatedOnlyByTabulate) {
  const auto net = LineNetwork(5, 0.5);
  Exec ex(net);
  std::vector<Participant> parts;
  for (std::size_t i = 0; i < net.size(); ++i) {
    parts.push_back({i, net.id(i), kNoCluster});
  }
  const CountingSchedule sched(30);
  const TransmitTable table = Tabulate(sched, parts);
  EXPECT_EQ(sched.calls,
            sched.size() * static_cast<std::int64_t>(parts.size()));
  sched.calls = 0;
  std::int64_t sent = 0;
  ExecuteSchedule(
      ex, table, parts,
      [&](std::size_t, std::int64_t) {
        ++sent;
        return std::optional<Message>(Message{});
      },
      [](std::size_t, std::size_t, const Message&, std::int64_t) {});
  EXPECT_EQ(sched.calls, 0);
  EXPECT_EQ(ex.rounds(), sched.size());
  EXPECT_EQ(sent, 50);  // 30 rounds x 5 ids, every third (round + id)
}

TEST(ExecuteScheduleTest, TableForAnotherParticipantCountRejected) {
  const auto net = LineNetwork(4, 0.5);
  Exec ex(net);
  WssSchedule sched(sel::Wss::WithLength(64, 2, 10, 5));
  std::vector<Participant> parts;
  for (std::size_t i = 0; i < net.size(); ++i) {
    parts.push_back({i, net.id(i), kNoCluster});
  }
  const std::vector<Participant> fewer(parts.begin(), parts.begin() + 2);
  const auto run = [&](const TransmitTable& table,
                       const std::vector<Participant>& with) {
    ExecuteSchedule(
        ex, table, with,
        [](std::size_t, std::int64_t) { return std::optional<Message>(); },
        [](std::size_t, std::size_t, const Message&, std::int64_t) {});
  };
  EXPECT_THROW(run(Tabulate(sched, parts), fewer), InvalidArgument);
  EXPECT_THROW(run(Tabulate(sched, parts), {}), InvalidArgument);
  EXPECT_THROW(run(Tabulate(sched, fewer), parts), InvalidArgument);
  EXPECT_EQ(ex.rounds(), 0);
  run(Tabulate(sched, parts), parts);
  EXPECT_EQ(ex.rounds(), sched.size());
}

TEST(ExecuteScheduleTest, RunsExactlySizeRounds) {
  const auto net = LineNetwork(4, 0.5);
  Exec ex(net);
  WssSchedule sched(sel::Wss::WithLength(64, 3, 40, 3));
  std::vector<Participant> parts;
  for (std::size_t i = 0; i < net.size(); ++i) {
    parts.push_back({i, net.id(i), kNoCluster});
  }
  ExecuteSchedule(
      ex, Tabulate(sched, parts), parts,
      [&](std::size_t, std::int64_t) {
        Message m;
        return std::optional<Message>(m);
      },
      [](std::size_t, std::size_t, const Message&, std::int64_t) {});
  EXPECT_EQ(ex.rounds(), sched.size());
  // An empty participant set still runs every (empty) round.
  ExecuteSchedule(
      ex, Tabulate(sched, {}), {},
      [](std::size_t, std::int64_t) { return std::optional<Message>(); },
      [](std::size_t, std::size_t, const Message&, std::int64_t) {});
  EXPECT_EQ(ex.rounds(), 2 * sched.size());
}

TEST(ExecuteScheduleTest, OnlyScheduledParticipantsTransmit) {
  const auto net = LineNetwork(4, 10.0);  // far apart: no receptions
  Exec ex(net);
  WssSchedule sched(sel::Wss::WithLength(64, 2, 64, 5));
  std::vector<Participant> parts;
  for (std::size_t i = 0; i < net.size(); ++i) {
    parts.push_back({i, net.id(i), kNoCluster});
  }
  std::vector<std::vector<char>> sent(net.size());
  for (auto& s : sent) s.assign(static_cast<std::size_t>(sched.size()), 0);
  ExecuteSchedule(
      ex, Tabulate(sched, parts), parts,
      [&](std::size_t p, std::int64_t t) {
        sent[p][static_cast<std::size_t>(t)] = 1;
        Message m;
        return std::optional<Message>(m);
      },
      [](std::size_t, std::size_t, const Message&, std::int64_t) {});
  for (std::size_t i = 0; i < net.size(); ++i) {
    for (std::int64_t t = 0; t < sched.size(); ++t) {
      EXPECT_EQ(static_cast<bool>(sent[i][static_cast<std::size_t>(t)]),
                sched.Transmits(t, net.id(i), kNoCluster));
    }
  }
}

TEST(ExecuteScheduleTest, SilentOptOutRespected) {
  const auto net = LineNetwork(2, 0.5);
  Exec ex(net);
  WssSchedule sched(sel::Wss::WithLength(64, 2, 50, 5));
  std::vector<Participant> parts{{0, net.id(0), kNoCluster},
                                 {1, net.id(1), kNoCluster}};
  int heard = 0;
  ExecuteSchedule(
      ex, Tabulate(sched, parts), parts,
      [&](std::size_t, std::int64_t) { return std::optional<Message>(); },
      [&](std::size_t, std::size_t, const Message&, std::int64_t) {
        ++heard;
      });
  EXPECT_EQ(heard, 0);
}

TEST(ExecuteScheduleTest, DuplicateParticipantRejected) {
  const auto net = LineNetwork(2, 0.5);
  Exec ex(net);
  WssSchedule sched(sel::Wss::WithLength(64, 2, 10, 5));
  std::vector<Participant> parts{{0, net.id(0), kNoCluster},
                                 {0, net.id(0), kNoCluster}};
  EXPECT_THROW(ExecuteSchedule(
                   ex, Tabulate(sched, parts), parts,
                   [](std::size_t, std::int64_t) {
                     return std::optional<Message>();
                   },
                   [](std::size_t, std::size_t, const Message&,
                      std::int64_t) {}),
               InvalidArgument);
}

TEST(ExecuteScheduleTest, OutOfRangeParticipantRejected) {
  const auto net = LineNetwork(4, 0.5);
  Exec ex(net);
  WssSchedule sched(sel::Wss::WithLength(64, 2, 10, 5));
  std::vector<Participant> parts{{0, net.id(0), kNoCluster},
                                 {7, 8, kNoCluster}};
  EXPECT_THROW(ExecuteSchedule(
                   ex, Tabulate(sched, parts), parts,
                   [](std::size_t, std::int64_t) {
                     return std::optional<Message>();
                   },
                   [](std::size_t, std::size_t, const Message&,
                      std::int64_t) {}),
               InvalidArgument);
  EXPECT_EQ(ex.rounds(), 0);
}

TEST(ExecuteScheduleTest, CallbacksReceiveParticipantPositions) {
  // Participants {2, 0} of a 3-node line, listed out of index order; node 1
  // only listens.
  const auto net = LineNetwork(3, 0.4);
  Exec ex(net);
  WssSchedule sched(sel::Wss::WithLength(64, 2, 64, 5));
  const std::vector<Participant> parts{{2, net.id(2), kNoCluster},
                                       {0, net.id(0), kNoCluster}};
  int heard_by_outsider = 0;
  int heard_by_participant = 0;
  ExecuteSchedule(
      ex, Tabulate(sched, parts), parts,
      [&](std::size_t p, std::int64_t t) {
        EXPECT_LT(p, parts.size());
        EXPECT_TRUE(sched.Transmits(t, parts[p].id, kNoCluster));
        Message m;
        m.src = parts[p].id;
        return std::optional<Message>(m);
      },
      [&](std::size_t listener, std::size_t p, const Message&,
          std::int64_t) {
        if (listener == 1) {
          EXPECT_EQ(p, kNotParticipant);
          ++heard_by_outsider;
        } else {
          ASSERT_LT(p, parts.size());
          EXPECT_EQ(parts[p].index, listener);
          ++heard_by_participant;
        }
      });
  EXPECT_GT(heard_by_outsider, 0);
  EXPECT_GT(heard_by_participant, 0);
}

TEST(ExecuteScheduleTest, AllocationsDoNotGrowWithScheduleLength) {
  // Each table is tabulated outside the counted calls (building its CSR
  // allocates) and replayed twice on one Exec; the second replay, with
  // every scratch buffer warm, is counted. A per-round allocation would
  // scale the count with the schedule's length.
  const auto net = LineNetwork(8, 0.5);
  Exec ex(net);
  std::vector<Participant> parts;
  for (std::size_t i = 0; i < net.size(); ++i) {
    parts.push_back({i, net.id(i), kNoCluster});
  }
  const std::function<std::optional<Message>(std::size_t, std::int64_t)>
      make_msg = [&](std::size_t p, std::int64_t) {
        Message m;
        m.src = parts[p].id;
        return std::optional<Message>(m);
      };
  std::int64_t heard = 0;
  const std::function<void(std::size_t, std::size_t, const Message&,
                           std::int64_t)>
      hear = [&](std::size_t, std::size_t, const Message&, std::int64_t) {
        ++heard;
      };
  std::vector<std::int64_t> counts;
  for (const std::int64_t length : {40, 400, 4000}) {
    const TransmitTable table =
        Tabulate(WssSchedule(sel::Wss::WithLength(64, 3, length, 3)), parts);
    ExecuteSchedule(ex, table, parts, make_msg, hear);
    const std::int64_t before = t_allocations;
    ExecuteSchedule(ex, table, parts, make_msg, hear);
    counts.push_back(t_allocations - before);
  }
  EXPECT_GT(heard, 0);
  EXPECT_EQ(counts[1], counts[0]);
  EXPECT_EQ(counts[2], counts[0]);
}

}  // namespace
}  // namespace dcc::sim
