#include "dcc/sim/schedule.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
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

TEST(ExecuteScheduleTest, RunsExactlySizeRounds) {
  const auto net = LineNetwork(4, 0.5);
  Exec ex(net);
  WssSchedule sched(sel::Wss::WithLength(64, 3, 40, 3));
  std::vector<Participant> parts;
  for (std::size_t i = 0; i < net.size(); ++i) {
    parts.push_back({i, net.id(i), kNoCluster});
  }
  ExecuteSchedule(
      ex, sched, parts,
      [&](std::size_t, std::int64_t) {
        Message m;
        return std::optional<Message>(m);
      },
      [](std::size_t, std::size_t, const Message&, std::int64_t) {});
  EXPECT_EQ(ex.rounds(), sched.size());
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
      ex, sched, parts,
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
      ex, sched, parts,
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
                   ex, sched, parts,
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
                   ex, sched, parts,
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
      ex, sched, parts,
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
  // Each call runs twice on one Exec; the second, with every scratch buffer
  // warm, is counted. A per-round allocation would scale the count with the
  // schedule's length.
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
    const WssSchedule sched(sel::Wss::WithLength(64, 3, length, 3));
    ExecuteSchedule(ex, sched, parts, make_msg, hear);
    const std::int64_t before = t_allocations;
    ExecuteSchedule(ex, sched, parts, make_msg, hear);
    counts.push_back(t_allocations - before);
  }
  EXPECT_GT(heard, 0);
  EXPECT_EQ(counts[1], counts[0]);
  EXPECT_EQ(counts[2], counts[0]);
}

}  // namespace
}  // namespace dcc::sim
