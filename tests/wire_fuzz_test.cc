// Property/fuzz coverage for the frame transport (common/wire.{h,cc}),
// exercised the way a hostile or flaky peer would: real socketpairs with
// adversarial 1-3 byte dribble writes, frames truncated mid-payload and
// mid-header, oversized length prefixes, and EINTR storms against both the
// reading and the writing side. The invariants: a complete frame is always
// reassembled bit-exactly, anything malformed throws WireError, and nothing
// ever crashes, hangs, or reads past a buffer.
#include <gtest/gtest.h>

#include <csignal>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "dcc/common/rng.h"
#include "dcc/common/wire.h"

namespace dcc::wire {
namespace {

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    a = sv[0];
    b = sv[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  void CloseA() {
    ::close(a);
    a = -1;
  }
};

std::string RandomBytes(Xoshiro256ss& rng, std::size_t len) {
  std::string s(len, '\0');
  for (auto& c : s) c = static_cast<char>(rng.NextBelow(256));
  return s;
}

// The 4-byte big-endian header WriteFrame would emit.
std::string Header(std::uint32_t len) {
  std::string h(4, '\0');
  h[0] = static_cast<char>(len >> 24);
  h[1] = static_cast<char>(len >> 16);
  h[2] = static_cast<char>(len >> 8);
  h[3] = static_cast<char>(len);
  return h;
}

TEST(WireFuzz, FramesRoundTripAcrossSocketpair) {
  SocketPair sp;
  Xoshiro256ss rng(42);
  std::vector<std::string> sent;
  for (const std::size_t len : {0ul, 1ul, 2ul, 37ul, 4096ul, 100000ul}) {
    sent.push_back(RandomBytes(rng, len));
  }
  std::thread writer([&] {
    for (const std::string& p : sent) WriteFrame(sp.a, p);
  });
  std::string got;
  for (const std::string& p : sent) {
    ASSERT_TRUE(ReadFrame(sp.b, &got));
    EXPECT_EQ(got, p);
  }
  writer.join();
}

// A peer that dribbles 1-3 bytes at a time (short reads on our side) must
// still produce bit-exact frames.
TEST(WireFuzz, DribbledWritesReassemble) {
  SocketPair sp;
  Xoshiro256ss rng(7);
  const std::string payload = RandomBytes(rng, 997);
  const std::string raw = Header(static_cast<std::uint32_t>(payload.size())) +
                          payload;
  std::thread writer([&] {
    Xoshiro256ss wrng(8);
    std::size_t off = 0;
    while (off < raw.size()) {
      const std::size_t n =
          std::min(raw.size() - off, 1 + wrng.NextBelow(3));
      ASSERT_EQ(::send(sp.a, raw.data() + off, n, MSG_NOSIGNAL),
                static_cast<ssize_t>(n));
      off += n;
    }
  });
  std::string got;
  ASSERT_TRUE(ReadFrame(sp.b, &got));
  EXPECT_EQ(got, payload);
  writer.join();
}

TEST(WireFuzz, CleanEofAtFrameBoundaryReturnsFalse) {
  SocketPair sp;
  sp.CloseA();
  std::string got;
  EXPECT_FALSE(ReadFrame(sp.b, &got));
}

TEST(WireFuzz, TruncationMidHeaderThrows) {
  for (std::size_t cut = 1; cut < 4; ++cut) {
    SocketPair sp;
    const std::string h = Header(100);
    ASSERT_EQ(::send(sp.a, h.data(), cut, MSG_NOSIGNAL),
              static_cast<ssize_t>(cut));
    sp.CloseA();
    std::string got;
    EXPECT_THROW(ReadFrame(sp.b, &got), WireError) << "cut at " << cut;
  }
}

TEST(WireFuzz, TruncationMidPayloadThrows) {
  Xoshiro256ss rng(11);
  for (const std::size_t cut : {0ul, 1ul, 99ul, 255ul}) {
    SocketPair sp;
    const std::string payload = RandomBytes(rng, 256);
    const std::string raw =
        Header(static_cast<std::uint32_t>(payload.size())) +
        payload.substr(0, cut);
    ASSERT_EQ(::send(sp.a, raw.data(), raw.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(raw.size()));
    sp.CloseA();
    std::string got;
    EXPECT_THROW(ReadFrame(sp.b, &got), WireError) << "cut at " << cut;
  }
}

// A hostile length prefix must be rejected from the 4 header bytes alone —
// before any allocation, and without trying to read 4 GiB.
TEST(WireFuzz, OversizedLengthPrefixThrows) {
  for (const std::uint32_t len :
       {static_cast<std::uint32_t>(kMaxFrameBytes) + 1, 0xFFFFFFFFu}) {
    SocketPair sp;
    const std::string h = Header(len);
    ASSERT_EQ(::send(sp.a, h.data(), h.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(h.size()));
    std::string got;
    EXPECT_THROW(ReadFrame(sp.b, &got), WireError);
  }
  // Writing oversized is equally rejected (no partial frame escapes).
  SocketPair sp;
  EXPECT_THROW(WriteFrame(sp.a, std::string(kMaxFrameBytes + 1, 'x')),
               WireError);
}

// EINTR storm: a signal handler installed WITHOUT SA_RESTART makes every
// blocking read()/send() eligible to fail with EINTR; the frame layer must
// retry transparently on both sides. The writer pushes a frame well past
// the socket buffer so the writing side blocks (and gets interrupted) too.
std::atomic<int> g_sigusr1_count{0};

// True once the sending side stops polling writable: the socket buffer is
// full and a writer pushing more blocks until the peer reads.
bool SendBufferFull(int fd) {
  pollfd p{fd, POLLOUT, 0};
  return ::poll(&p, 1, 0) == 0;  // -1 (EINTR) counts as not yet full
}

TEST(WireFuzz, EintrStormOnBothSidesIsTransparent) {
  struct sigaction sa = {};
  sa.sa_handler = [](int) { g_sigusr1_count.fetch_add(1); };
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction old = {};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  SocketPair sp;
  Xoshiro256ss rng(13);
  const std::string payload = RandomBytes(rng, 4u << 20);  // >> socket buffer

  const pthread_t main_thread = pthread_self();
  std::atomic<bool> reader_started{false};
  std::atomic<bool> done{false};
  pthread_t reader_thread{};

  std::string got;
  std::thread reader([&] {
    reader_thread = pthread_self();
    reader_started.store(true);
    // The storm overlaps the blocked transfer by construction: nothing
    // drains the socket until the frame has filled its buffer and signals
    // have landed since, so they reach a writer stuck in WriteFrame.
    while (!SendBufferFull(sp.a)) std::this_thread::yield();
    const int before = g_sigusr1_count.load();
    while (g_sigusr1_count.load() < before + 4) std::this_thread::yield();
    EXPECT_TRUE(ReadFrame(sp.b, &got));
    done.store(true);
  });
  while (!reader_started.load()) std::this_thread::yield();

  std::thread interrupter([&] {
    while (!done.load()) {
      pthread_kill(main_thread, SIGUSR1);    // interrupt the writer
      pthread_kill(reader_thread, SIGUSR1);  // interrupt the reader
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  WriteFrame(sp.a, payload);  // blocks past the socket buffer; EINTRs here
  // The reader ends the storm; it stays joinable (a valid pthread_kill
  // target) until the interrupter has stopped.
  interrupter.join();
  reader.join();
  ASSERT_EQ(sigaction(SIGUSR1, &old, nullptr), 0);

  EXPECT_EQ(got, payload);
  EXPECT_GT(g_sigusr1_count.load(), 0);
}

}  // namespace
}  // namespace dcc::wire
