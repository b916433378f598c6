// The scenario service: content cache semantics (single-flight, LRU,
// failure recovery), the dccd request/response protocol end to end over a
// real Unix socket, cache-path reporting, drain, and the stats surface.
// ServiceCacheTest proves the zero-work-on-hit property the warm-path
// acceptance rests on: a cache hit never invokes the build closure, so a
// warm result-cache request runs zero engine rounds.
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dcc/common/wire.h"
#include "dcc/scenario/scenario.h"
#include "dcc/service/cache.h"
#include "dcc/service/client.h"
#include "dcc/service/loadgen.h"
#include "dcc/service/service.h"

namespace {

using dcc::service::Client;
using dcc::service::ContentCache;
using dcc::service::Service;

constexpr char kSpec[] =
    "--topology=uniform:n=48,side=4 --algo=clustering --id-space=4096";

std::string TestSocket(const char* tag) {
  return "/tmp/dcc_service_test." + std::to_string(::getpid()) + "." + tag +
         ".sock";
}

TEST(ServiceCacheTest, HitNeverInvokesTheBuilder) {
  ContentCache<int> cache(4);
  int builds = 0;
  bool hit = true;
  auto v = cache.GetOrBuild(
      "k",
      [&] {
        ++builds;
        return std::make_shared<const int>(7);
      },
      &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(*v, 7);
  v = cache.GetOrBuild(
      "k",
      [&] {
        ++builds;
        return std::make_shared<const int>(8);
      },
      &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(*v, 7);       // the cached value, not a rebuild
  EXPECT_EQ(builds, 1);   // zero work on the warm path
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(ServiceCacheTest, LruEvictsTheColdestEntry) {
  ContentCache<int> cache(2);
  bool hit = false;
  const auto put = [&](const std::string& key, int value) {
    return cache.GetOrBuild(
        key, [&] { return std::make_shared<const int>(value); }, &hit);
  };
  put("a", 1);
  put("b", 2);
  put("a", 0);  // touch: a is now warmer than b
  EXPECT_TRUE(hit);
  put("c", 3);  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  put("a", 0);
  EXPECT_TRUE(hit);
  put("b", 9);
  EXPECT_FALSE(hit) << "b should have been evicted";
}

TEST(ServiceCacheTest, EvictedValuesSurviveThroughSharedOwnership) {
  ContentCache<int> cache(1);
  bool hit = false;
  const auto held = cache.GetOrBuild(
      "old", [] { return std::make_shared<const int>(42); }, &hit);
  cache.GetOrBuild("new", [] { return std::make_shared<const int>(1); },
                   &hit);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*held, 42);  // eviction dropped the cache's ref, not ours
}

TEST(ServiceCacheTest, FailedBuildIsRetriedNotCached) {
  ContentCache<int> cache(4);
  bool hit = true;
  EXPECT_THROW(cache.GetOrBuild(
                   "k",
                   [&]() -> std::shared_ptr<const int> {
                     throw std::runtime_error("boom");
                   },
                   &hit),
               std::runtime_error);
  const auto v = cache.GetOrBuild(
      "k", [] { return std::make_shared<const int>(5); }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(*v, 5);
}

TEST(ServiceCacheTest, ConcurrentMissesSingleFlightOntoOneBuild) {
  ContentCache<int> cache(4);
  std::atomic<int> builds{0};
  std::atomic<int> hits{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      bool hit = false;
      const auto v = cache.GetOrBuild(
          "k",
          [&] {
            builds.fetch_add(1);
            // Hold the build open so other threads pile onto the wait.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return std::make_shared<const int>(11);
          },
          &hit);
      EXPECT_EQ(*v, 11);
      if (hit) hits.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1) << "concurrent misses must batch onto one build";
  EXPECT_EQ(hits.load(), kThreads - 1);
}

// Every cache path serves the bytes a direct run prints. Per seed, the
// first algorithm builds the network (cached "none"), the other two run
// on the cached one (each builds its own engine, and so its own gain
// table, from the shared network: "topology"), and every repeat is served
// the stored report ("result").
TEST(ServiceTest, RunReportsItsCachePathAndServesIdenticalBytes) {
  Service::Options opts;
  opts.socket_path = TestSocket("roundtrip");
  Service service(opts);
  service.Start();
  Client client(opts.socket_path);

  const std::vector<std::vector<std::string>> algos = {
      {"--algo=clustering"},
      {"--algo=clustering", "--engine=grid"},
      {"--algo=local_broadcast"}};
  for (const bool warm : {false, true}) {
    for (const std::uint64_t seed : {1, 2}) {
      for (std::size_t a = 0; a < algos.size(); ++a) {
        std::vector<std::string> args = {"--topology=uniform:n=48,side=4"};
        args.insert(args.end(), algos[a].begin(), algos[a].end());
        args.push_back("--id-space=4096");
        std::string line;
        for (const std::string& arg : args) line += arg + ' ';
        std::ostringstream direct;
        dcc::scenario::RunScenario(
            dcc::scenario::ScenarioSpec::FromArgs(args), seed)
            .PrintJson(direct);

        const Client::RunResult r = client.Run(line, seed);
        ASSERT_TRUE(r.ok) << line << ": " << r.error;
        const char* path = warm ? "result" : a == 0 ? "none" : "topology";
        EXPECT_EQ(r.cached, path) << line << "seed " << seed;
        EXPECT_NE(r.report.find("\"schema\": \"dcc.run_report.v1\""),
                  std::string::npos);
        EXPECT_EQ(r.report, direct.str()) << line << "seed " << seed;
      }
    }
  }

  const auto stats = service.Snapshot();
  EXPECT_EQ(stats.result_hits, 6);
  EXPECT_EQ(stats.result_misses, 6);
  EXPECT_EQ(stats.topology_hits, 4);
  EXPECT_EQ(stats.topology_misses, 2);
  EXPECT_EQ(stats.runs, 12);
  EXPECT_EQ(stats.errors, 0);
}

TEST(ServiceTest, ThreadCountsShareOneCachedReport) {
  // A report is the same bytes at every --threads, so the result cache
  // leaves the flag out of its key: the first request builds the report,
  // the others are served it, and all of them read what a direct run of
  // the spec (dcc_run's bytes) prints.
  Service::Options opts;
  opts.socket_path = TestSocket("threads");
  Service service(opts);
  service.Start();
  Client client(opts.socket_path);

  std::ostringstream direct;
  dcc::scenario::RunScenario(
      dcc::scenario::ScenarioSpec::FromArgs(
          {"--topology=uniform:n=48,side=4", "--algo=clustering",
           "--id-space=4096"}),
      1)
      .PrintJson(direct);
  const std::string threads_flags[] = {"", " --threads=0", " --threads=4"};
  for (const std::string& flag : threads_flags) {
    const Client::RunResult r = client.Run(kSpec + flag, 1);
    ASSERT_TRUE(r.ok) << flag << ": " << r.error;
    EXPECT_EQ(r.cached, flag.empty() ? "none" : "result") << flag;
    EXPECT_EQ(r.report, direct.str()) << flag;
  }
  const auto stats = service.Snapshot();
  EXPECT_EQ(stats.result_misses, 1);
  EXPECT_EQ(stats.result_hits, 2);
}

TEST(ServiceTest, SeedFieldAddressesDistinctResults) {
  Service::Options opts;
  opts.socket_path = TestSocket("seeds");
  Service service(opts);
  service.Start();
  Client client(opts.socket_path);

  const Client::RunResult s1 = client.Run(kSpec, 1);
  const Client::RunResult s2 = client.Run(kSpec, 2);
  ASSERT_TRUE(s1.ok && s2.ok);
  EXPECT_NE(s1.report, s2.report);
  const Client::RunResult again = client.Run(kSpec, 1);
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.cached, "result");
  EXPECT_EQ(again.report, s1.report);
}

TEST(ServiceTest, DynamicSpecsAreServedAndResultCached) {
  Service::Options opts;
  opts.socket_path = TestSocket("dynamic");
  Service service(opts);
  service.Start();
  Client client(opts.socket_path);

  const std::string spec =
      std::string(kSpec) + " --dynamics=model=waypoint,epochs=2";
  const Client::RunResult cold = client.Run(spec);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.cached, "none");
  EXPECT_NE(cold.report.find("\"schema\": \"dcc.dynamic.v1\""),
            std::string::npos);
  const Client::RunResult warm = client.Run(spec);
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.cached, "result");
  EXPECT_EQ(warm.report, cold.report);
  // Mobility bypasses the topology cache entirely.
  EXPECT_EQ(service.Snapshot().topology_misses, 0);
}

TEST(ServiceTest, RequestErrorsAreAnsweredInBand) {
  Service::Options opts;
  opts.socket_path = TestSocket("errors");
  Service service(opts);
  service.Start();
  Client client(opts.socket_path);

  const Client::RunResult bad = client.Run("--no-such-flag=1");
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());

  const Client::RunResult sweep =
      client.Run("--topology=uniform:n=48,side=4 --sweep=n:48,96");
  EXPECT_FALSE(sweep.ok);
  EXPECT_NE(sweep.error.find("sweep"), std::string::npos);

  // The connection survives errors; a good request still works.
  const Client::RunResult good = client.Run(kSpec);
  EXPECT_TRUE(good.ok) << good.error;
  EXPECT_EQ(service.Snapshot().errors, 2);
}

TEST(ServiceTest, StatsAndPingSpeakTheProtocol) {
  Service::Options opts;
  opts.socket_path = TestSocket("stats");
  Service service(opts);
  service.Start();
  Client client(opts.socket_path);
  client.Ping();
  const std::string stats = client.StatsJson();
  EXPECT_EQ(stats.rfind("{\"schema\": \"dcc.service.v1\"", 0), 0u) << stats;
}

TEST(ServiceTest, DrainStopsNewConnectionsAndIsIdempotent) {
  Service::Options opts;
  opts.socket_path = TestSocket("drain");
  Service service(opts);
  service.Start();
  {
    Client client(opts.socket_path);
    ASSERT_TRUE(client.Run(kSpec).ok);
  }
  service.Drain();
  EXPECT_TRUE(service.draining());
  Client late(opts.socket_path);
  EXPECT_THROW(late.Ping(), dcc::wire::WireError);
  service.Drain();  // second drain: no-op, no deadlock
  EXPECT_TRUE(service.Snapshot().draining);
}

TEST(ServiceTest, DrainRejectsQueuedRunsWithStructuredError) {
  Service::Options opts;
  opts.socket_path = TestSocket("drain_reject");
  opts.queue_capacity = 1;
  Service service(opts);
  service.Start();

  // A occupies the single admission slot with a multi-second run; B then
  // blocks on admission. Drain must wake B with the structured draining
  // frame — not strand it until A finishes.
  Client::RunResult a_result, b_result;
  std::thread a([&] {
    Client client(opts.socket_path);
    a_result = client.Run("--topology=uniform:n=384,side=11");
  });
  while (service.Snapshot().queue_depth < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::thread b([&] {
    Client client(opts.socket_path);
    b_result = client.Run(kSpec);
  });
  // Give B's frame time to reach its connection thread and park on the
  // admission queue. (If Drain still wins the race, Execute rejects on
  // entry and B gets the same structured frame — no flaky outcome.)
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  service.Drain();
  a.join();
  b.join();

  EXPECT_TRUE(a_result.ok) << a_result.error;  // admitted work finishes
  EXPECT_FALSE(b_result.ok);
  EXPECT_EQ(b_result.error_code, "draining") << b_result.error;
  EXPECT_NE(b_result.error.find("draining"), std::string::npos);
}

TEST(ServiceTest, ErrorFrameShapeIsStable) {
  EXPECT_EQ(Service::ErrorFrame(7, "draining", "service is draining"),
            "{\"id\": 7, \"ok\": false, \"error\": {\"code\": \"draining\", "
            "\"message\": \"service is draining\"}}");
}

TEST(ServiceTest, TopologyKeyIgnoresEverythingButTheNetwork) {
  using dcc::scenario::ScenarioSpec;
  using dcc::service::TopologyCacheKey;
  const ScenarioSpec a = ScenarioSpec::FromArgs(
      {"--topology=uniform:n=64,side=4", "--algo=clustering"});
  const ScenarioSpec b = ScenarioSpec::FromArgs(
      {"--topology=uniform:side=4,n=64", "--algo=local_broadcast",
       "--engine=grid", "--faults=3", "--rounds=17", "--threads=2"});
  EXPECT_EQ(TopologyCacheKey(a, 1), TopologyCacheKey(b, 1));
  EXPECT_NE(TopologyCacheKey(a, 1), TopologyCacheKey(a, 2));
  const ScenarioSpec c =
      ScenarioSpec::FromArgs({"--topology=uniform:n=65,side=4"});
  EXPECT_NE(TopologyCacheKey(a, 1), TopologyCacheKey(c, 1));
  // The id-seed default resolves against the seed: an explicit --id-seed
  // equal to seed+1 is the same network.
  const ScenarioSpec d = ScenarioSpec::FromArgs(
      {"--topology=uniform:n=64,side=4", "--id-seed=4"});
  EXPECT_EQ(TopologyCacheKey(a, 3), TopologyCacheKey(d, 3));
  EXPECT_NE(TopologyCacheKey(a, 4), TopologyCacheKey(d, 4));
}

}  // namespace
