// The service under concurrent clients: N connections hammering shared
// (spec, seed) keys must observe byte-identical report bytes at every
// engine thread count, co-arriving cold misses must batch onto one build,
// and a fresh service instance must reproduce the exact bytes (the cache
// stores what a deterministic run produces — it never invents state).
// CI also runs this suite under -DDCC_SANITIZE=thread.
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dcc/service/client.h"
#include "dcc/service/loadgen.h"
#include "dcc/service/service.h"

namespace {

using dcc::service::Client;
using dcc::service::LoadResult;
using dcc::service::LoadSpec;
using dcc::service::Service;

std::string TestSocket(const std::string& tag) {
  return "/tmp/dcc_service_conc." + std::to_string(::getpid()) + "." + tag +
         ".sock";
}

std::string SpecLine(int threads) {
  return "--topology=uniform:n=48,side=4 --algo=clustering --id-space=4096 "
         "--threads=" +
         std::to_string(threads);
}

TEST(ServiceConcurrencyTest, ByteIdentityAtEveryThreadCount) {
  std::string serial_reference;
  for (const int threads : {1, 2, 4}) {
    const std::string tag = "ladder" + std::to_string(threads);
    std::string reference;
    {
      Service::Options opts;
      opts.socket_path = TestSocket(tag);
      Service service(opts);
      service.Start();

      LoadSpec load;
      load.socket_path = opts.socket_path;
      load.spec_lines = {SpecLine(threads)};
      load.seeds = {1, 2};
      load.connections = 6;
      load.requests = 60;
      const LoadResult r = dcc::service::RunLoad(load);
      EXPECT_EQ(r.errors, 0) << "threads=" << threads << ": "
                             << r.first_error;
      EXPECT_TRUE(r.reports_consistent)
          << "report bytes diverged at threads=" << threads;
      EXPECT_EQ(r.requests, 60);

      Client client(opts.socket_path);
      const Client::RunResult warm = client.Run(SpecLine(threads), 1);
      ASSERT_TRUE(warm.ok) << warm.error;
      EXPECT_EQ(warm.cached, "result");
      reference = warm.report;
    }
    // A brand-new service (cold caches) must rebuild the exact bytes.
    {
      Service::Options opts;
      opts.socket_path = TestSocket(tag + "b");
      Service service(opts);
      service.Start();
      Client client(opts.socket_path);
      const Client::RunResult cold = client.Run(SpecLine(threads), 1);
      ASSERT_TRUE(cold.ok) << cold.error;
      EXPECT_EQ(cold.cached, "none");
      EXPECT_EQ(cold.report, reference)
          << "cold rebuild diverged at threads=" << threads;
    }
    // ...and every thread count the same bytes.
    if (threads == 1) serial_reference = reference;
    EXPECT_EQ(reference, serial_reference) << "threads=" << threads;
  }
}

TEST(ServiceConcurrencyTest, CoArrivingMissesBatchOntoOneBuild) {
  Service::Options opts;
  opts.socket_path = TestSocket("batch");
  Service service(opts);
  service.Start();

  // Every connection asks for the SAME (spec, seed): whatever the
  // interleaving, exactly one run may execute.
  LoadSpec load;
  load.socket_path = opts.socket_path;
  load.spec_lines = {SpecLine(1)};
  load.seeds = {7};
  load.connections = 8;
  load.requests = 8;
  const LoadResult r = dcc::service::RunLoad(load);
  EXPECT_EQ(r.errors, 0) << r.first_error;
  EXPECT_TRUE(r.reports_consistent);

  const auto stats = service.Snapshot();
  EXPECT_EQ(stats.result_misses, 1)
      << "co-arriving identical requests must single-flight";
  EXPECT_EQ(stats.result_hits, 7);
  EXPECT_EQ(stats.topology_misses, 1);
}

TEST(ServiceConcurrencyTest, GraphReadingAlgorithmsShareOneNetwork) {
  // Both algorithms read the communication graph of the one cached network
  // each (topology, seed) builds, from co-arriving runs.
  Service::Options opts;
  opts.socket_path = TestSocket("graph");
  Service service(opts);
  service.Start();

  LoadSpec load;
  load.socket_path = opts.socket_path;
  load.spec_lines = {
      "--topology=connected_uniform:n=64,side=3.54 --algo=local_broadcast "
      "--id-space=4096",
      "--topology=connected_uniform:n=64,side=3.54 --algo=global_broadcast "
      "--id-space=4096",
  };
  load.seeds = {1, 2};
  load.connections = 4;
  load.requests = 16;
  const LoadResult r = dcc::service::RunLoad(load);
  EXPECT_EQ(r.errors, 0) << r.first_error;
  EXPECT_TRUE(r.reports_consistent);
  EXPECT_EQ(service.Snapshot().topology_misses, 2);  // one per seed
}

TEST(ServiceConcurrencyTest, MixedWorkloadUnderSmallQueueStaysCorrect) {
  // A queue smaller than the client count forces the backpressure path.
  Service::Options opts;
  opts.socket_path = TestSocket("queue");
  opts.queue_capacity = 2;
  Service service(opts);
  service.Start();

  LoadSpec load;
  load.socket_path = opts.socket_path;
  load.spec_lines = {
      SpecLine(1),
      "--topology=uniform:n=48,side=4 --algo=local_broadcast "
      "--id-space=4096",
      "--topology=uniform:n=72,side=5 --algo=clustering --id-space=4096",
  };
  load.seeds = {1, 2};
  load.connections = 6;
  load.requests = 72;
  const LoadResult r = dcc::service::RunLoad(load);
  EXPECT_EQ(r.errors, 0) << r.first_error;
  EXPECT_TRUE(r.reports_consistent);

  const auto stats = service.Snapshot();
  EXPECT_LE(stats.queue_peak, 2);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.result_misses, 6);  // one build per distinct pair
  EXPECT_EQ(stats.result_hits, 66);   // everything else was served
}

}  // namespace
