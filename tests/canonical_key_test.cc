// ScenarioSpec::CanonicalKey — the content address the service caches
// (and `dcc_run --canonical`) rely on. Two properties under test: specs
// spelling the same parameters in any order share one key, and the key
// separates every semantically distinct spec (no collisions across the
// golden set of all registered topology x algorithm pairs).
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dcc/scenario/registry.h"
#include "dcc/scenario/spec.h"

namespace {

using dcc::scenario::ScenarioSpec;

std::string Key(const std::vector<std::string>& args) {
  return ScenarioSpec::FromArgs(args).CanonicalKey();
}

TEST(CanonicalKeyTest, TopologyParamOrderIsIrrelevant) {
  EXPECT_EQ(Key({"--topology=uniform:n=64,side=4"}),
            Key({"--topology=uniform:side=4,n=64"}));
}

TEST(CanonicalKeyTest, AlgoAndDynamicsParamOrderIsIrrelevant) {
  EXPECT_EQ(Key({"--algo=clustering:b=2,a=1"}),
            Key({"--algo=clustering:a=1,b=2"}));
  EXPECT_EQ(Key({"--dynamics=model=waypoint,epochs=4,churn=0.05"}),
            Key({"--dynamics=churn=0.05,model=waypoint,epochs=4"}));
}

TEST(CanonicalKeyTest, FlagOrderIsIrrelevant) {
  EXPECT_EQ(Key({"--topology=uniform:n=64,side=4", "--algo=clustering",
                 "--seeds=3"}),
            Key({"--seeds=3", "--algo=clustering",
                 "--topology=uniform:n=64,side=4"}));
}

TEST(CanonicalKeyTest, DefaultsAreElided) {
  // Spelling a default explicitly and omitting it must address the same
  // content (ToArgs elides defaults).
  EXPECT_EQ(Key({}), Key({"--topology=uniform", "--algo=clustering",
                          "--seeds=1"}));
}

TEST(CanonicalKeyTest, SemanticDifferencesChangeTheKey) {
  const std::string base = Key({"--topology=uniform:n=64,side=4"});
  EXPECT_NE(base, Key({"--topology=uniform:n=65,side=4"}));
  EXPECT_NE(base, Key({"--topology=uniform:n=64,side=4", "--seeds=2"}));
  EXPECT_NE(base, Key({"--topology=uniform:n=64,side=4",
                       "--algo=local_broadcast"}));
  EXPECT_NE(base, Key({"--topology=uniform:n=64,side=4", "--faults=1"}));
  EXPECT_NE(base, Key({"--topology=uniform:n=64,side=4",
                       "--dynamics=model=waypoint"}));
  // The thread count is not one: a report is the same bytes at every
  // --threads, so the key leaves it out.
  EXPECT_EQ(base, Key({"--topology=uniform:n=64,side=4", "--threads=2"}));
  EXPECT_EQ(base, Key({"--topology=uniform:n=64,side=4", "--threads=0"}));
}

TEST(CanonicalKeyTest, GoldenRegistryPairsDoNotCollide) {
  std::set<std::string> keys;
  int pairs = 0;
  for (const auto& [topology, t_help] : dcc::scenario::Topologies().List()) {
    for (const auto& [algo, a_help] : dcc::scenario::Algorithms().List()) {
      ScenarioSpec spec;
      spec.topology = topology;
      spec.algo = algo;
      const auto [it, inserted] = keys.insert(spec.CanonicalKey());
      EXPECT_TRUE(inserted) << "key collision at " << topology << " x "
                            << algo << ": " << *it;
      ++pairs;
    }
  }
  EXPECT_EQ(static_cast<int>(keys.size()), pairs);
  EXPECT_GT(pairs, 0);
}

TEST(CanonicalKeyTest, KeyRoundTripsThroughFromArgs) {
  // The key is itself a valid spec line whose key is itself — canonical
  // means fixed point.
  const std::string key =
      Key({"--topology=uniform:side=4,n=64", "--algo=clustering:b=2,a=1",
           "--seeds=5", "--faults=2"});
  std::vector<std::string> args;
  std::size_t pos = 0;
  while (pos < key.size()) {
    std::size_t end = key.find(' ', pos);
    if (end == std::string::npos) end = key.size();
    if (end > pos) args.push_back(key.substr(pos, end - pos));
    pos = end + 1;
  }
  EXPECT_EQ(Key(args), key);
}

}  // namespace
