// Engine::Options::FromEnv — strict parsing of DCC_ENGINE_MODE /
// DCC_ENGINE_CELL / DCC_ENGINE_THREADS. Typos must reject, not silently
// fall back.
#include <gtest/gtest.h>

#include <cstdlib>

#include "dcc/sinr/engine.h"

namespace dcc::sinr {
namespace {

class EngineEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("DCC_ENGINE_MODE");
    unsetenv("DCC_ENGINE_CELL");
    unsetenv("DCC_ENGINE_THREADS");
  }
};

TEST_F(EngineEnvTest, DefaultsWhenUnset) {
  const auto opts = Engine::Options::FromEnv();
  EXPECT_EQ(opts.mode, Engine::Mode::kAuto);
  EXPECT_EQ(opts.cell, 0.0);
  EXPECT_EQ(opts.threads, 1);
}

TEST_F(EngineEnvTest, ParsesEveryMode) {
  setenv("DCC_ENGINE_MODE", "exact", 1);
  EXPECT_EQ(Engine::Options::FromEnv().mode, Engine::Mode::kExact);
  setenv("DCC_ENGINE_MODE", "grid", 1);
  EXPECT_EQ(Engine::Options::FromEnv().mode, Engine::Mode::kGrid);
  setenv("DCC_ENGINE_MODE", "auto", 1);
  EXPECT_EQ(Engine::Options::FromEnv().mode, Engine::Mode::kAuto);
}

TEST_F(EngineEnvTest, ParsesCell) {
  setenv("DCC_ENGINE_CELL", "2.5", 1);
  EXPECT_DOUBLE_EQ(Engine::Options::FromEnv().cell, 2.5);
}

TEST_F(EngineEnvTest, RejectsModeTypos) {
  setenv("DCC_ENGINE_MODE", "gird", 1);
  EXPECT_THROW(Engine::Options::FromEnv(), InvalidArgument);
}

TEST_F(EngineEnvTest, RejectsMalformedCell) {
  setenv("DCC_ENGINE_CELL", "2.5x", 1);
  EXPECT_THROW(Engine::Options::FromEnv(), InvalidArgument);
  setenv("DCC_ENGINE_CELL", "-1", 1);
  EXPECT_THROW(Engine::Options::FromEnv(), InvalidArgument);
}

TEST_F(EngineEnvTest, ParsesThreads) {
  setenv("DCC_ENGINE_THREADS", "4", 1);
  EXPECT_EQ(Engine::Options::FromEnv().threads, 4);
  setenv("DCC_ENGINE_THREADS", "0", 1);  // 0 = hardware
  EXPECT_EQ(Engine::Options::FromEnv().threads, 0);
}

TEST_F(EngineEnvTest, RejectsMalformedThreads) {
  setenv("DCC_ENGINE_THREADS", "four", 1);
  EXPECT_THROW(Engine::Options::FromEnv(), InvalidArgument);
  setenv("DCC_ENGINE_THREADS", "-2", 1);
  EXPECT_THROW(Engine::Options::FromEnv(), InvalidArgument);
  setenv("DCC_ENGINE_THREADS", "8192", 1);
  EXPECT_THROW(Engine::Options::FromEnv(), InvalidArgument);
}

TEST_F(EngineEnvTest, EmptyValuesMeanUnset) {
  setenv("DCC_ENGINE_MODE", "", 1);
  setenv("DCC_ENGINE_CELL", "", 1);
  setenv("DCC_ENGINE_THREADS", "", 1);
  const auto opts = Engine::Options::FromEnv();
  EXPECT_EQ(opts.mode, Engine::Mode::kAuto);
  EXPECT_EQ(opts.cell, 0.0);
  EXPECT_EQ(opts.threads, 1);
  EXPECT_EQ(opts.min_listeners_per_shard, Engine::kMinListenersPerShard);
}

}  // namespace
}  // namespace dcc::sinr
