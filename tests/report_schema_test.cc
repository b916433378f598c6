// Pins docs/REPORT_SCHEMA.md to the code: every pinned example in the doc
// is regenerated here from a fixed spec and must match byte for byte. If a
// schema change breaks this test, update BOTH the emitter and the doc (and
// bump the schema version if the change is not additive).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "dcc/obs/trace.h"
#include "dcc/scenario/scenario.h"
#include "dcc/service/service.h"
#include "dcc/service/stats.h"

namespace dcc::scenario {
namespace {

#ifndef DCC_SOURCE_DIR
#error "DCC_SOURCE_DIR must point at the repo root (set by CMakeLists.txt)"
#endif

std::string ReadDoc() {
  const std::string path = std::string(DCC_SOURCE_DIR) +
                           "/docs/REPORT_SCHEMA.md";
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Extracts the ```json fence that follows `<!-- pinned:NAME -->`.
std::string PinnedExample(const std::string& doc, const std::string& name) {
  const std::string marker = "<!-- pinned:" + name + " -->";
  const std::size_t at = doc.find(marker);
  EXPECT_NE(at, std::string::npos) << "no pinned example for " << name;
  if (at == std::string::npos) return "";
  const std::size_t fence = doc.find("```json\n", at);
  EXPECT_NE(fence, std::string::npos) << "no ```json fence after " << marker;
  const std::size_t start = fence + 8;
  const std::size_t end = doc.find("\n```", start);
  EXPECT_NE(end, std::string::npos) << "unterminated fence for " << name;
  return doc.substr(start, end - start);
}

// The fixed scenario behind the static examples.
ScenarioSpec PinnedStaticSpec() {
  ScenarioSpec spec;
  spec.topology_params.Set("n", "12");
  spec.topology_params.Set("side", "2");
  spec.sinr.id_space = 256;
  return spec;
}

// ...and the dynamic one.
ScenarioSpec PinnedDynamicSpec() {
  ScenarioSpec spec = PinnedStaticSpec();
  spec.dynamics.Set("model", "waypoint");
  spec.dynamics.Set("epochs", "2");
  spec.dynamics.Set("speed", "0.5");
  spec.dynamics.Set("churn", "0.2");
  spec.dynamics.Set("side", "2");
  return spec;
}

TEST(ReportSchemaDocTest, RunReportExampleIsCurrent) {
  const RunReport rep = RunScenario(PinnedStaticSpec(), 1);
  ASSERT_TRUE(rep.ok) << rep.error;
  std::ostringstream out;
  rep.PrintJson(out);
  EXPECT_EQ(PinnedExample(ReadDoc(), "dcc.run_report.v1"), out.str());
}

TEST(ReportSchemaDocTest, SweepExampleIsCurrent) {
  ScenarioSpec spec = PinnedStaticSpec();
  spec.seeds = {1, 2};
  const auto runs = RunSweep(spec);
  std::ostringstream out;
  PrintSweepJson(out, spec.ToString(), runs);
  // PrintSweepJson terminates the envelope with a newline; the fence holds
  // the line itself.
  std::string line = out.str();
  ASSERT_FALSE(line.empty());
  ASSERT_EQ(line.back(), '\n');
  line.pop_back();
  EXPECT_EQ(PinnedExample(ReadDoc(), "dcc.sweep.v1"), line);
}

TEST(ReportSchemaDocTest, ServiceStatsExampleIsCurrent) {
  // A synthesized snapshot: live stats carry timing-dependent fields
  // (uptime, throughput, latencies), so the doc pins fixed values through
  // the same serializer dccd uses.
  dcc::service::ServiceStats s;
  s.uptime_ms = 120000;
  s.connections_active = 2;
  s.connections_total = 5;
  s.requests = 40;
  s.runs = 32;
  s.errors = 1;
  s.result_hits = 24;
  s.result_misses = 8;
  s.topology_hits = 6;
  s.topology_misses = 2;
  s.queue_depth = 0;
  s.queue_peak = 3;
  s.queue_capacity = 64;
  s.throughput_rps = 0.25;
  s.latency_ms_p50 = 0.032;
  s.latency_ms_p99 = 524.288;
  s.draining = false;
  std::ostringstream out;
  s.PrintJson(out);
  EXPECT_EQ(PinnedExample(ReadDoc(), "dcc.service.v1"), out.str());
}

TEST(ReportSchemaDocTest, DrainingFrameExampleIsCurrent) {
  EXPECT_EQ(PinnedExample(ReadDoc(), "dcc.service.draining"),
            dcc::service::Service::ErrorFrame(
                7, "draining", "service is draining; no new runs are admitted"));
}

TEST(ReportSchemaDocTest, ObsSummaryExampleIsCurrent) {
  // Synthesized like the service stats: every field except overhead_ns is
  // deterministic for a deterministic workload, but the doc pins fixed
  // values through the same serializer dcc_run and dccd print.
  obs::TraceSummary sum;
  sum.events = 4096;
  sum.spans = 1500;
  sum.counters = 96;
  sum.dropped = 0;
  sum.threads = 4;
  sum.overhead_ns = 2048;
  std::ostringstream out;
  sum.PrintJson(out);
  EXPECT_EQ(PinnedExample(ReadDoc(), "dcc.obs.v1"), out.str());
}

TEST(ReportSchemaDocTest, DynamicExampleIsCurrent) {
  const RunReport rep = RunScenario(PinnedDynamicSpec(), 1);
  ASSERT_TRUE(rep.ok) << rep.error;
  std::ostringstream out;
  rep.PrintJson(out);
  EXPECT_EQ(PinnedExample(ReadDoc(), "dcc.dynamic.v1"), out.str());
}

}  // namespace
}  // namespace dcc::scenario
