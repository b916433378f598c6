// The observability layer in isolation: the power-of-two histogram's
// interpolated quantiles (including the single-bucket edge case the old
// service LatencyHistogram got wrong — p50 == p99 for any one-bucket
// distribution), the Prometheus text exposition (byte-pinned for fixed
// values), and the Tracer's bounded-buffer drop accounting and Chrome
// trace-event JSON shape (validated with the in-repo JsonValue parser —
// the same well-formedness bar the CI obs-smoke job applies with an
// external parser).
//
// All Tracer tests run against the process-global instance; each test
// Enables a fresh recording (which clears prior buffers) and Drains it,
// so ordering between tests does not leak state.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "dcc/common/json.h"
#include "dcc/obs/histogram.h"
#include "dcc/obs/metrics.h"
#include "dcc/obs/trace.h"

namespace dcc::obs {
namespace {

// --- Pow2Histogram ---------------------------------------------------------

TEST(ObsHistogramTest, EmptyHistogramQuantilesAreZero) {
  Pow2Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.0);
}

TEST(ObsHistogramTest, SingleSampleReportsBucketUpperBound) {
  Pow2Histogram h;
  h.Record(100);  // bucket [64, 128)
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.sum(), 100);
  // One sample carries no intra-bucket information; every quantile is the
  // bucket's (conservative) upper bound.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 128.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 128.0);
}

// The regression the promotion fixed: with every sample in ONE bucket, the
// old QuantileUpperMs collapsed p50 and p99 to the same upper bound.
// Interpolation must spread quantiles across the bucket instead.
TEST(ObsHistogramTest, SingleBucketQuantilesInterpolate) {
  Pow2Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(100);  // all in [64, 128)
  const double p50 = h.Quantile(0.50);
  const double p99 = h.Quantile(0.99);
  EXPECT_GT(p50, 64.0);
  EXPECT_LT(p50, p99);
  EXPECT_LE(p99, 128.0);
  // rank 50 of 100 sits half way into the bucket: 64 + 64 * 50/100.
  EXPECT_DOUBLE_EQ(p50, 96.0);
}

TEST(ObsHistogramTest, QuantilesAcrossBucketsAreMonotone) {
  Pow2Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(10);    // bucket [8, 16)
  for (int i = 0; i < 10; ++i) h.Record(5000);  // bucket [4096, 8192)
  const double p50 = h.Quantile(0.50);
  const double p95 = h.Quantile(0.95);
  EXPECT_GE(p50, 8.0);
  EXPECT_LE(p50, 16.0);
  EXPECT_GE(p95, 4096.0);
  EXPECT_LE(p95, 8192.0);
  EXPECT_EQ(h.count(), 100);
}

TEST(ObsHistogramTest, ZeroAndNegativeLandInBucketZero) {
  Pow2Histogram h;
  h.Record(0);
  h.Record(-17);
  h.Record(1);
  EXPECT_EQ(h.count(), 3);
  EXPECT_LE(h.Quantile(0.5), Pow2Histogram::BucketUpper(0));
}

// --- MetricsRegistry -------------------------------------------------------

TEST(ObsMetricsTest, CounterAndGaugeExposition) {
  auto& reg = MetricsRegistry::Global();
  Counter& c = reg.GetCounter("obs_test_widgets_total", "Widgets made");
  c.Add(3);
  c.Add();
  Gauge& g = reg.GetGauge("obs_test_depth", "Current depth");
  g.Set(7);
  std::ostringstream os;
  reg.PrintText(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# HELP obs_test_widgets_total Widgets made\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_widgets_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_widgets_total 4\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("obs_test_depth 7\n"), std::string::npos);
}

TEST(ObsMetricsTest, HistogramExpositionIsCumulative) {
  auto& reg = MetricsRegistry::Global();
  Pow2Histogram& h =
      reg.GetHistogram("obs_test_latency_us", "Test latency");
  h.Record(3);    // bucket [2, 4)
  h.Record(3);
  h.Record(100);  // bucket [64, 128)
  std::ostringstream os;
  reg.PrintText(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE obs_test_latency_us histogram\n"),
            std::string::npos);
  // Cumulative: the le="4" bucket holds 2, everything from le="128" on
  // (and +Inf) holds all 3.
  EXPECT_NE(text.find("obs_test_latency_us_bucket{le=\"4\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_latency_us_bucket{le=\"128\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_latency_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_latency_us_sum 106\n"), std::string::npos);
  EXPECT_NE(text.find("obs_test_latency_us_count 3\n"), std::string::npos);
}

TEST(ObsMetricsTest, SameNameSameHandle) {
  auto& reg = MetricsRegistry::Global();
  Counter& a = reg.GetCounter("obs_test_stable", "x");
  Counter& b = reg.GetCounter("obs_test_stable", "different help ignored");
  EXPECT_EQ(&a, &b);
}

// Asking for an existing name under a different kind must not crash or
// corrupt the registered metric — it yields a detached fallback handle.
TEST(ObsMetricsTest, KindMismatchYieldsFallback) {
  auto& reg = MetricsRegistry::Global();
  Counter& c = reg.GetCounter("obs_test_kind_clash", "counter first");
  c.Add(5);
  Gauge& g = reg.GetGauge("obs_test_kind_clash", "gauge second");
  g.Set(999);
  EXPECT_EQ(c.value(), 5);
  std::ostringstream os;
  reg.PrintText(os);
  EXPECT_NE(os.str().find("obs_test_kind_clash 5\n"), std::string::npos);
}

// Pinned exposition bytes for fixed values, including a histogram that
// never recorded: the daemon's `metrics` op and `dcc_run --metrics` serve
// this text to scrapers, so the writers, and a registry holding the same
// values, must reproduce it byte for byte.
constexpr char kRecordedText[] = R"(# HELP writer_test_frames_total Frames answered
# TYPE writer_test_frames_total counter
writer_test_frames_total 42
# HELP writer_test_idle_us Never recorded
# TYPE writer_test_idle_us histogram
writer_test_idle_us_bucket{le="+Inf"} 0
writer_test_idle_us_sum 0
writer_test_idle_us_count 0
# HELP writer_test_latency_us Request latency, microseconds
# TYPE writer_test_latency_us histogram
writer_test_latency_us_bucket{le="2"} 2
writer_test_latency_us_bucket{le="4"} 4
writer_test_latency_us_bucket{le="8"} 4
writer_test_latency_us_bucket{le="16"} 4
writer_test_latency_us_bucket{le="32"} 4
writer_test_latency_us_bucket{le="64"} 4
writer_test_latency_us_bucket{le="128"} 5
writer_test_latency_us_bucket{le="256"} 5
writer_test_latency_us_bucket{le="512"} 5
writer_test_latency_us_bucket{le="1024"} 5
writer_test_latency_us_bucket{le="2048"} 5
writer_test_latency_us_bucket{le="4096"} 5
writer_test_latency_us_bucket{le="8192"} 6
writer_test_latency_us_bucket{le="+Inf"} 6
writer_test_latency_us_sum 5107
writer_test_latency_us_count 6
# HELP writer_test_queue_depth Admitted runs waiting or running
# TYPE writer_test_queue_depth gauge
writer_test_queue_depth -3
)";

TEST(ObsMetricsTest, WritersReproduceRecordedText) {
  Pow2Histogram idle;
  Pow2Histogram latency;
  for (const std::int64_t v : {0, 1, 3, 3, 100, 5000}) latency.Record(v);
  std::ostringstream os;
  WriteCounterText(os, "writer_test_frames_total", "Frames answered", 42);
  WriteHistogramText(os, "writer_test_idle_us", "Never recorded", idle);
  WriteHistogramText(os, "writer_test_latency_us",
                     "Request latency, microseconds", latency);
  WriteGaugeText(os, "writer_test_queue_depth",
                 "Admitted runs waiting or running", -3);
  EXPECT_EQ(os.str(), kRecordedText);

  MetricsRegistry reg;
  reg.GetCounter("writer_test_frames_total", "Frames answered").Add(42);
  reg.GetGauge("writer_test_queue_depth", "Admitted runs waiting or running")
      .Set(-3);
  reg.GetHistogram("writer_test_idle_us", "Never recorded");
  Pow2Histogram& h = reg.GetHistogram("writer_test_latency_us",
                                      "Request latency, microseconds");
  for (const std::int64_t v : {0, 1, 3, 3, 100, 5000}) h.Record(v);
  std::ostringstream reg_os;
  reg.PrintText(reg_os);
  EXPECT_EQ(reg_os.str(), kRecordedText);
}

// --- Tracer ----------------------------------------------------------------

TEST(ObsTracerTest, DropNewKeepsPrefixAndCountsDrops) {
  Tracer& t = Tracer::Global();
  t.Enable(/*ring_capacity=*/8);
  const std::uint32_t id = t.Intern("obs_test.drop");
  for (int i = 0; i < 20; ++i) t.Emit(id, EventKind::kCounter, i);
  std::ostringstream os;
  const TraceSummary sum = t.Drain(os);
  EXPECT_EQ(sum.events, 8);
  EXPECT_EQ(sum.dropped, 12);
  EXPECT_EQ(sum.threads, 1);
  // Drop-new: the surviving events are the FIRST 8 (values 0..7), not an
  // arbitrary suffix.
  const JsonValue doc = JsonValue::Parse(os.str());
  int data_events = 0;
  for (const JsonValue& e : doc.Find("traceEvents")->GetArray()) {
    if (e.GetString("ph", "") != "C") continue;  // skip metadata
    const JsonValue* args = e.Find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_LT(args->GetNumber("value", 99.0), 8.0);
    ++data_events;
  }
  EXPECT_EQ(data_events, 8);
}

TEST(ObsTracerTest, DrainWritesWellFormedChromeTrace) {
  Tracer& t = Tracer::Global();
  t.Enable();
  {
    DCC_TRACE_SPAN("obs_test.outer");
    DCC_TRACE_COUNTER("obs_test.gauge", 42);
    DCC_TRACE_INSTANT("obs_test.mark");
  }
  std::ostringstream os;
  const TraceSummary sum = t.Drain(os);
  EXPECT_EQ(sum.events, 4);  // B + E + C + i
  EXPECT_EQ(sum.spans, 1);
  EXPECT_EQ(sum.counters, 2);
  EXPECT_FALSE(Tracer::enabled());

  const JsonValue doc = JsonValue::Parse(os.str());
  const JsonValue* arr = doc.Find("traceEvents");
  ASSERT_NE(arr, nullptr);
  int begins = 0, ends = 0, counters = 0, instants = 0, meta = 0;
  for (const JsonValue& e : arr->GetArray()) {
    const std::string ph = e.GetString("ph", "");
    if (ph == "B") {
      ++begins;
      EXPECT_EQ(e.GetString("name", ""), "obs_test.outer");
    } else if (ph == "E") {
      ++ends;
    } else if (ph == "C") {
      ++counters;
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_DOUBLE_EQ(args->GetNumber("value", -1.0), 42.0);
    } else if (ph == "i") {
      ++instants;
    } else if (ph == "M") {
      ++meta;
    }
    if (ph != "M") {
      EXPECT_GE(e.GetNumber("ts", -1.0), 0.0);
      EXPECT_GE(e.GetNumber("pid", -1.0), 0.0);
    }
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
  EXPECT_EQ(counters, 1);
  EXPECT_EQ(instants, 1);
  EXPECT_GE(meta, 1);  // process_name
}

TEST(ObsTracerTest, DisabledEmitIsANoOp) {
  Tracer& t = Tracer::Global();
  t.Disable();
  ASSERT_FALSE(Tracer::enabled());
  const std::uint32_t id = t.Intern("obs_test.silent");
  t.Emit(id, EventKind::kInstant);       // must not record
  DCC_TRACE_COUNTER("obs_test.silent_macro", 1);  // must not record
  t.Enable();
  t.Emit(id, EventKind::kInstant);       // the only recorded event
  std::ostringstream os;
  const TraceSummary sum = t.Drain(os);
  EXPECT_EQ(sum.events, 1);
  EXPECT_EQ(sum.dropped, 0);
}

TEST(ObsTracerTest, InternIsStableAcrossEnableCycles) {
  Tracer& t = Tracer::Global();
  const std::uint32_t a = t.Intern("obs_test.stable_name");
  t.Enable();
  const std::uint32_t b = t.Intern("obs_test.stable_name");
  std::ostringstream os;
  t.Drain(os);
  EXPECT_EQ(a, b);
}

TEST(ObsSummaryTest, PrintJsonShape) {
  TraceSummary sum;
  sum.events = 10;
  sum.spans = 4;
  sum.counters = 2;
  sum.dropped = 1;
  sum.threads = 3;
  sum.overhead_ns = 1234;
  std::ostringstream os;
  sum.PrintJson(os);
  EXPECT_EQ(os.str(),
            "{\"schema\": \"dcc.obs.v1\", \"events\": 10, \"spans\": 4, "
            "\"counters\": 2, \"dropped\": 1, \"threads\": 3, "
            "\"overhead_ns\": 1234}");
}

}  // namespace
}  // namespace dcc::obs
