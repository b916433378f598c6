// Process-wide metrics: named counters, gauges and power-of-two
// histograms with a Prometheus-style text exposition. Unlike the tracer,
// the registry is always on — updates are single relaxed atomic
// operations on handles resolved once (function-local statics at the
// instrumentation site), so the steady-state cost is the same class as
// the engine's own Stats counters. The text surface is served by the
// daemon's `metrics` op and dumped by `dcc_run --metrics`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "dcc/obs/histogram.h"

namespace dcc::obs {

class Counter {
 public:
  void Add(std::int64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class Gauge {
 public:
  void Set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Prometheus text for one metric: the `# HELP` / `# TYPE` preamble, then
// its samples. A histogram prints cumulative `_bucket{le="..."}` series up
// to its highest non-empty bucket, then `le="+Inf"`, `_sum` and `_count`.
// MetricsRegistry::PrintText and the daemon's service metrics both write
// through these.
void WriteCounterText(std::ostream& os, std::string_view name,
                      std::string_view help, std::int64_t value);
void WriteGaugeText(std::ostream& os, std::string_view name,
                    std::string_view help, std::int64_t value);
void WriteHistogramText(std::ostream& os, std::string_view name,
                        std::string_view help, const Pow2Histogram& h);

// Registry of named metrics. Handles returned by Get* are valid for the
// life of the process (entries are never removed), which is what lets
// call sites cache them in statics. Names follow the Prometheus
// convention: snake_case, `_total` suffix on counters, unit suffix on
// histograms (the repo records histogram values in microseconds, `_us`).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name, std::string_view help);
  Gauge& GetGauge(std::string_view name, std::string_view help);
  Pow2Histogram& GetHistogram(std::string_view name, std::string_view help);

  // Text exposition (Prometheus format, the writers above). Metrics print
  // in name order, so the output is stable for a deterministic workload.
  void PrintText(std::ostream& os) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Pow2Histogram> histogram;
  };

  Entry& GetEntry(std::string_view name, std::string_view help, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> metrics_;
};

}  // namespace dcc::obs
