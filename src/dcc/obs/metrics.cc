#include "dcc/obs/metrics.h"

#include <cstdio>
#include <ostream>

namespace dcc::obs {

namespace {

void WritePreamble(std::ostream& os, std::string_view name,
                   std::string_view help, const char* type) {
  os << "# HELP " << name << ' ' << help << "\n# TYPE " << name << ' '
     << type << '\n';
}

}  // namespace

void WriteCounterText(std::ostream& os, std::string_view name,
                      std::string_view help, std::int64_t value) {
  WritePreamble(os, name, help, "counter");
  os << name << ' ' << value << '\n';
}

void WriteGaugeText(std::ostream& os, std::string_view name,
                    std::string_view help, std::int64_t value) {
  WritePreamble(os, name, help, "gauge");
  os << name << ' ' << value << '\n';
}

void WriteHistogramText(std::ostream& os, std::string_view name,
                        std::string_view help, const Pow2Histogram& h) {
  WritePreamble(os, name, help, "histogram");
  const auto snap = h.SnapshotBuckets();
  int last = -1;
  std::int64_t total = 0;
  for (int i = 0; i < Pow2Histogram::kBuckets; ++i) {
    total += snap[static_cast<std::size_t>(i)];
    if (snap[static_cast<std::size_t>(i)] > 0) last = i;
  }
  std::int64_t cum = 0;
  for (int i = 0; i <= last; ++i) {
    cum += snap[static_cast<std::size_t>(i)];
    os << name << "_bucket{le=\"" << Pow2Histogram::BucketUpper(i) << "\"} "
       << cum << '\n';
  }
  os << name << "_bucket{le=\"+Inf\"} " << total << '\n'
     << name << "_sum " << h.sum() << '\n'
     << name << "_count " << total << '\n';
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Entry& MetricsRegistry::GetEntry(std::string_view name,
                                                  std::string_view help,
                                                  Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry entry;
    entry.kind = kind;
    entry.help = std::string(help);
    switch (kind) {
      case Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        entry.histogram = std::make_unique<Pow2Histogram>();
        break;
    }
    it = metrics_.emplace(std::string(name), std::move(entry)).first;
  }
  return it->second;
}

Counter& MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help) {
  Entry& e = GetEntry(name, help, Kind::kCounter);
  if (e.kind != Kind::kCounter) {
    // Same name registered with a different kind is a programming error;
    // keep the process alive but quarantine the updates.
    static Counter fallback;
    std::fprintf(stderr, "obs: metric %.*s is not a counter\n",
                 static_cast<int>(name.size()), name.data());
    return fallback;
  }
  return *e.counter;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, std::string_view help) {
  Entry& e = GetEntry(name, help, Kind::kGauge);
  if (e.kind != Kind::kGauge) {
    static Gauge fallback;
    std::fprintf(stderr, "obs: metric %.*s is not a gauge\n",
                 static_cast<int>(name.size()), name.data());
    return fallback;
  }
  return *e.gauge;
}

Pow2Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                             std::string_view help) {
  Entry& e = GetEntry(name, help, Kind::kHistogram);
  if (e.kind != Kind::kHistogram) {
    static Pow2Histogram fallback;
    std::fprintf(stderr, "obs: metric %.*s is not a histogram\n",
                 static_cast<int>(name.size()), name.data());
    return fallback;
  }
  return *e.histogram;
}

void MetricsRegistry::PrintText(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, e] : metrics_) {
    switch (e.kind) {
      case Kind::kCounter:
        WriteCounterText(os, name, e.help, e.counter->value());
        break;
      case Kind::kGauge:
        WriteGaugeText(os, name, e.help, e.gauge->value());
        break;
      case Kind::kHistogram:
        WriteHistogramText(os, name, e.help, *e.histogram);
        break;
    }
  }
}

}  // namespace dcc::obs
