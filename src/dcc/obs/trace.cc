#include "dcc/obs/trace.h"

#include <algorithm>
#include <limits>
#include <ostream>
#include <utility>

#include "dcc/common/json.h"

namespace dcc::obs {

std::atomic<bool> Tracer::g_enabled_{false};

namespace {

// Each thread remembers which tracer generation its buffer belongs to;
// Enable bumps the epoch, so a stale slot re-registers instead of writing
// into a buffer that Drain already collected.
struct ThreadSlot {
  std::uint64_t epoch = 0;
  void* buf = nullptr;
};
thread_local ThreadSlot t_slot;

// The value reported as TraceSummary::overhead_ns: wall clock for 1000
// passes over the disabled instrumentation check (one relaxed load and a
// dead branch each). Measured after the gate is lowered, so it times
// exactly what every instrumentation point costs in an untraced run.
std::int64_t MeasureDisabledChecksNs() {
  volatile std::int64_t sink = 0;
  const std::int64_t t0 = NowRawNs();
  for (int i = 0; i < 1000; ++i) {
    if (Tracer::enabled()) sink = sink + 1;
  }
  const std::int64_t t1 = NowRawNs();
  (void)sink;
  return t1 - t0;
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Enable(std::size_t ring_capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  bufs_.clear();
  capacity_.store(ring_capacity == 0 ? 1 : ring_capacity,
                  std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  g_enabled_.store(true, std::memory_order_release);
}

void Tracer::Disable() { g_enabled_.store(false, std::memory_order_relaxed); }

std::uint32_t Tracer::Intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = name_ids_.find(std::string(name));
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

Tracer::ThreadBuf* Tracer::RegisterThisThread(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto buf = std::make_unique<ThreadBuf>();
  buf->tid = static_cast<std::uint32_t>(bufs_.size());
  buf->events.reserve(capacity_.load(std::memory_order_relaxed));
  ThreadBuf* raw = buf.get();
  bufs_.push_back(std::move(buf));
  t_slot.epoch = epoch;
  t_slot.buf = raw;
  return raw;
}

void Tracer::Emit(std::uint32_t name, EventKind kind, std::int64_t value) {
  if (!enabled()) return;
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  auto* buf = static_cast<ThreadBuf*>(t_slot.buf);
  if (buf == nullptr || t_slot.epoch != epoch) {
    buf = RegisterThisThread(epoch);
  }
  if (buf->events.size() <
      capacity_.load(std::memory_order_relaxed)) {  // drop-new when full
    buf->events.push_back({NowRawNs(), value, name, kind});
  } else {
    ++buf->dropped;
  }
}

TraceSummary Tracer::Drain(std::ostream& os) {
  g_enabled_.store(false, std::memory_order_relaxed);
  TraceSummary sum;
  sum.overhead_ns = MeasureDisabledChecksNs();

  std::lock_guard<std::mutex> lock(mu_);

  // Rebase onto the earliest event so the viewer opens at t=0.
  std::int64_t min_ts = std::numeric_limits<std::int64_t>::max();
  for (const auto& buf : bufs_) {
    for (const TraceEvent& e : buf->events) min_ts = std::min(min_ts, e.ts_ns);
  }
  if (min_ts == std::numeric_limits<std::int64_t>::max()) min_ts = 0;

  os << "{\"traceEvents\": [";
  bool first = true;
  const auto comma = [&os, &first] {
    os << (first ? "\n" : ",\n");
    first = false;
  };
  comma();
  os << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 0, "
        "\"tid\": 0, \"args\": {\"name\": \"dcc\"}}";

  for (const auto& buf : bufs_) {
    const std::uint32_t tid = buf->tid;
    for (const TraceEvent& e : buf->events) {
      comma();
      const std::string name =
          e.name < names_.size() ? JsonQuote(names_[e.name]) : "\"?\"";
      const std::string ts =
          JsonNumber(static_cast<double>(e.ts_ns - min_ts) / 1000.0);
      switch (e.kind) {
        case EventKind::kBegin:
        case EventKind::kEnd:
          os << "{\"name\": " << name << ", \"cat\": \"dcc\", \"ph\": \""
             << (e.kind == EventKind::kBegin ? 'B' : 'E')
             << "\", \"ts\": " << ts << ", \"pid\": 0, \"tid\": " << tid
             << "}";
          if (e.kind == EventKind::kBegin) ++sum.spans;
          break;
        case EventKind::kCounter:
          os << "{\"name\": " << name << ", \"cat\": \"dcc\", \"ph\": \"C\""
             << ", \"ts\": " << ts << ", \"pid\": 0, \"tid\": " << tid
             << ", \"args\": {\"value\": " << e.value << "}}";
          ++sum.counters;
          break;
        case EventKind::kInstant:
          os << "{\"name\": " << name << ", \"cat\": \"dcc\", \"ph\": \"i\""
             << ", \"ts\": " << ts << ", \"pid\": 0, \"tid\": " << tid
             << ", \"s\": \"t\"}";
          ++sum.counters;
          break;
      }
      ++sum.events;
    }
    if (!buf->events.empty()) ++sum.threads;
    sum.dropped += static_cast<std::int64_t>(buf->dropped);
  }
  os << "\n]}\n";

  bufs_.clear();
  return sum;
}

void TraceSummary::PrintJson(std::ostream& os) const {
  os << "{\"schema\": \"dcc.obs.v1\", \"events\": " << events
     << ", \"spans\": " << spans << ", \"counters\": " << counters
     << ", \"dropped\": " << dropped << ", \"threads\": " << threads
     << ", \"overhead_ns\": " << overhead_ns << '}';
}

}  // namespace dcc::obs
