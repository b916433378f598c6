// Cross-subsystem tracing: begin/end spans, counters and instants
// recorded into per-thread bounded buffers and drained as Chrome
// trace-event JSON (chrome://tracing, Perfetto). Always compiled, off by
// default; the entire disabled cost of an instrumentation point is one
// relaxed atomic load (`Tracer::enabled()`) and a dead branch — the
// tracked bench gate (bench_obs_overhead) holds that under 1% of round
// time. Tracing is pure observation: nothing in here is consulted by any
// scheduling decision, so receptions are bit-identical with tracing on or
// off at every thread count (pinned by ObsEquivalenceTest).
//
// Threading contract: Emit is safe from any thread (each thread owns its
// buffer; registration takes a mutex once per thread per Enable cycle).
// Enable and Drain must be called while no traced work is in flight — the
// tools call them strictly before/after the run, and anything that ran
// inside a joined WorkerPool task or joined thread is ordered before the
// drain by that join.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dcc::obs {

// Raw steady-clock ticks in nanoseconds — the time base every trace
// event is recorded in.
inline std::int64_t NowRawNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class EventKind : std::uint8_t {
  kBegin = 0,    // span open  -> ph "B"
  kEnd = 1,      // span close -> ph "E"
  kCounter = 2,  // value sample -> ph "C"
  kInstant = 3,  // point event -> ph "i"
};

struct TraceEvent {
  std::int64_t ts_ns = 0;
  std::int64_t value = 0;
  std::uint32_t name = 0;  // id from Tracer::Intern
  EventKind kind = EventKind::kBegin;
};

// What Drain reports about the trace it just wrote — the "dcc.obs.v1"
// summary object (layout pinned in docs/REPORT_SCHEMA.md). Every field
// except overhead_ns is deterministic for a deterministic workload;
// overhead_ns is a measured diagnostic.
struct TraceSummary {
  std::int64_t events = 0;    // data events written to the file
  std::int64_t spans = 0;     // begin events among them
  std::int64_t counters = 0;  // counter + instant events among them
  std::int64_t dropped = 0;   // events discarded on full buffers
  std::int64_t threads = 0;   // thread buffers holding >= 1 event
  std::int64_t overhead_ns = 0;  // measured cost of 1000 disabled checks

  // {"schema": "dcc.obs.v1", ...} — one object, no trailing newline.
  void PrintJson(std::ostream& os) const;
};

// The process-wide trace recorder. One instance (Global()); per-thread
// buffers are bounded — when full, *new* events are dropped (and counted)
// so a trace always keeps the start of the run, clustering phases
// included, rather than an arbitrary suffix.
class Tracer {
 public:
  static constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 16;

  static Tracer& Global();

  // THE disabled-path check: one relaxed atomic load. Instrumentation
  // macros branch on this before touching anything else.
  static bool enabled() {
    return g_enabled_.load(std::memory_order_relaxed);
  }

  // Starts a fresh recording: clears prior buffers and flips the enabled
  // gate. Interned names survive (call sites cache their ids in
  // function-local statics).
  void Enable(std::size_t ring_capacity = kDefaultRingCapacity);

  // Stops recording without draining; Drain implies this.
  void Disable();

  // Returns a stable id for `name` (same string -> same id, ids are
  // never invalidated for the life of the process).
  std::uint32_t Intern(std::string_view name);

  // Records one event on the calling thread's buffer. Callers should
  // check enabled() first; Emit re-checks and is a no-op when disabled.
  void Emit(std::uint32_t name, EventKind kind, std::int64_t value = 0);

  // Disables tracing, writes everything recorded as one Chrome
  // trace-event JSON document, clears the buffers, and returns the
  // summary.
  TraceSummary Drain(std::ostream& os);

 private:
  struct ThreadBuf {
    std::vector<TraceEvent> events;  // bounded append; reserved at creation
    std::uint64_t dropped = 0;
    std::uint32_t tid = 0;
  };

  ThreadBuf* RegisterThisThread(std::uint64_t epoch);

  static std::atomic<bool> g_enabled_;

  std::mutex mu_;
  std::vector<std::string> names_;  // id -> string; append-only
  std::unordered_map<std::string, std::uint32_t> name_ids_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> capacity_{kDefaultRingCapacity};
};

// RAII span. Default-constructed it is inert (a dead store); Arm() opens
// the span and the destructor closes it. The DCC_TRACE_SPAN macro is the
// intended spelling — it keeps the disabled path to the single enabled()
// branch and interns the name once per call site.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void Arm(std::uint32_t name) {
    name_ = name;
    armed_ = true;
    Tracer::Global().Emit(name, EventKind::kBegin);
  }

  ~TraceSpan() {
    if (armed_) Tracer::Global().Emit(name_, EventKind::kEnd);
  }

 private:
  std::uint32_t name_ = 0;
  bool armed_ = false;
};

#define DCC_OBS_CONCAT_(a, b) a##b
#define DCC_OBS_CONCAT(a, b) DCC_OBS_CONCAT_(a, b)

// Opens a span named `name_lit` (a string literal) covering the rest of
// the enclosing scope. Disabled cost: one relaxed load + untaken branch.
#define DCC_TRACE_SPAN(name_lit)                                          \
  ::dcc::obs::TraceSpan DCC_OBS_CONCAT(dcc_obs_span_, __LINE__);          \
  if (::dcc::obs::Tracer::enabled()) {                                    \
    static const std::uint32_t DCC_OBS_CONCAT(dcc_obs_id_, __LINE__) =    \
        ::dcc::obs::Tracer::Global().Intern(name_lit);                    \
    DCC_OBS_CONCAT(dcc_obs_span_, __LINE__)                               \
        .Arm(DCC_OBS_CONCAT(dcc_obs_id_, __LINE__));                      \
  }                                                                       \
  static_assert(true, "")  /* force a trailing semicolon */

// Records a counter sample (rendered as a counter track in the viewer).
#define DCC_TRACE_COUNTER(name_lit, sample)                               \
  do {                                                                    \
    if (::dcc::obs::Tracer::enabled()) {                                  \
      static const std::uint32_t DCC_OBS_CONCAT(dcc_obs_id_, __LINE__) =  \
          ::dcc::obs::Tracer::Global().Intern(name_lit);                  \
      ::dcc::obs::Tracer::Global().Emit(                                  \
          DCC_OBS_CONCAT(dcc_obs_id_, __LINE__),                          \
          ::dcc::obs::EventKind::kCounter,                                \
          static_cast<std::int64_t>(sample));                             \
    }                                                                     \
  } while (0)

// Records a zero-duration instant event.
#define DCC_TRACE_INSTANT(name_lit)                                       \
  do {                                                                    \
    if (::dcc::obs::Tracer::enabled()) {                                  \
      static const std::uint32_t DCC_OBS_CONCAT(dcc_obs_id_, __LINE__) =  \
          ::dcc::obs::Tracer::Global().Intern(name_lit);                  \
      ::dcc::obs::Tracer::Global().Emit(                                  \
          DCC_OBS_CONCAT(dcc_obs_id_, __LINE__),                          \
          ::dcc::obs::EventKind::kInstant);                               \
    }                                                                     \
  } while (0)

}  // namespace dcc::obs
