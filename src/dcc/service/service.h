// The resident scenario service ("dccd"): experiments as *requests*.
//
// PR 2 made experiments values (ScenarioSpec); this layer makes them
// requests against a long-lived process that amortizes everything a
// one-shot `dcc_run` pays per invocation — process startup, topology
// generation, index build — across all traffic. A Service owns a Unix
// domain listening socket and serves length-prefixed JSON frames
// (dcc::wire): one frame in, one frame out, requests answered in order
// per connection; concurrency comes from connections.
//
// Request object:
//   {"op": "run"|"stats"|"ping"|"metrics", "id": N,
//    "spec": "<flag line>", "seed": S}
//     op     defaults to "run". `id` is echoed back verbatim (default 0).
//     spec   (run) the ScenarioSpec flag grammar — the same line dcc_run
//            takes. Sweep specs are rejected: a service request is exactly
//            one (spec, seed) run; clients expand grids themselves.
//     seed   (run) defaults to the spec's first seed.
// Response object:
//   run:   {"id": N, "ok": true, "cached": "result"|"topology"|"none",
//           "report": <dcc.run_report.v1 object, always the last field>}
//   stats: {"id": N, "ok": true, "stats": <dcc.service.v1 object>}
//   metrics: {"id": N, "ok": true, "metrics": "<text exposition>"}
//          — the Prometheus-style dump (service counters, the request
//          latency histogram, and the process MetricsRegistry) as one
//          JSON string.
//   ping:  {"id": N, "ok": true}
//   error: {"id": N, "ok": false, "error": "..."}  (bad spec, unknown op).
//          `ok` means "a report was produced" — a run whose validator
//          failed still answers ok = true with report.ok false.
//          A run rejected because the service is draining answers with a
//          STRUCTURED error — the one machine-actionable rejection (the
//          client's move is "retry against the next instance", not "fix
//          the request"), so the code must be a stable field, not a
//          substring of prose (pinned in docs/REPORT_SCHEMA.md):
//            {"id": N, "ok": false,
//             "error": {"code": "draining", "message": "..."}}
//
// Execution path of a run request:
//   result cache (CanonicalKey(spec)+seed -> serialized report; a hit
//   answers with ZERO engine rounds) -> bounded AdmissionQueue (at
//   capacity, backpressure blocks the connection thread; an admitted run
//   executes on that thread, and its engine shards rounds on
//   WorkerPool::Shared(), the pool sweeps use too) -> topology cache
//   (TopologyCacheKey -> generated sinr::Network, shared read-only across
//   runs; single-flight, so simultaneous requests for one topology batch
//   onto one build) -> RunScenarioOnNetwork.
//
// Drain (SIGTERM/SIGINT in dccd, or Drain() embedded): stop accepting
// connections, shut down reads so no new frames arrive, let every
// received request finish and flush its response, join all threads. A
// second Drain is a no-op.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dcc/parallel/admission.h"
#include "dcc/scenario/scenario.h"
#include "dcc/service/cache.h"
#include "dcc/service/stats.h"
#include "dcc/sinr/network.h"

namespace dcc::service {

// A run rejected by the draining admission queue. Carries a stable machine
// code ("draining") that HandleRequest turns into the structured error
// frame instead of the plain-string form.
class DrainingError : public std::runtime_error {
 public:
  explicit DrainingError(const std::string& what)
      : std::runtime_error(what) {}
};

// The topology cache's content key: the coordinates that determine the
// generated network and nothing else — topology name + params, SINR
// parameters, shadowing, and the resolved id seed, under `seed`. Requests
// differing only in algorithm, engine options, faults, or round budget
// share the entry.
std::string TopologyCacheKey(const scenario::ScenarioSpec& spec,
                             std::uint64_t seed);

class Service {
 public:
  struct Options {
    std::string socket_path;        // required; unlinked + bound on Start
    int queue_capacity = 64;        // admitted-run bound (backpressure)
    std::size_t topology_cache = 64;    // entries (generated networks)
    std::size_t result_cache = 4096;    // entries (serialized reports)
  };

  explicit Service(Options opts);
  ~Service();  // drains if still serving

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Binds + listens + spawns the accept loop. Throws on socket errors
  // (stale socket files are unlinked first).
  void Start();

  // Graceful drain; blocks until every in-flight request finished and all
  // threads joined. Idempotent, callable from any thread (not a signal
  // handler — dccd routes signals through sigwait).
  void Drain();

  bool draining() const { return draining_.load(std::memory_order_acquire); }
  const std::string& socket_path() const { return opts_.socket_path; }

  ServiceStats Snapshot() const;

  // Prometheus-style text exposition: the service's own counters and the
  // request-latency histogram (derived from Snapshot()/latency_), then
  // everything in obs::MetricsRegistry::Global(). Served by the `metrics`
  // op and printed by `dcc_load --metrics`.
  void PrintMetricsText(std::ostream& os) const;

  // The structured error frame:
  //   {"id": N, "ok": false, "error": {"code": C, "message": M}}
  // Exposed so the schema-pinning test asserts the exact bytes the docs
  // promise.
  static std::string ErrorFrame(std::uint64_t id, const std::string& code,
                                const std::string& message);

 private:
  void AcceptLoop();
  void ConnectionLoop(int fd);
  // One frame in, one response out; never throws (errors become error
  // responses). Appends to counters.
  std::string HandleRequest(const std::string& frame);
  std::string HandleRun(std::uint64_t id, const std::string& spec_line,
                        const double* seed_field);

  Options opts_;
  parallel::AdmissionQueue admission_;
  ContentCache<sinr::Network> topology_cache_;
  ContentCache<std::string> result_cache_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::chrono::steady_clock::time_point start_time_;

  std::mutex conn_mu_;
  std::vector<int> conn_fds_;            // open connections (guarded)
  std::vector<std::thread> conn_threads_;  // guarded; joined on Drain
  std::int64_t connections_total_ = 0;   // guarded

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::atomic<std::int64_t> requests_{0};
  std::atomic<std::int64_t> runs_{0};
  std::atomic<std::int64_t> errors_{0};
  LatencyHistogram latency_;
};

}  // namespace dcc::service
