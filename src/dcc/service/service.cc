#include "dcc/service/service.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "dcc/common/json.h"
#include "dcc/common/wire.h"
#include "dcc/obs/metrics.h"
#include "dcc/obs/trace.h"
#include "dcc/scenario/dynamics.h"

namespace dcc::service {

namespace {

using Clock = std::chrono::steady_clock;

std::vector<std::string> SplitLine(const std::string& line) {
  std::vector<std::string> args;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    std::size_t end = line.find(' ', pos);
    if (end == std::string::npos) end = line.size();
    if (end > pos) args.push_back(line.substr(pos, end - pos));
    pos = end;
  }
  return args;
}

std::uint64_t SeedFromField(const double* field,
                            const scenario::ScenarioSpec& spec) {
  if (field == nullptr) return spec.seeds.front();
  if (*field < 0 || *field != std::floor(*field) || *field > 9.0e15) {
    throw InvalidArgument("seed: must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(*field);
}

std::string ErrorResponse(std::uint64_t id, const std::string& what) {
  return "{\"id\": " + std::to_string(id) +
         ", \"ok\": false, \"error\": " + JsonQuote(what) + '}';
}

}  // namespace

std::string Service::ErrorFrame(std::uint64_t id, const std::string& code,
                                const std::string& message) {
  return "{\"id\": " + std::to_string(id) +
         ", \"ok\": false, \"error\": {\"code\": " + JsonQuote(code) +
         ", \"message\": " + JsonQuote(message) + "}}";
}

std::string TopologyCacheKey(const scenario::ScenarioSpec& spec,
                             std::uint64_t seed) {
  scenario::ScenarioSpec key;
  key.topology = spec.topology;
  key.topology_params = spec.topology_params;
  key.sinr = spec.sinr;
  key.shadowing = spec.shadowing;
  key.seeds = {seed};
  // Resolve the id-seed default so "--id-seed=4 under seed 3" and plain
  // "seed 3" (id seed 3+1) address the same network.
  key.id_seed = spec.id_seed.value_or(seed + 1);
  return key.CanonicalKey();
}

Service::Service(Options opts)
    : opts_(std::move(opts)),
      admission_(opts_.queue_capacity),
      topology_cache_(opts_.topology_cache),
      result_cache_(opts_.result_cache) {
  DCC_REQUIRE(!opts_.socket_path.empty(), "service: socket_path required");
}

Service::~Service() { Drain(); }

void Service::Start() {
  DCC_REQUIRE(!started_.load(), "service: already started");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.socket_path.size() >= sizeof addr.sun_path) {
    throw InvalidArgument("service: socket path '" + opts_.socket_path +
                          "' exceeds the AF_UNIX limit");
  }
  std::memcpy(addr.sun_path, opts_.socket_path.c_str(),
              opts_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw wire::WireError(std::string("service: socket: ") +
                          std::strerror(errno));
  }
  ::unlink(opts_.socket_path.c_str());  // a stale file from a dead daemon
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw wire::WireError("service: bind " + opts_.socket_path + ": " +
                          std::strerror(err));
  }
  if (::listen(listen_fd_, 128) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw wire::WireError(std::string("service: listen: ") +
                          std::strerror(err));
  }
  start_time_ = Clock::now();
  started_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void Service::AcceptLoop() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (drain) or fatal — stop accepting
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    conn_fds_.push_back(fd);
    ++connections_total_;
    conn_threads_.emplace_back([this, fd] { ConnectionLoop(fd); });
  }
}

void Service::ConnectionLoop(int fd) {
  std::string frame;
  try {
    while (wire::ReadFrame(fd, &frame)) {
      const auto t0 = Clock::now();
      const std::string response = HandleRequest(frame);
      wire::WriteFrame(fd, response);
      latency_.Record(std::chrono::duration_cast<std::chrono::microseconds>(
                          Clock::now() - t0)
                          .count());
      requests_.fetch_add(1, std::memory_order_relaxed);
      if (draining_.load(std::memory_order_acquire)) break;
    }
  } catch (const std::exception&) {
    // Peer vanished or sent garbage framing: drop the connection. Request-
    // level errors were already answered in-band by HandleRequest.
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (std::size_t i = 0; i < conn_fds_.size(); ++i) {
    if (conn_fds_[i] == fd) {
      conn_fds_[i] = conn_fds_.back();
      conn_fds_.pop_back();
      break;
    }
  }
}

std::string Service::HandleRequest(const std::string& frame) {
  DCC_TRACE_SPAN("service.request");
  std::uint64_t id = 0;
  try {
    const JsonValue req = JsonValue::Parse(frame);
    const double id_num = req.GetNumber("id", 0.0);
    if (id_num >= 0 && id_num == std::floor(id_num)) {
      id = static_cast<std::uint64_t>(id_num);
    }
    const std::string op = req.GetString("op", "run");
    if (op == "ping") {
      return "{\"id\": " + std::to_string(id) + ", \"ok\": true}";
    }
    if (op == "stats") {
      std::ostringstream os;
      Snapshot().PrintJson(os);
      return "{\"id\": " + std::to_string(id) +
             ", \"ok\": true, \"stats\": " + os.str() + '}';
    }
    if (op == "metrics") {
      std::ostringstream os;
      PrintMetricsText(os);
      return "{\"id\": " + std::to_string(id) +
             ", \"ok\": true, \"metrics\": " + JsonQuote(os.str()) + '}';
    }
    if (op != "run") {
      throw InvalidArgument("unknown op '" + op +
                            "' (expected run, stats, metrics or ping)");
    }
    const JsonValue* spec_field = req.Find("spec");
    if (spec_field == nullptr) {
      throw InvalidArgument("run request needs a \"spec\" field");
    }
    const JsonValue* seed_field = req.Find("seed");
    double seed_num = 0.0;
    if (seed_field != nullptr) seed_num = seed_field->GetNumber();
    return HandleRun(id, spec_field->GetString(),
                     seed_field ? &seed_num : nullptr);
  } catch (const DrainingError& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorFrame(id, "draining", e.what());
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse(id, e.what());
  }
}

std::string Service::HandleRun(std::uint64_t id, const std::string& spec_line,
                               const double* seed_field) {
  const scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::FromArgs(SplitLine(spec_line));
  if (!spec.sweep_key.empty()) {
    throw InvalidArgument(
        "service requests are single runs; expand --sweep grids into one "
        "request per (value, seed)");
  }
  const std::uint64_t seed = SeedFromField(seed_field, spec);

  scenario::ScenarioSpec run_spec = spec;
  run_spec.seeds = {seed};
  const std::string result_key = run_spec.CanonicalKey();

  bool result_hit = false;
  bool topology_hit = false;
  const std::shared_ptr<const std::string> report = result_cache_.GetOrBuild(
      result_key,
      [&]() -> std::shared_ptr<const std::string> {
        std::string serialized;
        const bool admitted = admission_.Execute([&] {
          scenario::RunReport rep;
          if (scenario::IsDynamic(spec)) {
            // Mobility mutates its own network copy per run; the shared
            // topology cache only serves immutable static networks.
            rep = scenario::RunScenario(spec, seed);
          } else {
            bool hit = false;
            const std::shared_ptr<const sinr::Network> net =
                topology_cache_.GetOrBuild(
                    TopologyCacheKey(spec, seed),
                    [&] {
                      return std::make_shared<const sinr::Network>(
                          scenario::BuildScenarioNetwork(spec, seed));
                    },
                    &hit);
            topology_hit = hit;
            if (hit) {
              DCC_TRACE_INSTANT("service.topology_cache.hit");
            } else {
              DCC_TRACE_INSTANT("service.topology_cache.miss");
            }
            rep = scenario::RunScenarioOnNetwork(spec, seed, *net);
          }
          std::ostringstream os;
          rep.PrintJson(os);
          serialized = os.str();
        });
        if (!admitted) {
          throw DrainingError(
              "service is draining; no new runs are admitted");
        }
        return std::make_shared<const std::string>(std::move(serialized));
      },
      &result_hit);

  if (result_hit) {
    DCC_TRACE_INSTANT("service.result_cache.hit");
  } else {
    DCC_TRACE_INSTANT("service.result_cache.miss");
  }
  runs_.fetch_add(1, std::memory_order_relaxed);
  const char* cached =
      result_hit ? "result" : (topology_hit ? "topology" : "none");
  return "{\"id\": " + std::to_string(id) + ", \"ok\": true, \"cached\": \"" +
         cached + "\", \"report\": " + *report + '}';
}

void Service::Drain() {
  if (!started_.load(std::memory_order_acquire)) return;
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    // Another drainer is (or was) at work; wait for it to finish joining.
    while (!drained_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return;
  }
  // Wake admitters blocked on a full queue FIRST: their requests are
  // rejected with the structured draining frame (and their connection
  // threads flush it and exit) instead of waiting out every admitted run.
  admission_.Drain();
  // Stop the accept loop, then stop new frames on every open connection;
  // requests already received finish and flush their responses. The fd
  // slot is only cleared once the accept thread has joined — it reads
  // listen_fd_ on every accept call, so writing -1 any earlier races.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  accept_thread_.join();
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
  }
  // The accept loop is gone, so conn_threads_ no longer grows.
  for (std::thread& t : conn_threads_) t.join();
  conn_threads_.clear();
  ::unlink(opts_.socket_path.c_str());
  drained_.store(true, std::memory_order_release);
}

ServiceStats Service::Snapshot() const {
  ServiceStats s;
  if (started_.load(std::memory_order_acquire)) {
    s.uptime_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Clock::now() - start_time_)
                      .count();
  }
  {
    std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(conn_mu_));
    s.connections_active = static_cast<std::int64_t>(conn_fds_.size());
    s.connections_total = connections_total_;
  }
  s.requests = requests_.load(std::memory_order_relaxed);
  s.runs = runs_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.result_hits = result_cache_.hits();
  s.result_misses = result_cache_.misses();
  s.topology_hits = topology_cache_.hits();
  s.topology_misses = topology_cache_.misses();
  s.queue_depth = admission_.depth();
  s.queue_peak = admission_.peak_depth();
  s.queue_capacity = admission_.capacity();
  if (s.uptime_ms > 0) {
    s.throughput_rps = static_cast<double>(s.requests) /
                       (static_cast<double>(s.uptime_ms) / 1000.0);
  }
  s.latency_ms_p50 = latency_.Quantile(0.50) / 1000.0;
  s.latency_ms_p99 = latency_.Quantile(0.99) / 1000.0;
  s.draining = draining_.load(std::memory_order_acquire);
  return s;
}

void Service::PrintMetricsText(std::ostream& os) const {
  const ServiceStats s = Snapshot();
  using obs::WriteCounterText;
  using obs::WriteGaugeText;
  WriteCounterText(os, "dcc_service_requests_total", "Frames answered",
                   s.requests);
  WriteCounterText(os, "dcc_service_runs_total",
                   "Run ops that produced a report", s.runs);
  WriteCounterText(os, "dcc_service_errors_total",
                   "Requests answered with ok=false", s.errors);
  WriteCounterText(os, "dcc_service_connections_total", "Connections accepted",
                   s.connections_total);
  WriteCounterText(os, "dcc_service_result_cache_hits_total",
                   "Result cache hits", s.result_hits);
  WriteCounterText(os, "dcc_service_result_cache_misses_total",
                   "Result cache misses", s.result_misses);
  WriteCounterText(os, "dcc_service_topology_cache_hits_total",
                   "Topology cache hits", s.topology_hits);
  WriteCounterText(os, "dcc_service_topology_cache_misses_total",
                   "Topology cache misses", s.topology_misses);
  WriteGaugeText(os, "dcc_service_connections_active", "Open connections",
                 s.connections_active);
  WriteGaugeText(os, "dcc_service_queue_depth",
                 "Admitted runs waiting or running", s.queue_depth);
  WriteGaugeText(os, "dcc_service_queue_peak", "Peak admission queue depth",
                 s.queue_peak);
  WriteGaugeText(os, "dcc_service_uptime_ms", "Milliseconds since Start",
                 s.uptime_ms);
  obs::WriteHistogramText(os, "dcc_service_request_latency_us",
                          "Request latency, microseconds", latency_);

  obs::MetricsRegistry::Global().PrintText(os);
}

}  // namespace dcc::service
