// bench_e2e — end-to-end benchmark of the paper's workloads, with a
// per-layer split from a paired, round-by-round replay.
//
// One invocation runs one named workload (kWorkloads) on the networks
// derived from --seed, through the public scenario entry points
// (scenario::BuildScenarioNetwork, scenario::RunScenarioOnNetwork), and
// prints one JSON object on stdout. run_benchmark.py in this directory
// builds the program, turns its samples into the benchmark's metrics and
// checks them against the pins in baseline.json; README.md describes the
// method.
//
//   --trace 0  timed pass: a number of untraced passes over every network
//              that --seconds fixes (kPassSeconds), each preceded by a
//              set-up sample, with the reference kernel (ReferenceKernel)
//              timed after every chunk of Exec calls.
//   --trace 1  traced pass, once per network: a live run whose transmit
//              sets an Exec observer records, and a paired replay of the
//              recording — sim::Exec::RunRound on one Exec, then
//              sinr::Engine::StepInto on a second engine with the same
//              options — that splits the run across sinr, sim and the
//              protocol. Grid-mode workloads also re-resolve a
//              deterministic sample of the steps through a kExact engine.
//
// Flags: --workload NAME --seed N --seconds S --trace 0|1 [--quick]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dcc/cluster/validate.h"
#include "dcc/common/json.h"
#include "dcc/common/math_util.h"
#include "dcc/scenario/scenario.h"
#include "dcc/sim/runner.h"
#include "dcc/sinr/engine.h"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;
using dcc::ClusterId;
using dcc::JsonNumber;
using dcc::JsonQuote;
using dcc::Round;
using dcc::scenario::RunReport;
using dcc::scenario::ScenarioSpec;
using dcc::sinr::Engine;
using dcc::sinr::Network;
using dcc::sinr::Reception;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// One workload: a topology and an algorithm from the scenario registries,
// how many networks (seeds) one invocation runs, sized so that one pass
// over them takes about 5.5 s on the host in baseline.json, and how many
// Exec calls make one timed chunk (1.3-2.6 ms). The reasons for each
// choice are in README.md.
struct Workload {
  const char* name;
  const char* topology;        // --topology value
  const char* quick_topology;  // --quick: the same shape at n <= 128
  const char* algo;
  const char* engine;  // --engine value
  int networks;
  std::int64_t chunk_calls;
};

constexpr Workload kWorkloads[] = {
    {"clustering_dense", "uniform:n=64,side=1.768", "uniform:n=48,side=1.53",
     "clustering", "auto", 16, 4096},
    {"clustering_grid", "uniform:n=48,side=3.06", "uniform:n=32,side=2.5",
     "clustering", "grid", 14, 2048},
    {"global_bcast", "connected_uniform:n=96,side=4.33",
     "connected_uniform:n=64,side=3.54", "global_broadcast", "auto", 16, 8192},
    {"decay_wide", "grid:rows=64,cols=64,pitch=0.442",
     "grid:rows=11,cols=11,pitch=0.442", "decay_global", "auto", 15, 2},
};

// The timed pass makes max(2, floor(--seconds / kPassSeconds)) passes over
// the networks. The count depends on --seconds alone, never on how fast
// the runs go, so the fastest-of-N statistic below means the same on every
// commit measured with the same --seconds. Only on a host slowed well past
// its usual noise does a process stop early: it starts no pass (after the
// second) that the previous pass's duration says would end after
// --seconds, so a run never overruns the time it was given by much.
constexpr double kPassSeconds = 6.0;

// Every sampled engine step is re-resolved by the kExact oracle on grid
// workloads: 2% of the steps, which keeps the oracle under a tenth of the
// traced pass on every workload (README.md).
constexpr std::size_t kOracleStride = 50;

// SINRs agree within 1e-8 relative plus the eps * |T| * sinr cancellation
// term the engine documents for extreme SINRs (the bound
// tests/engine_equivalence_test.cc applies with 1e-9).
bool SinrAgrees(double grid, double exact, std::size_t n_tx) {
  const double tol =
      exact * (1e-8 + std::numeric_limits<double>::epsilon() *
                          static_cast<double>(n_tx) * exact);
  return std::abs(grid - exact) <= tol;
}

// Builds of every network before each timed pass; the fastest is that
// pass's set-up sample.
constexpr int kSetupBurst = 3;

// The reference kernel: a fixed piece of work, written here and
// independent of the library, that the timed pass runs after every chunk
// to measure how fast the host runs at that moment. The host is shared,
// and other tenants' work slows its cores by up to 2x for stretches from
// milliseconds to minutes (README.md). Each kernel slot's fastest time over
// the passes is slowed by the same stretches as the chunks' fastest times,
// so run_benchmark.py divides it out. The work is a small SINR broadcast:
// 128 nodes, a dense gain matrix and per-node std::function decide and hear
// callbacks, so it uses the cache, indirect calls and floating point the
// way the workloads' rounds do.
class ReferenceKernel {
 public:
  ReferenceKernel()
      : gain_(kNodes * kNodes), informed_(kNodes), is_tx_(kNodes) {
    std::uint64_t s = 12345;
    const auto coordinate = [&s] {  // xorshift64, in [0, 4)
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return static_cast<double>(s % 100000) / 25000.0;
    };
    std::vector<double> x(kNodes);
    std::vector<double> y(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      x[i] = coordinate();
      y[i] = coordinate();
    }
    for (std::size_t t = 0; t < kNodes; ++t) {
      for (std::size_t l = 0; l < kNodes; ++l) {
        const double dx = x[t] - x[l];
        const double dy = y[t] - y[l];
        const double d2 = dx * dx + dy * dy;
        gain_[t * kNodes + l] =
            t == l ? 0.0 : 1.0 / (d2 * std::sqrt(d2) + 1e-9);
      }
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      decide_.push_back([this, i](std::uint64_t round) {
        const std::uint64_t id = i;
        std::uint64_t h =
            (round * 0x9e3779b97f4a7c15ull) ^ (id * 0xbf58476d1ce4e5b9ull);
        h ^= h >> 31;
        return informed_[i] != 0 && h % 8 == 0;
      });
      hear_.push_back([this, i](std::size_t sender) {
        informed_[i] = 1;
        checksum_ += sender + 1;
      });
    }
  }

  // Broadcasts from node 0 for kRounds rounds; returns the time it took.
  double Run() {
    const auto t0 = Clock::now();
    std::fill(informed_.begin(), informed_.end(), 0);
    informed_[0] = 1;
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      tx_.clear();
      for (std::size_t i = 0; i < kNodes; ++i) {
        if (decide_[i](round)) tx_.push_back(i);
      }
      for (const std::size_t t : tx_) is_tx_[t] = 1;
      listeners_.clear();
      for (std::size_t i = 0; i < kNodes; ++i) {
        if (!is_tx_[i]) listeners_.push_back(i);
      }
      for (const std::size_t t : tx_) is_tx_[t] = 0;
      for (const std::size_t l : listeners_) {
        double total = kNoise;
        double best = 0.0;
        std::size_t sender = kNodes;
        for (const std::size_t t : tx_) {
          const double g = gain_[t * kNodes + l];
          total += g;
          if (g > best) {
            best = g;
            sender = t;
          }
        }
        if (sender < kNodes && best >= kBeta * (total - best)) {
          hear_[l](sender);
        }
      }
    }
    return Since(t0);
  }

  // Depends on every reception, so the work cannot be optimised away.
  std::uint64_t checksum() const { return checksum_; }

 private:
  static constexpr std::size_t kNodes = 128;
  static constexpr std::uint64_t kRounds = 40;
  static constexpr double kNoise = 1e-3;
  static constexpr double kBeta = 1.5;

  std::vector<double> gain_;  // gain_[t * kNodes + l]: transmitter t at l
  std::vector<char> informed_;
  std::vector<char> is_tx_;
  std::vector<std::function<bool(std::uint64_t)>> decide_;
  std::vector<std::function<void(std::size_t)>> hear_;
  std::vector<std::size_t> tx_;
  std::vector<std::size_t> listeners_;
  std::uint64_t checksum_ = 0;
};

// The probe wraps the workload's registered algorithm: it installs the
// run's Exec observer (the chunk timer, or the traced live run's recorder)
// and copies the engine's counters when the run ends. It is registered
// under kProbeAlgo, so a run still goes through
// scenario::RunScenarioOnNetwork unchanged.
constexpr const char* kProbeAlgo = "bench_e2e.probe";

struct Probe {
  std::string algo;
  dcc::sim::Exec::Observer observer;
  Engine::Stats stats;
};

class ProbeAlgorithm final : public dcc::scenario::Algorithm {
 public:
  explicit ProbeAlgorithm(Probe& probe) : probe_(probe) {}

  RunReport Run(dcc::scenario::RunContext& ctx) override {
    if (probe_.observer) ctx.ex.SetObserver(probe_.observer);
    RunReport rep = dcc::scenario::Algorithms().Get(probe_.algo)()->Run(ctx);
    probe_.stats = ctx.ex.engine().stats();
    return rep;
  }

 private:
  Probe& probe_;
};

// Order-sensitive digest of the (round, listener, sender) triples of every
// reception, one 64-bit word at a time (a byte-wise hash would cost more
// than the observer's other work on reception-heavy runs).
constexpr std::uint64_t kDigestSeed = 1469598103934665603ull;

void Fold(std::uint64_t& h, std::uint64_t v) {
  h = (h ^ v) * 0x9e3779b97f4a7c15ull;
  h ^= h >> 32;
}

void FoldReception(std::uint64_t& h, Round round, std::size_t listener,
                   std::size_t sender) {
  Fold(h, static_cast<std::uint64_t>(round));
  Fold(h, listener);
  Fold(h, sender);
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// The transmit set of every Exec::RunRound call of a live run, plus the
// digest and count of its receptions.
struct Recording {
  std::vector<std::uint32_t> round;   // global round of each call
  std::vector<std::uint32_t> tx_end;  // end offset of each call in tx
  std::vector<std::uint32_t> tx;      // transmitter indices, call-major
  std::uint64_t digest = kDigestSeed;
  std::int64_t receptions = 0;

  void Observe(Round r, const std::vector<std::size_t>& transmitters,
               const std::vector<Reception>& recs) {
    if (r < 0 || r > Round{UINT32_MAX}) {
      throw std::runtime_error("recording: round number out of range");
    }
    round.push_back(static_cast<std::uint32_t>(r));
    for (const std::size_t i : transmitters) {
      tx.push_back(static_cast<std::uint32_t>(i));
    }
    tx_end.push_back(static_cast<std::uint32_t>(tx.size()));
    for (const Reception& rec : recs) {
      FoldReception(digest, r, rec.listener, rec.sender);
    }
    receptions += static_cast<std::int64_t>(recs.size());
  }

  std::size_t calls() const { return round.size(); }

  void Clear() {
    round.clear();
    tx_end.clear();
    tx.clear();
    digest = kDigestSeed;
    receptions = 0;
  }
};

// Nearest-rank percentile of an ascending sample.
double Percentile(const std::vector<float>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

// A valid 1-clustering computed centrally: greedy centers pairwise farther
// than 1 - eps apart, every other node joining its nearest center (within
// 1 - eps by maximality). It only gives cluster::CheckClustering an input
// of the workload's size to time, since the scenario adapter keeps its own
// clustering to itself.
std::vector<ClusterId> GreedyClustering(const Network& net) {
  const double sep = 1.0 - net.params().eps;
  std::vector<std::size_t> centers;
  for (std::size_t u = 0; u < net.size(); ++u) {
    const bool covered = std::any_of(
        centers.begin(), centers.end(),
        [&](std::size_t c) { return net.Distance(u, c) <= sep; });
    if (!covered) centers.push_back(u);
  }
  std::vector<ClusterId> cluster_of(net.size());
  for (std::size_t u = 0; u < net.size(); ++u) {
    const std::size_t c = *std::min_element(
        centers.begin(), centers.end(), [&](std::size_t a, std::size_t b) {
          return net.Distance(u, a) < net.Distance(u, b);
        });
    cluster_of[u] = net.id(c);
  }
  return cluster_of;
}

// One run: wall time, its split into chunks of Workload::chunk_calls Exec
// calls and the reference kernel's time after each chunk (untraced runs
// only), and the outputs every repetition of the same network must
// reproduce.
struct RunSample {
  std::size_t network = 0;
  double wall_s = 0.0;
  std::vector<double> chunk_s;
  std::vector<double> ref_s;
  bool ok = false;
  std::string error;
  double rounds_total = 0.0;
  Engine::Stats stats;
};

bool SameOutputs(const RunSample& a, const RunSample& b) {
  return a.ok == b.ok && a.rounds_total == b.rounds_total &&
         a.stats.rounds == b.stats.rounds &&
         a.stats.transmissions == b.stats.transmissions &&
         a.stats.receptions == b.stats.receptions &&
         a.stats.grid_pruned == b.stats.grid_pruned &&
         a.stats.grid_exact_fallbacks == b.stats.grid_exact_fallbacks;
}

// Per-layer sums over the traced passes of every network.
struct LayerSums {
  double live_s = 0.0;       // traced live runs
  double observer_s = 0.0;   // recording observer, re-timed in the replay
  double run_round_s = 0.0;  // Σ paired Exec::RunRound
  double step_s = 0.0;       // Σ paired Engine::StepInto
  double oracle_s = 0.0;
  double validate_s = 0.0;
  double density_s = 0.0;
  double rounds_total = 0.0;
  double rounds_over_bound = 0.0;  // summed over clustering networks
  std::int64_t calls = 0;
  std::int64_t empty_calls = 0;
  std::int64_t steps = 0;
  std::int64_t transmissions = 0;
  std::int64_t receptions = 0;
  std::int64_t grid_pruned = 0;
  std::int64_t grid_fallbacks = 0;
  std::int64_t tile_states = 0;
  std::int64_t oracle_steps = 0;
  std::int64_t oracle_mismatches = 0;
  std::vector<float> step_us;
};

// Replays `rec` paired, round by round, and adds the split to `sums`.
// Returns the replay digests: {Exec replay, engine replay}.
std::pair<std::uint64_t, std::uint64_t> PairedReplay(
    const Network& net, const Engine::Options& options, const Recording& rec,
    LayerSums& sums) {
  dcc::sim::Exec ex(net, options);
  const Engine engine(net, options);
  std::optional<Engine> oracle;
  if (engine.mode() == Engine::Mode::kGrid) {
    Engine::Options exact = options;
    exact.mode = Engine::Mode::kExact;
    oracle.emplace(net, exact);
  }

  std::uint64_t exec_digest = kDigestSeed;
  std::uint64_t engine_digest = kDigestSeed;
  Round round = 0;
  const dcc::sim::Exec::Decide decide = [](std::size_t i) {
    dcc::sim::Message m;
    m.a = static_cast<std::int64_t>(i);
    return std::optional<dcc::sim::Message>(m);
  };
  const dcc::sim::Exec::Hear hear = [&](std::size_t listener,
                                        const dcc::sim::Message& m) {
    FoldReception(exec_digest, round, listener,
                  static_cast<std::size_t>(m.a));
  };

  std::vector<std::size_t> tx;
  std::vector<std::size_t> listeners;
  std::vector<char> is_tx(net.size(), 0);
  std::vector<Reception> out;
  std::vector<Reception> oracle_out;
  Recording scratch;  // re-times the live observer's per-call work
  std::size_t begin = 0;
  for (std::size_t c = 0; c < rec.calls(); ++c) {
    round = rec.round[c];
    tx.assign(rec.tx.begin() + static_cast<std::ptrdiff_t>(begin),
              rec.tx.begin() + static_cast<std::ptrdiff_t>(rec.tx_end[c]));
    begin = rec.tx_end[c];
    out.clear();
    if (!tx.empty()) {
      for (const std::size_t i : tx) is_tx[i] = 1;
      listeners.clear();
      for (std::size_t u = 0; u < net.size(); ++u) {
        if (!is_tx[u]) listeners.push_back(u);
      }
      for (const std::size_t i : tx) is_tx[i] = 0;
    }

    // Alternate which side of the pair runs first, so neither one always
    // finds the other's data in cache.
    double run_round_s = 0.0;
    double step_s = 0.0;
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (c % 2 == 0)) {
        const auto t0 = Clock::now();
        ex.RunRound(tx, decide, hear);
        run_round_s = Since(t0);
      } else if (!tx.empty()) {
        const auto t0 = Clock::now();
        engine.StepInto(tx, listeners, out);
        step_s = Since(t0);
      }
    }
    sums.run_round_s += run_round_s;
    sums.step_s += step_s;

    const auto t_obs = Clock::now();
    scratch.Observe(round, tx, out);
    sums.observer_s += Since(t_obs);
    if (scratch.tx.size() > (1u << 20)) scratch.Clear();

    ++sums.calls;
    if (tx.empty()) {
      ++sums.empty_calls;
      continue;
    }
    const std::int64_t step = sums.steps++;
    sums.transmissions += static_cast<std::int64_t>(tx.size());
    sums.receptions += static_cast<std::int64_t>(out.size());
    sums.step_us.push_back(static_cast<float>(step_s * 1e6));
    for (const Reception& r : out) {
      FoldReception(engine_digest, round, r.listener, r.sender);
    }

    if (oracle && static_cast<std::size_t>(step) % kOracleStride == 0) {
      const auto t0 = Clock::now();
      oracle->StepInto(tx, listeners, oracle_out);
      sums.oracle_s += Since(t0);
      ++sums.oracle_steps;
      bool same = oracle_out.size() == out.size();
      for (std::size_t k = 0; same && k < out.size(); ++k) {
        same = out[k].listener == oracle_out[k].listener &&
               out[k].sender == oracle_out[k].sender &&
               SinrAgrees(out[k].sinr, oracle_out[k].sinr, tx.size());
      }
      if (!same) ++sums.oracle_mismatches;
    }
  }
  const Engine::Stats& st = engine.stats();
  sums.grid_pruned += st.grid_pruned;
  sums.grid_fallbacks += st.grid_exact_fallbacks;
  sums.tile_states += st.tile_states_computed;
  return {exec_digest, engine_digest};
}

// Minimal streaming JSON object writer for the output line.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonQuote(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    os_ << (first_ ? "{" : ", ") << JsonQuote(key) << ": " << json;
    first_ = false;
    return *this;
  }
  std::string Done() {
    if (first_) return "{}";
    os_ << '}';
    return os_.str();
  }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

// The clone the engine's target_clones("avx512f", "avx2", "default")
// resolver selects on this host.
std::string EngineIsa() {
#if defined(__GNUC__) && defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
#endif
  return "default";
}

std::string Fingerprint() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return JsonObject()
      .Num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Str("cpu", CpuModel())
      .Str("isa", EngineIsa())
      .Str("compiler", compiler)
      .Str("build_type", BENCH_E2E_BUILD_TYPE)
      .Done();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "bench_e2e: " << why
            << "\nusage: bench_e2e --workload NAME [--seed N] [--seconds S]"
               " [--trace 0|1] [--quick]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      args.quick = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0.0 && args.seconds <= 3600.0)) {
    Usage("--seconds must be in (0, 3600]");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Usage("unknown workload " + args.workload);

  Probe probe;
  probe.algo = workload->algo;
  dcc::scenario::Algorithms().Register(
      kProbeAlgo, [&probe] { return std::make_unique<ProbeAlgorithm>(probe); },
      "bench_e2e: the workload's algorithm, observed");
  ScenarioSpec spec = ScenarioSpec::FromArgs(
      {std::string("--topology=") +
           (args.quick ? workload->quick_topology : workload->topology),
       std::string("--algo=") + workload->algo,
       std::string("--engine=") + workload->engine, "--threads=1"});
  spec.algo = kProbeAlgo;

  // Networks: seeds K*seed .. K*seed+K-1, so distinct --seed values never
  // share one. Set-up builds every network, each with its communication
  // graph, which Network builds lazily on first use and would otherwise be
  // charged to whichever run touched it first. --quick keeps two networks,
  // so the multi-network path stays covered.
  const int k_networks = args.quick ? 2 : workload->networks;
  std::vector<std::uint64_t> seeds;
  for (int k = 0; k < k_networks; ++k) {
    seeds.push_back(args.seed * k_networks + k);
  }
  const auto build_all = [&] {
    std::vector<Network> built;
    for (const std::uint64_t seed : seeds) {
      built.push_back(dcc::scenario::BuildScenarioNetwork(spec, seed));
      built.back().CommGraph();
    }
    return built;
  };
  // One set-up sample: the fastest of kSetupBurst builds (freeing the
  // networks is not timed).
  const auto setup_sample = [&] {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kSetupBurst; ++rep) {
      const auto t0 = Clock::now();
      const std::vector<Network> built = build_all();
      best = std::min(best, Since(t0));
    }
    return best;
  };
  const std::vector<Network> nets = build_all();
  std::vector<double> setup_s;  // timed pass only

  std::vector<RunSample> first(nets.size());
  std::vector<double> gamma(nets.size(), 0.0);
  std::vector<std::string> errors;
  std::int64_t attempted = 0;
  const auto fail = [&](std::size_t k, const std::string& why) {
    errors.push_back("network " + std::to_string(seeds[k]) + ": " + why);
  };
  const auto report_failure = [](const RunSample& s) {
    return "report not ok" + (s.error.empty() ? "" : ": " + s.error);
  };
  // Per network, each chunk's and each reference slot's fastest time over
  // the untraced runs.
  std::vector<std::vector<double>> best_chunk_s(nets.size());
  std::vector<std::vector<double>> best_ref_s(nets.size());
  ReferenceKernel reference;
  // Runs network k once. With a recording, the observer records the run;
  // without one, every chunk_calls Exec calls it reads the clock and runs
  // the reference kernel, whose time is left out of the chunks'.
  const auto run_once = [&](std::size_t k, Recording* rec) {
    RunSample s;
    s.network = k;
    std::int64_t calls = 0;
    Clock::time_point chunk_start;
    if (rec != nullptr) {
      probe.observer = [rec](Round r, const std::vector<std::size_t>& t,
                             const std::vector<Reception>& recs) {
        rec->Observe(r, t, recs);
      };
    } else {
      probe.observer = [&](Round, const std::vector<std::size_t>&,
                           const std::vector<Reception>&) {
        if (++calls % workload->chunk_calls == 0) {
          s.chunk_s.push_back(Since(chunk_start));
          s.ref_s.push_back(reference.Run());
          chunk_start = Clock::now();
        }
      };
    }
    const auto t0 = Clock::now();
    chunk_start = t0;
    const RunReport rep =
        dcc::scenario::RunScenarioOnNetwork(spec, seeds[k], nets[k]);
    if (rec == nullptr) s.chunk_s.push_back(Since(chunk_start));
    s.wall_s = Since(t0);
    probe.observer = nullptr;
    s.ok = rep.ok;
    s.error = rep.error;
    s.rounds_total = rep.metrics.Get("rounds_total");
    s.stats = probe.stats;
    gamma[k] = rep.metrics.Get("gamma");
    return s;
  };
  // Checks an untraced run against the network's first one and folds its
  // chunk and reference times into best_chunk_s and best_ref_s.
  const auto keep = [&](const RunSample& s) {
    std::vector<double>& best = best_chunk_s[s.network];
    std::vector<double>& best_ref = best_ref_s[s.network];
    ++attempted;
    if (!s.ok) {
      fail(s.network, report_failure(s));
      return;
    }
    if (!first[s.network].ok) first[s.network] = s;
    if (!SameOutputs(s, first[s.network]) ||
        (!best.empty() && best.size() != s.chunk_s.size())) {
      fail(s.network, "outputs differ from the network's first run");
    } else if (best.empty()) {
      best = s.chunk_s;
      best_ref = s.ref_s;
    } else {
      for (std::size_t i = 0; i < best.size(); ++i) {
        best[i] = std::min(best[i], s.chunk_s[i]);
      }
      for (std::size_t i = 0; i < best_ref.size(); ++i) {
        best_ref[i] = std::min(best_ref[i], s.ref_s[i]);
      }
    }
  };

  JsonObject out;
  out.Str("workload", workload->name)
      .Num("seed", static_cast<double>(args.seed))
      .Bool("quick", args.quick)
      .Bool("trace", args.trace)
      .Str("spec", spec.ToString())
      .Raw("fingerprint", Fingerprint());

  std::vector<std::string> digests(nets.size());
  if (!args.trace) {
    const int passes = std::max(
        2, static_cast<int>(std::floor(args.seconds / kPassSeconds)));
    const auto t_start = Clock::now();
    double pass_s = 0.0;
    int made = 0;
    while (made < passes &&
           (made < 2 ||
            Since(t_start) + pass_s <= args.seconds)) {
      const auto t_pass = Clock::now();
      setup_s.push_back(setup_sample());
      for (std::size_t k = 0; k < nets.size(); ++k) keep(run_once(k, nullptr));
      pass_s = Since(t_pass);
      ++made;
    }
    out.Num("passes", made);
  } else {
    LayerSums sums;
    bool replay_match = true;
    for (std::size_t k = 0; k < nets.size(); ++k) {
      Recording rec;
      const RunSample live = run_once(k, &rec);
      first[k] = live;
      sums.live_s += live.wall_s;
      sums.rounds_total += live.rounds_total;
      digests[k] = Hex(rec.digest);

      const std::int64_t mismatches = sums.oracle_mismatches;
      const auto [exec_digest, engine_digest] =
          PairedReplay(nets[k], spec.engine, rec, sums);
      const bool match = exec_digest == rec.digest &&
                         engine_digest == rec.digest &&
                         live.stats.receptions == rec.receptions;
      replay_match = replay_match && match;
      ++attempted;
      if (!live.ok) {
        fail(k, report_failure(live));
      } else if (!match) {
        fail(k, "live, Exec replay and engine replay receptions differ");
      } else if (sums.oracle_mismatches != mismatches) {
        fail(k, "grid steps disagree with the exact oracle");
      }

      std::vector<std::size_t> members(nets[k].size());
      std::iota(members.begin(), members.end(), std::size_t{0});
      auto t0 = Clock::now();
      dcc::cluster::SubsetDensity(nets[k], members);
      sums.density_s += Since(t0);
      if (std::string(workload->algo) == "clustering") {
        const auto cluster_of = GreedyClustering(nets[k]);
        t0 = Clock::now();
        const auto chk =
            dcc::cluster::CheckClustering(nets[k], members, cluster_of);
        sums.validate_s += Since(t0);
        if (!chk.ValidRClustering(1.0, nets[k].params().eps)) {
          fail(k, "CheckClustering rejects the stand-in clustering");
        }
        const double n_ids = static_cast<double>(spec.sinr.id_space);
        sums.rounds_over_bound +=
            live.rounds_total /
            (gamma[k] * std::log2(n_ids) * dcc::LogStar(n_ids));
      }
    }

    std::vector<float>& us = sums.step_us;
    std::sort(us.begin(), us.end());
    // The tail is the highest of p99.9/p99/p90 with at least ten samples
    // beyond it (the median when even p90 has fewer).
    double tail_pct = 50.0;
    for (const double pct : {99.9, 99.0, 90.0}) {
      if (static_cast<double>(us.size()) * (1.0 - pct / 100.0) >= 10.0) {
        tail_pct = pct;
        break;
      }
    }
    const auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const double sim_self_s = sums.run_round_s - sums.step_s;
    const double protocol_self_s =
        sums.live_s - sums.observer_s - sums.run_round_s;
    const double steps = static_cast<double>(sums.steps);
    const double calls = static_cast<double>(sums.calls);
    JsonObject layers;
    layers.Num("sinr.steps", steps)
        .Num("sinr.tx_per_step",
             ratio(static_cast<double>(sums.transmissions), steps))
        .Num("sinr.receptions", static_cast<double>(sums.receptions))
        .Num("sinr.step_s", sums.step_s)
        .Num("sinr.steps_per_s", ratio(steps, sums.step_s))
        .Num("sinr.step_us_p50", Percentile(us, 50.0))
        .Num("sinr.step_us_tail", Percentile(us, tail_pct))
        .Num("sinr.step_tail_pct", tail_pct)
        .Num("sinr.step_samples", static_cast<double>(us.size()))
        .Num("sinr.grid_prune_ratio",
             ratio(static_cast<double>(sums.grid_pruned),
                   static_cast<double>(sums.grid_pruned + sums.grid_fallbacks)))
        .Num("sinr.grid_fallbacks_per_step",
             ratio(static_cast<double>(sums.grid_fallbacks), steps))
        .Num("sinr.tile_states_computed", static_cast<double>(sums.tile_states))
        .Num("sinr.oracle_steps", static_cast<double>(sums.oracle_steps))
        .Num("sinr.oracle_mismatches",
             static_cast<double>(sums.oracle_mismatches))
        .Num("sinr.oracle_share",
             ratio(sums.oracle_s,
                   sums.live_s + sums.run_round_s + sums.step_s))
        .Num("sim.calls", calls)
        .Num("sim.empty_call_ratio",
             ratio(static_cast<double>(sums.empty_calls), calls))
        .Num("sim.charged_rounds", sums.rounds_total - calls)
        .Num("sim.self_s", sim_self_s)
        .Num("sim.us_per_call", ratio(sim_self_s * 1e6, calls))
        .Num("protocol.self_s", protocol_self_s)
        .Num("protocol.share",
             ratio(protocol_self_s, sums.live_s - sums.observer_s))
        .Num("cluster.validate_s", sums.validate_s)
        .Num("cluster.rounds_over_bound",
             sums.rounds_over_bound / static_cast<double>(nets.size()))
        .Num("scenario.density_s", sums.density_s)
        .Num("bench.trace_overhead",
             ratio(sums.observer_s, sums.live_s - sums.observer_s));
    out.Raw("per_layer", layers.Done())
        .Bool("replay_match", replay_match);
  }

  std::string networks = "[";
  for (std::size_t k = 0; k < nets.size(); ++k) {
    JsonObject net;
    net.Num("seed", static_cast<double>(seeds[k]))
        .Num("n", static_cast<double>(nets[k].size()))
        .Num("gamma", gamma[k])
        .Num("rounds_total", first[k].rounds_total)
        .Num("steps", static_cast<double>(first[k].stats.rounds))
        .Num("receptions", static_cast<double>(first[k].stats.receptions))
        .Num("best_s", std::accumulate(best_chunk_s[k].begin(),
                                       best_chunk_s[k].end(), 0.0));
    if (!digests[k].empty()) net.Str("digest", digests[k]);
    networks += (k ? ", " : "") + net.Done();
  }
  networks += "]";

  // The reference kernel's time on the quietest stretches the process met:
  // the mean over every slot of every network of the slot's fastest time.
  double ref_sum = 0.0;
  std::size_t ref_slots = 0;
  for (const std::vector<double>& slots : best_ref_s) {
    ref_sum = std::accumulate(slots.begin(), slots.end(), ref_sum);
    ref_slots += slots.size();
  }

  const auto array = [](const auto& items, const auto& to_json) {
    std::string json = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      json += (i ? ", " : "") + to_json(items[i]);
    }
    return json + "]";
  };

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.Raw("networks", networks)
      .Raw("setup_s", array(setup_s, [](double v) { return JsonNumber(v); }))
      .Num("ref_s", ref_slots ? ref_sum / static_cast<double>(ref_slots) : 0.0)
      .Num("ref_slots", static_cast<double>(ref_slots))
      .Str("ref_checksum", Hex(reference.checksum()))
      .Raw("errors", array(errors, [](const std::string& e) {
             return JsonQuote(e);
           }))
      .Num("attempted", static_cast<double>(attempted))
      .Num("failed", static_cast<double>(errors.size()))
      .Num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  std::cout << out.Done() << std::endl;
  return errors.empty() ? 0 : 1;
}
