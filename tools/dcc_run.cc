// dcc_run — the one driver for every registered scenario.
//
//   $ dcc_run --topology=uniform:n=4096,side=20 --algo=clustering \
//             --seeds=1..8 --json=out.json
//
// Scenario flags are the ScenarioSpec grammar (see README "Running
// experiments" or --help). Driver-only flags:
//   --list         print registered topologies and algorithms, then exit
//   --canonical    print the spec's canonical content key, then exit
//   --json=PATH    write the sweep report as JSON (- for stdout)
//   --trace=PATH   record a Chrome-trace of the sweep (pure observation)
//   --metrics      dump the metrics registry in Prometheus text form
//   --quiet        suppress the per-run text summary
//   --help         usage
// Exit status is 0 iff every run validated (ok == true).
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dcc/obs/metrics.h"
#include "dcc/obs/trace.h"
#include "dcc/scenario/dynamics.h"
#include "dcc/scenario/scenario.h"

namespace {

void PrintUsage(std::ostream& os) {
  os << "usage: dcc_run [flags]\n"
        "\n"
        "scenario flags (all optional; defaults in parentheses):\n"
        "  --topology=NAME[:k=v,...]  topology + parameters (uniform)\n"
        "  --algo=NAME[:k=v,...]      algorithm + parameters (clustering)\n"
        "  --seeds=A..B | A,B,C | A   seed sweep (1)\n"
        "  --sweep=KEY:V1,V2,...      size grid: sweep one topology param\n"
        "                             across values, crossed with --seeds\n"
        "  --id-seed=U --nonce=U      replay overrides (seed+1 / seed+2)\n"
        "  --dynamics=k=v,...         dynamic run: mobility + churn, one\n"
        "                             re-clustering per epoch. Driver keys:\n"
        "                             model=waypoint|walk|group, epochs=8,\n"
        "                             epoch_len=1, churn=0, join=churn,\n"
        "                             side=0 (0: bounding box); model keys\n"
        "                             per `--list` (unknown keys rejected)\n"
        "  --alpha= --beta= --eps= --noise= --power=   SINR model\n"
        "  --id-space=N               ID space upper bound (65536)\n"
        "  --shadowing=SPREAD[:SEED]  deterministic per-link shadowing (off)\n"
        "  --engine=exact|grid|auto   interference resolution (auto)\n"
        "  --cell=D                   grid tile side (engine heuristic)\n"
        "  --rounds=R                 round budget where applicable\n"
        "  --faults=K                 K always-on background jammers (0)\n"
        "  --threads=T                sweep workers AND engine round shards\n"
        "                             on the shared pool (0 = hardware);\n"
        "                             reports are the same bytes at every\n"
        "                             T (dispatch counts go to --metrics)\n"
        "\n"
        "driver flags:\n"
        "  --list --json=PATH --quiet --help   (--json=- writes the report\n"
        "                             to stdout and implies --quiet)\n"
        "  --canonical                print the spec's canonical content\n"
        "                             key — the order-invariant line the\n"
        "                             dccd service caches address on — and\n"
        "                             exit\n"
        "  --trace=PATH               record spans/counters for the whole\n"
        "                             sweep and write one Chrome-trace JSON\n"
        "                             (load in Perfetto / chrome://tracing).\n"
        "                             Pure observation: receptions stay\n"
        "                             bit-identical. Summary on stderr\n"
        "  --metrics                  after the sweep, dump the process\n"
        "                             metrics registry (Prometheus text\n"
        "                             exposition) to stderr\n"
        "\n"
        "run `dcc_run --list` for registered topologies/algorithms.\n";
}

void PrintRegistries(std::ostream& os) {
  os << "topologies:\n";
  for (const auto& [name, help] : dcc::scenario::Topologies().List()) {
    os << "  " << name << "\n      " << help << '\n';
  }
  os << "algorithms:\n";
  for (const auto& [name, help] : dcc::scenario::Algorithms().List()) {
    os << "  " << name << "\n      " << help << '\n';
  }
  os << "mobility models (--dynamics=model=NAME,...; driver keys: model, "
        "epochs, epoch_len, churn, join, side):\n";
  for (const auto& [name, help] : dcc::scenario::MobilityModels().List()) {
    os << "  " << name << "\n      " << help << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcc::scenario;

  std::vector<std::string> spec_args;
  std::string json_path;
  std::string trace_path;
  bool metrics = false;
  bool quiet = false;
  bool canonical = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else if (arg == "--list") {
      PrintRegistries(std::cout);
      return 0;
    } else if (arg == "--canonical") {
      canonical = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
      if (trace_path.empty()) {
        std::cerr << "dcc_run: --trace= needs a path\n";
        return 2;
      }
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
      if (json_path.empty()) {
        std::cerr << "dcc_run: --json= needs a path (use - for stdout)\n";
        return 2;
      }
      // JSON on stdout must stay machine-parseable: suppress the text
      // summary instead of interleaving it.
      if (json_path == "-") quiet = true;
    } else {
      spec_args.push_back(arg);
    }
  }

  ScenarioSpec spec;
  std::vector<RunReport> runs;
  try {
    spec = ScenarioSpec::FromArgs(spec_args);
    if (canonical) {
      std::cout << spec.CanonicalKey() << '\n';
      return 0;
    }
    if (!quiet) std::cout << "spec: " << spec.ToString() << '\n';
    if (!trace_path.empty()) dcc::obs::Tracer::Global().Enable();
    runs = RunSweep(spec);
  } catch (const std::exception& e) {
    std::cerr << "dcc_run: " << e.what() << '\n';
    return 2;
  }

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "dcc_run: cannot open " << trace_path << '\n';
      return 2;
    }
    const dcc::obs::TraceSummary sum = dcc::obs::Tracer::Global().Drain(out);
    sum.PrintJson(std::cerr);  // dcc.obs.v1; stdout stays report-only
    std::cerr << '\n';
  }
  if (metrics) dcc::obs::MetricsRegistry::Global().PrintText(std::cerr);

  bool all_ok = true;
  for (const RunReport& r : runs) {
    all_ok = all_ok && r.ok;
    if (quiet) continue;
    std::cout << "seed " << r.seed << ": " << (r.ok ? "ok" : "FAILED");
    if (!r.error.empty()) std::cout << " (" << r.error << ')';
    std::cout << '\n';
    r.metrics.Print(std::cout, 2);
  }

  if (!json_path.empty()) {
    if (json_path == "-") {
      PrintSweepJson(std::cout, spec.ToString(), runs);
    } else {
      std::ofstream out(json_path);
      if (!out) {
        std::cerr << "dcc_run: cannot open " << json_path << '\n';
        return 2;
      }
      PrintSweepJson(out, spec.ToString(), runs);
    }
  }
  return all_ok ? 0 : 1;
}
