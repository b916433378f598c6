#include "dcc/scenario/report.h"

#include <algorithm>
#include <ostream>

#include "dcc/common/json.h"
#include "dcc/sinr/engine.h"

namespace dcc::scenario {

void RunReport::PrintJson(std::ostream& os) const {
  os << "{\"schema\": \"dcc.run_report.v1\", \"topology\": "
     << JsonQuote(topology) << ", \"algo\": " << JsonQuote(algo)
     << ", \"seed\": " << seed << ", \"ok\": " << (ok ? "true" : "false");
  if (!error.empty()) os << ", \"error\": " << JsonQuote(error);
  os << ", \"metrics\": ";
  metrics.PrintJson(os);
  if (!dynamic.empty()) {
    os << ", \"dynamic\": {\"schema\": \"dcc.dynamic.v1\", \"model\": "
       << JsonQuote(dynamic.model)
       << ", \"epoch_len\": " << JsonNumber(dynamic.epoch_len)
       << ", \"epochs\": [";
    for (std::size_t i = 0; i < dynamic.epochs.size(); ++i) {
      if (i) os << ", ";
      dynamic.epochs[i].PrintJson(os);
    }
    os << "]}";
  }
  if (!parallel.empty()) {
    os << ", \"parallel\": {\"schema\": \"dcc.parallel.v1\", \"threads\": "
       << parallel.threads
       << ", \"rounds_parallel\": " << parallel.rounds_parallel
       << ", \"rounds_serial\": " << parallel.rounds_serial
       << ", \"shard_load\": [";
    for (std::size_t i = 0; i < parallel.shard_load.size(); ++i) {
      if (i) os << ", ";
      os << parallel.shard_load[i];
    }
    os << "], \"imbalance\": " << JsonNumber(parallel.imbalance)
       << ", \"tile_states_computed\": " << parallel.tile_states_computed
       << '}';
  }
  os << '}';
}

void FillParallelSection(RunReport& rep, const sinr::Engine& engine) {
  if (engine.threads() <= 1) return;
  const sinr::Engine::Stats& st = engine.stats();
  rep.parallel.threads = engine.threads();
  rep.parallel.rounds_parallel = st.parallel_rounds;
  rep.parallel.rounds_serial = st.parallel_small_rounds;
  rep.parallel.shard_load = st.shard_listeners;
  rep.parallel.tile_states_computed = st.tile_states_computed;
  rep.parallel.imbalance = 0.0;
  if (!st.shard_listeners.empty()) {
    std::int64_t total = 0;
    std::int64_t peak = 0;
    for (const std::int64_t l : st.shard_listeners) {
      total += l;
      peak = std::max(peak, l);
    }
    if (total > 0) {
      const double mean = static_cast<double>(total) /
                          static_cast<double>(st.shard_listeners.size());
      rep.parallel.imbalance = static_cast<double>(peak) / mean;
    }
  }
}

void PrintSweepJson(std::ostream& os, const std::string& spec_line,
                    const std::vector<RunReport>& runs) {
  os << "{\"schema\": \"dcc.sweep.v1\", \"spec\": " << JsonQuote(spec_line)
     << ", \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i) os << ", ";
    runs[i].PrintJson(os);
  }
  os << "]}\n";
}

}  // namespace dcc::scenario
