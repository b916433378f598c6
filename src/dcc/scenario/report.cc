#include "dcc/scenario/report.h"

#include <ostream>

#include "dcc/common/json.h"

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
  os << '}';
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
