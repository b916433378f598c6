// Structured result of one scenario run: the spec coordinates that produced
// it, a pass/fail verdict from the algorithm's validator, and a named-metric
// recorder (round counts, validation measurements, diagnostics). Serializes
// to schema-stable JSON ("dcc.run_report.v1") for downstream tooling.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dcc/stats/recorder.h"

namespace dcc::scenario {

struct RunReport {
  std::string topology;
  std::string algo;
  std::uint64_t seed = 0;
  // Verdict of the algorithm's own validation (geometric postconditions,
  // coverage, agreement...). A run that threw has ok = false and `error`.
  bool ok = false;
  std::string error;
  stats::Recorder metrics;

  // Dynamic runs only ("dcc.dynamic.v1"): one metric set per epoch
  // (rounds, clusters, unassigned, survival...). Static runs leave it
  // empty and the JSON omits the section entirely.
  struct DynamicSection {
    std::string model;          // mobility model name
    double epoch_len = 0.0;     // simulated time per epoch
    std::vector<stats::Recorder> epochs;
    bool empty() const { return epochs.empty(); }
  };
  DynamicSection dynamic;

  void PrintJson(std::ostream& os) const;
};

// Sweep envelope ("dcc.sweep.v1"): the canonical spec line + all runs.
void PrintSweepJson(std::ostream& os, const std::string& spec_line,
                    const std::vector<RunReport>& runs);

}  // namespace dcc::scenario
