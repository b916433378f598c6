// Shared helpers for the table/figure regenerators.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "dcc/cluster/validate.h"
#include "dcc/common/table.h"
#include "dcc/common/types.h"
#include "dcc/scenario/spec.h"
#include "dcc/sinr/engine.h"
#include "dcc/sinr/network.h"
#include "dcc/workload/generators.h"

namespace dcc::bench {

inline std::vector<std::size_t> AllIndices(const sinr::Network& net) {
  std::vector<std::size_t> all(net.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return all;
}

// Engine options for the regenerators, from their command line: --engine=,
// --cell= and --threads=, parsed by dcc_run's flag grammar
// (scenario::ScenarioSpec::FromArgs). A malformed value or any other
// argument prints the reason and exits with status 2; no arguments gives
// the engine's defaults.
inline sinr::Engine::Options EngineOptionsFromArgs(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    for (const std::string& arg : args) {
      const std::string key = arg.substr(0, arg.find('='));
      if (key != "--engine" && key != "--cell" && key != "--threads") {
        throw InvalidArgument("unknown flag '" + key +
                              "' (expected --engine=, --cell= or --threads=)");
      }
    }
    return scenario::ScenarioSpec::FromArgs(args).engine;
  } catch (const InvalidArgument& e) {
    std::cerr << argv[0] << ": " << e.what() << '\n';
    std::exit(2);
  }
}

inline void Banner(const std::string& title, const std::string& paper_ref,
                   const std::string& expectation) {
  std::cout << "\n=== " << title << " ===\n"
            << "paper: " << paper_ref << "\n"
            << "expected shape: " << expectation << "\n\n";
}

}  // namespace dcc::bench
