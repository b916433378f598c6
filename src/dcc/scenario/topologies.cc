// Built-in topology registrations: every workload:: generator, keyed by
// name, parameterized through the spec's ParamMap. Defaults are sized so
// every topology runs in well under a second with any algorithm.
#include "dcc/scenario/registry.h"
#include "dcc/workload/generators.h"

namespace dcc::scenario {

void RegisterBuiltinTopologies(TopologyRegistry& reg) {
  reg.Register(
      "uniform",
      [](const ParamMap& p, const sinr::Params&, std::uint64_t seed) {
        return workload::UniformSquare(p.GetInt32("n", 128),
                                       p.GetDouble("side", 5.0), seed);
      },
      "n=128,side=5 — n points uniform in a side x side square");
  reg.Register(
      "connected_uniform",
      [](const ParamMap& p, const sinr::Params& sp, std::uint64_t seed) {
        return workload::ConnectedUniform(p.GetInt32("n", 96),
                                          p.GetDouble("side", 4.0), sp, seed,
                                          p.GetInt32("max_tries", 64));
      },
      "n=96,side=4,max_tries=64 — uniform square resampled until connected");
  reg.Register(
      "blob_chain",
      [](const ParamMap& p, const sinr::Params&, std::uint64_t seed) {
        return workload::BlobChain(p.GetInt32("blobs", 6),
                                   p.GetInt32("per_blob", 10),
                                   p.GetDouble("sigma", 0.3),
                                   p.GetDouble("spacing", 1.2), seed);
      },
      "blobs=6,per_blob=10,sigma=0.3,spacing=1.2 — Gaussian blob chain "
      "(elongated, dense spots)");
  reg.Register(
      "grid",
      [](const ParamMap& p, const sinr::Params&, std::uint64_t) {
        return workload::Grid(p.GetInt32("rows", 8), p.GetInt32("cols", 8),
                              p.GetDouble("pitch", 0.5));
      },
      "rows=8,cols=8,pitch=0.5 — regular grid (seed-independent)");
  reg.Register(
      "line",
      [](const ParamMap& p, const sinr::Params&, std::uint64_t seed) {
        return workload::Line(p.GetInt32("n", 32), p.GetDouble("pitch", 0.5),
                              seed);
      },
      "n=32,pitch=0.5 — jittered line (max-diameter regime)");
  reg.Register(
      "ring",
      [](const ParamMap& p, const sinr::Params&, std::uint64_t) {
        return workload::Ring(p.GetInt32("n", 32), p.GetDouble("radius", 2.5));
      },
      "n=32,radius=2.5 — ring (seed-independent)");
  reg.Register(
      "corridor",
      [](const ParamMap& p, const sinr::Params&, std::uint64_t seed) {
        return workload::Corridor(p.GetInt32("n", 128),
                                  p.GetDouble("length", 12.0),
                                  p.GetDouble("width", 3.0),
                                  p.GetInt32("holes", 3),
                                  p.GetDouble("hole_side", 1.5), seed);
      },
      "n=128,length=12,width=3,holes=3,hole_side=1.5 — corridor with "
      "pinch points");
  reg.Register(
      "two_scale",
      [](const ParamMap& p, const sinr::Params&, std::uint64_t seed) {
        return workload::TwoScale(p.GetInt32("n_sparse", 96),
                                  p.GetDouble("side", 6.0),
                                  p.GetInt32("hotspots", 3),
                                  p.GetInt32("n_dense", 24),
                                  p.GetDouble("sigma", 0.25), seed);
      },
      "n_sparse=96,side=6,hotspots=3,n_dense=24,sigma=0.25 — sparse "
      "backdrop + dense hotspots (extreme density contrast)");
  reg.Register(
      "star",
      [](const ParamMap& p, const sinr::Params&, std::uint64_t) {
        return workload::Star(p.GetInt32("arms", 5), p.GetInt32("per_arm", 6),
                              p.GetDouble("pitch", 0.5));
      },
      "arms=5,per_arm=6,pitch=0.5 — hub with rays (seed-independent)");
}

}  // namespace dcc::scenario
