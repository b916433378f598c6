// Built-in algorithm adapters: every protocol and baseline in the library
// behind the common Algorithm interface. Each adapter runs its protocol,
// records per-stage metrics, and sets `ok` from the matching validator —
// geometric postconditions for clustering, oracle coverage for the
// broadcast problems, agreement for leader election.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <utility>

#include "dcc/baselines/decay_global.h"
#include "dcc/baselines/grid_tdma.h"
#include "dcc/baselines/rand_local.h"
#include "dcc/baselines/tdma.h"
#include "dcc/bcast/leader_election.h"
#include "dcc/bcast/local_broadcast.h"
#include "dcc/bcast/smsb.h"
#include "dcc/bcast/sns.h"
#include "dcc/bcast/wakeup.h"
#include "dcc/cluster/clustering.h"
#include "dcc/cluster/validate.h"
#include "dcc/scenario/registry.h"

namespace dcc::scenario {

namespace {

class FnAlgorithm final : public Algorithm {
 public:
  using Fn = RunReport (*)(RunContext&);
  explicit FnAlgorithm(Fn fn) : fn_(fn) {}
  RunReport Run(RunContext& ctx) override { return fn_(ctx); }

 private:
  Fn fn_;
};

void RegisterFn(AlgorithmRegistry& reg, const std::string& name,
                FnAlgorithm::Fn fn, std::string help) {
  reg.Register(
      name, [fn] { return std::make_unique<FnAlgorithm>(fn); },
      std::move(help));
}

// The source of a (global) broadcast-style run, as a rank into the member
// set: rank 0 is the first member, matching the node-index-0 convention of
// the legacy benches on fault-free runs.
std::size_t SourceMember(const RunContext& ctx) {
  const auto rank =
      static_cast<std::size_t>(ctx.params.GetInt("source", 0));
  DCC_REQUIRE(rank < ctx.members.size(), "source: rank out of member range");
  return ctx.members[rank];
}

// Diameter-derived default phase budget (the paper's public D bound),
// recorded so sweeps can normalize rounds by D. Connectivity rides along
// (the comm graph is built already) — global problems can only succeed on
// connected networks.
int MaxPhases(const RunContext& ctx, RunReport& rep) {
  const int d = ctx.net.Diameter();
  rep.metrics.Set("diameter", d);
  rep.metrics.Set("connected", ctx.net.Connected() ? 1 : 0);
  return ctx.params.GetInt32("max_phases", std::max(d, 0) + 3);
}

RunReport RunClustering(RunContext& ctx) {
  RunReport rep;
  const auto res = cluster::BuildClustering(ctx.ex, ctx.prof, ctx.members,
                                            ctx.gamma, ctx.nonce);
  const auto chk = cluster::CheckClustering(ctx.net, ctx.members,
                                            res.cluster_of);
  rep.ok = chk.ValidOn(ctx.net) && res.unassigned == 0;
  rep.metrics.Set("rounds", static_cast<double>(res.rounds));
  rep.metrics.Set("levels", res.levels);
  rep.metrics.Set("unassigned", static_cast<double>(res.unassigned));
  rep.metrics.Set("clusters", chk.num_clusters);
  rep.metrics.Set("max_cluster_size", chk.max_cluster_size);
  rep.metrics.Set("max_radius", chk.max_radius);
  rep.metrics.Set("min_center_sep", chk.min_center_sep);
  rep.metrics.Set("max_clusters_per_unit_ball",
                  chk.max_clusters_per_unit_ball);
  return rep;
}

RunReport RunLocalBroadcast(RunContext& ctx) {
  RunReport rep;
  const auto res = bcast::LocalBroadcast(ctx.ex, ctx.prof, ctx.members,
                                         ctx.gamma, ctx.nonce);
  rep.ok = res.AllCovered();
  rep.metrics.Set("rounds", static_cast<double>(res.rounds));
  rep.metrics.Set("clustering_rounds",
                  static_cast<double>(res.clustering_rounds));
  rep.metrics.Set("labeling_rounds", static_cast<double>(res.labeling_rounds));
  rep.metrics.Set("sns_rounds", static_cast<double>(res.sns_rounds));
  rep.metrics.Set("covered_single_round",
                  static_cast<double>(res.covered_single_round));
  rep.metrics.Set("covered_cumulative",
                  static_cast<double>(res.covered_cumulative));
  return rep;
}

RunReport RunGlobalBroadcast(RunContext& ctx) {
  RunReport rep;
  const int max_phases = MaxPhases(ctx, rep);
  const auto res = bcast::SmsBroadcast(ctx.ex, ctx.prof, {SourceMember(ctx)},
                                       ctx.gamma, max_phases, ctx.nonce);
  rep.ok = res.all_awake;
  rep.metrics.Set("rounds", static_cast<double>(res.rounds));
  rep.metrics.Set("phases", res.phases);
  rep.metrics.Set("awake", static_cast<double>(res.awake));
  return rep;
}

RunReport RunSnsOnce(RunContext& ctx) {
  RunReport rep;
  std::vector<sim::Participant> parts;
  parts.reserve(ctx.members.size());
  for (const std::size_t idx : ctx.members) {
    parts.push_back({idx, ctx.net.id(idx), kNoCluster});
  }
  // Oracle: which comm-graph member pairs exchanged the payload. The SNS
  // guarantee is unconditional only for constant-density participant sets;
  // coverage over a dense member set measures how far the schedule reaches.
  // Receptions are recorded sparsely — a dense member x node matrix would
  // be O(n^2) memory at the sizes the sweep layer runs.
  std::vector<char> is_member(ctx.net.size(), 0);
  for (const std::size_t idx : ctx.members) is_member[idx] = 1;
  std::size_t receptions = 0;
  const std::uint64_t n64 = ctx.net.size();
  std::unordered_set<std::uint64_t> heard;  // listener * n + sender index
  const Round rounds = bcast::RunSns(
      ctx.ex, ctx.prof, parts,
      [](std::size_t) {
        sim::Message m;
        m.kind = 1;
        return std::optional<sim::Message>(m);
      },
      [&](std::size_t listener, const sim::Message& m) {
        ++receptions;
        if (is_member[listener]) {
          heard.insert(listener * n64 + ctx.net.IndexOf(m.src));
        }
      },
      ctx.nonce);
  std::size_t covered_pairs = 0;
  std::size_t comm_pairs = 0;
  for (const std::size_t u : ctx.members) {
    for (const std::size_t v : ctx.net.CommGraph()[u]) {
      if (!is_member[v]) continue;
      ++comm_pairs;
      covered_pairs += heard.count(u * n64 + v);
    }
  }
  rep.ok = covered_pairs == comm_pairs;
  rep.metrics.Set("rounds", static_cast<double>(rounds));
  rep.metrics.Set("receptions", static_cast<double>(receptions));
  rep.metrics.Set("comm_pairs", static_cast<double>(comm_pairs));
  rep.metrics.Set("covered_pairs", static_cast<double>(covered_pairs));
  return rep;
}

RunReport RunWakeupScheme(RunContext& ctx) {
  RunReport rep;
  const int max_phases = MaxPhases(ctx, rep);
  const std::vector<std::pair<std::size_t, Round>> spontaneous{
      {SourceMember(ctx), Round{0}}};
  const auto res = bcast::RunWakeup(ctx.ex, ctx.prof, spontaneous, ctx.gamma,
                                    max_phases, ctx.nonce);
  rep.ok = res.all_awake;
  rep.metrics.Set("rounds", static_cast<double>(res.rounds));
  rep.metrics.Set("epochs", res.epochs);
  return rep;
}

RunReport RunLeaderElection(RunContext& ctx) {
  RunReport rep;
  const int max_phases = MaxPhases(ctx, rep);
  const auto res = bcast::ElectLeader(ctx.ex, ctx.prof, ctx.members,
                                      ctx.gamma, max_phases, ctx.nonce);
  rep.ok = res.agreed;
  rep.metrics.Set("rounds", static_cast<double>(res.rounds));
  rep.metrics.Set("probes", res.probes);
  rep.metrics.Set("leader", static_cast<double>(res.leader));
  return rep;
}

RunReport RunTdmaLocal(RunContext& ctx) {
  RunReport rep;
  const auto res = baselines::TdmaLocalBroadcast(ctx.ex, ctx.members);
  rep.ok = res.complete;
  rep.metrics.Set("rounds", static_cast<double>(res.rounds));
  rep.metrics.Set("reached", static_cast<double>(res.reached));
  return rep;
}

RunReport RunTdmaGlobal(RunContext& ctx) {
  RunReport rep;
  const int d = ctx.net.Diameter();
  rep.metrics.Set("diameter", d);
  rep.metrics.Set("connected", ctx.net.Connected() ? 1 : 0);
  const int max_sweeps = ctx.params.GetInt32("max_sweeps", std::max(d, 0) + 3);
  const auto res =
      baselines::TdmaGlobalBroadcast(ctx.ex, SourceMember(ctx), max_sweeps);
  rep.ok = res.complete;
  rep.metrics.Set("rounds", static_cast<double>(res.rounds));
  rep.metrics.Set("reached", static_cast<double>(res.reached));
  return rep;
}

RunReport RunGridTdma(RunContext& ctx) {
  RunReport rep;
  const auto res = baselines::GridTdmaLocalBroadcast(
      ctx.ex, ctx.members, ctx.params.GetInt32("s", 6));
  rep.ok = res.covered;
  rep.metrics.Set("rounds", static_cast<double>(res.rounds));
  rep.metrics.Set("cell_colors", res.cell_colors);
  rep.metrics.Set("max_occupancy", res.max_occupancy);
  rep.metrics.Set("covered_nodes", static_cast<double>(res.covered_nodes));
  return rep;
}

// Randomized baselines draw their coin-flip seed from the run seed unless
// the spec pins one (the legacy tables used fixed seeds).
std::uint64_t CoinSeed(const RunContext& ctx) {
  return static_cast<std::uint64_t>(
      ctx.params.GetInt("seed", static_cast<std::int64_t>(ctx.seed)));
}

RunReport RunRandLocalKnown(RunContext& ctx) {
  RunReport rep;
  const auto res = baselines::RandLocalBroadcastKnown(
      ctx.ex, ctx.members, ctx.gamma, ctx.params.GetDouble("c_prob", 1.0),
      ctx.params.GetDouble("c_len", 24.0), CoinSeed(ctx));
  rep.ok = res.covered;
  rep.metrics.Set("rounds", static_cast<double>(res.rounds_budget));
  rep.metrics.Set("rounds_to_cover", static_cast<double>(res.rounds_to_cover));
  rep.metrics.Set("covered_nodes", static_cast<double>(res.covered_nodes));
  return rep;
}

RunReport RunRandLocalUnknown(RunContext& ctx) {
  RunReport rep;
  const int max_delta = ctx.params.GetInt32("max_delta", 2 * ctx.gamma);
  const auto res = baselines::RandLocalBroadcastUnknown(
      ctx.ex, ctx.members, max_delta, ctx.params.GetDouble("c_prob", 1.0),
      ctx.params.GetDouble("c_len", 24.0), CoinSeed(ctx));
  rep.ok = res.covered;
  rep.metrics.Set("rounds", static_cast<double>(res.rounds_budget));
  rep.metrics.Set("rounds_to_cover", static_cast<double>(res.rounds_to_cover));
  rep.metrics.Set("covered_nodes", static_cast<double>(res.covered_nodes));
  return rep;
}

RunReport RunDecayGlobal(RunContext& ctx) {
  RunReport rep;
  const Round budget = ctx.params.GetInt(
      "budget", ctx.max_rounds > 0 ? ctx.max_rounds : Round{400000});
  const auto res = baselines::DecayGlobalBroadcast(
      ctx.ex, SourceMember(ctx), ctx.gamma, budget, CoinSeed(ctx));
  rep.ok = res.all_awake;
  rep.metrics.Set("rounds", static_cast<double>(res.rounds));
  rep.metrics.Set("awake", static_cast<double>(res.awake));
  return rep;
}

}  // namespace

void RegisterBuiltinAlgorithms(AlgorithmRegistry& reg) {
  RegisterFn(reg, "clustering", RunClustering,
             "Alg. 6 / Thm 1 deterministic 1-clustering; validated "
             "geometrically");
  RegisterFn(reg, "local_broadcast", RunLocalBroadcast,
             "Alg. 7 / Thm 2 deterministic local broadcast");
  RegisterFn(reg, "global_broadcast", RunGlobalBroadcast,
             "Alg. 8 / Thm 3 SMSB global broadcast "
             "(source=0,max_phases=D+3)");
  RegisterFn(reg, "sns", RunSnsOnce,
             "one Sparse Network Schedule over the member set (Lemma 4)");
  RegisterFn(reg, "wakeup", RunWakeupScheme,
             "Thm 4 wake-up scheme (source=0,max_phases=D+3)");
  RegisterFn(reg, "leader_election", RunLeaderElection,
             "Thm 5 leader election (max_phases=D+3)");
  RegisterFn(reg, "tdma_local", RunTdmaLocal,
             "Theta(N) id-cycling TDMA local broadcast strawman");
  RegisterFn(reg, "tdma_global", RunTdmaGlobal,
             "Theta(D*N) TDMA global broadcast (source=0,max_sweeps=D+3)");
  RegisterFn(reg, "grid_tdma", RunGridTdma,
             "[22]-style location-aware deterministic local broadcast (s=6)");
  RegisterFn(reg, "rand_local_known", RunRandLocalKnown,
             "[16] randomized local broadcast, known Delta "
             "(c_prob=1,c_len=24,seed=<run seed>)");
  RegisterFn(reg, "rand_local_unknown", RunRandLocalUnknown,
             "[16] doubling randomized local broadcast "
             "(max_delta=2*Gamma,c_prob=1,c_len=24,seed=<run seed>)");
  RegisterFn(reg, "decay_global", RunDecayGlobal,
             "Decay-style randomized global broadcast "
             "(source=0,budget=400000,seed=<run seed>)");
}

}  // namespace dcc::scenario
