// Placement-search benchmark (docs/placement.md): the headline artifact for
// the multi-tier placement engine. Two measured claims, each gated by
// tools/check_bench_regression against bench/baselines:
//
//  1. Plan quality — the Fig. 2 pipeline DAG on three three-tier scenarios
//     (healthy WLAN, constrained WLAN, congested WLAN + long WAN). The seed
//     is Algorithm 1's two-host answer (ECN nodes → cloud). Acceptance: the
//     engine is never worse than the seed anywhere, and strictly better on
//     at least one scenario (the gateway tier must earn its keep). The
//     engine enumerates every plan, so each scenario's cost is the exact
//     optimum; the gate pins it against the baseline.
//
//  2. Solve cost — one exact solve of the pipeline, priced by the engine's
//     deterministic cycle model on the vehicle platform (what an adjustment
//     epoch would actually pay on the RPi). Acceptance: < 10 ms modeled,
//     and a re-optimize with unchanged tables prices nothing. Wall-clock µs
//     per solve and per unchanged-table re-optimize are reported, not gated.
//
// Artifacts: BENCH_placement_search.json (the gated numbers). Exit status is
// the acceptance verdict.
//
// Usage: bench_placement_search [--smoke]   (--smoke: fewer timing reps,
// same scenarios, same acceptance gates)
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/host_topology.h"
#include "core/placement_engine.h"

using namespace lgv;
using core::HostTopology;
using core::PlacementDag;
using core::PlacementEngine;
using core::PlacementResult;

namespace {

/// Algorithm 1's two-host shape on an N-host topology: ECN nodes (the ones
/// with parallelizable cycles) on the cloud host, everything else local.
std::vector<uint8_t> alg1_seed(const PlacementEngine& engine) {
  const PlacementDag& dag = engine.dag();
  std::vector<uint8_t> seed(dag.node_count(), 0);
  const uint8_t cloud = static_cast<uint8_t>(engine.topology().host_count() - 1);
  for (size_t i = 0; i < dag.node_count(); ++i) {
    if (dag.pinned[i] != PlacementDag::kFreeHost) {
      seed[i] = dag.pinned[i];
    } else if (dag.parallel_cycles[i] > 0.0) {
      seed[i] = cloud;
    }
  }
  return seed;
}

struct ScenarioRow {
  std::string name;
  double seed_cost_s = 0.0;
  double cost_s = 0.0;
  bool never_worse = false;
  bool improved = false;
};

ScenarioRow run_scenario(const std::string& name, HostTopology topology) {
  PlacementEngine engine(core::make_pipeline_dag(), std::move(topology));
  const PlacementResult r = engine.solve(alg1_seed(engine));
  ScenarioRow row;
  row.name = name;
  row.seed_cost_s = r.seed_cost_s;
  row.cost_s = r.cost_s;
  row.never_worse = r.cost_s <= r.seed_cost_s + 1e-12;
  row.improved = r.improved;
  return row;
}

struct SolveRow {
  PlacementResult solve;
  uint64_t reoptimize_plans_priced = 0;
  double solve_us = 0.0;       ///< wall clock per exact solve
  double reoptimize_us = 0.0;  ///< wall clock per unchanged-table re-optimize
};

/// The live runtime's case: the pipeline on the healthy three-tier topology.
SolveRow measure_solve(int reps) {
  PlacementEngine engine(core::make_pipeline_dag(),
                         HostTopology::three_tier(8, 48, 2.5e6, 0.005));
  const std::vector<uint8_t> seed = alg1_seed(engine);
  SolveRow row;
  row.solve = engine.solve(seed);
  row.reoptimize_plans_priced = engine.reoptimize().plans_priced;

  double sink = 0.0;
  row.solve_us = bench::time_median(5, [&] {
    for (int r = 0; r < reps; ++r) sink += engine.solve(seed).cost_s;
  }) / reps * 1e6;
  const int reopt_reps = reps * 16;
  row.reoptimize_us = bench::time_median(5, [&] {
    for (int r = 0; r < reopt_reps; ++r) sink += engine.reoptimize().cost_s;
  }) / reopt_reps * 1e6;
  if (sink == 1e308) std::abort();  // keep the solves honest
  return row;
}

void write_json(const SolveRow& solve, const std::vector<ScenarioRow>& scenarios,
                bool smoke, bool solve_ok, bool never_worse, bool improves_some) {
  std::ofstream f("BENCH_placement_search.json");
  f << "{\n  \"bench\": \"placement_search\",\n";
  f << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  f << "  \"solve\": {\"dag\": \"pipeline\", \"plans_priced\": "
    << solve.solve.plans_priced
    << ", \"modeled_solve_ms\": " << solve.solve.modeled_solve_s * 1e3
    << ", \"reoptimize_plans_priced\": " << solve.reoptimize_plans_priced
    << ", \"solve_us\": " << solve.solve_us
    << ", \"reoptimize_us\": " << solve.reoptimize_us << "},\n";
  f << "  \"scenarios\": [\n";
  f.precision(17);
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioRow& s = scenarios[i];
    f << "    {\"name\": \"" << s.name << "\", \"seed_cost_s\": " << s.seed_cost_s
      << ", \"cost_s\": " << s.cost_s
      << ", \"never_worse\": " << (s.never_worse ? "true" : "false")
      << ", \"improved\": " << (s.improved ? "true" : "false") << "}"
      << (i + 1 < scenarios.size() ? ",\n" : "\n");
  }
  f << "  ],\n  \"acceptance\": {\n";
  f << "    \"solve_under_10ms_modeled\": " << (solve_ok ? "true" : "false") << ",\n";
  f << "    \"never_worse_than_alg1\": " << (never_worse ? "true" : "false") << ",\n";
  f << "    \"improves_some_three_tier\": " << (improves_some ? "true" : "false")
    << "\n";
  f << "  }\n}\n";
  std::printf("wrote BENCH_placement_search.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  bench::print_title(std::string("Multi-tier placement: exact enumeration") +
                     (smoke ? " [smoke]" : ""));

  // ---- 1. plan quality vs Algorithm 1 ------------------------------------
  bench::print_subtitle("pipeline DAG, three-tier scenarios vs Algorithm 1 seed");
  std::vector<ScenarioRow> scenarios;
  // Healthy WLAN: the optimum runs the free nodes on the gateway.
  scenarios.push_back(
      run_scenario("healthy_wlan", HostTopology::three_tier(8, 48, 2.5e6, 0.005)));
  // Constrained WLAN: the two-host plan saturates the uplink, and each WLAN
  // crossing costs half an 80 ms RTT; the optimum is all-local.
  scenarios.push_back(
      run_scenario("constrained_wlan", HostTopology::three_tier(8, 48, 6.0e5, 0.08)));
  // Congested WLAN + long WAN: cloud RTT breaches the control deadline and
  // the gateway's 60 ms RTT costs more than it saves; all-local again.
  scenarios.push_back(run_scenario(
      "congested_wan", HostTopology::three_tier(8, 48, 1.0e6, 0.06, 0.05, 0.08)));
  std::printf("%18s %14s %14s %8s %10s\n", "scenario", "alg1 cost", "exact cost",
              "worse?", "improved");
  bool never_worse = true;
  bool improves_some = false;
  for (const ScenarioRow& s : scenarios) {
    never_worse &= s.never_worse;
    improves_some |= s.improved;
    std::printf("%18s %13.6fs %13.7fs %8s %10s\n", s.name.c_str(), s.seed_cost_s,
                s.cost_s, s.never_worse ? "no" : "YES", s.improved ? "yes" : "no");
  }

  // ---- 2. solve cost ------------------------------------------------------
  bench::print_subtitle("pipeline solve cost: modeled on the vehicle, and wall clock");
  const SolveRow solve = measure_solve(smoke ? 50 : 400);
  std::printf("exact solve:  %" PRIu64 " plans priced, %.3f ms modeled, %.2f us wall\n",
              solve.solve.plans_priced, solve.solve.modeled_solve_s * 1e3,
              solve.solve_us);
  std::printf("reoptimize (unchanged tables): %" PRIu64
              " plans priced, %.3f us wall\n",
              solve.reoptimize_plans_priced, solve.reoptimize_us);
  const bool solve_ok = solve.solve.modeled_solve_s < 10e-3 &&
                        solve.reoptimize_plans_priced == 0;

  // ---- acceptance ---------------------------------------------------------
  bench::print_subtitle("acceptance");
  std::printf("solve < 10 ms modeled, free re-optimize: %s (%.3f ms)\n",
              solve_ok ? "yes" : "NO", solve.solve.modeled_solve_s * 1e3);
  std::printf("never worse than Algorithm 1:      %s\n", never_worse ? "yes" : "NO");
  std::printf("beats Algorithm 1 somewhere:       %s\n", improves_some ? "yes" : "NO");

  write_json(solve, scenarios, smoke, solve_ok, never_worse, improves_some);

  const bool ok = solve_ok && never_worse && improves_some;
  if (!ok) std::printf("\nACCEPTANCE FAILED\n");
  return ok ? 0 : 1;
}
