#include "core/placement_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "core/host_topology.h"
#include "core/offload_runtime.h"
#include "core/profiler.h"

namespace lgv::core {
namespace {

using platform::Host;

// Deterministic uniform draws for the test harness.
struct TestRng {
  uint64_t state;
  explicit TestRng(uint64_t seed) : state(seed) {}
  double next01() {
    state = splitmix64(state);
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  }
  uint32_t index(uint32_t n) { return static_cast<uint32_t>(next01() * n) % n; }
};

// Small layered random DAG: edges always point at later nodes. Node 0 (the
// sensor) is pinned to the vehicle, ~1/4 of the rest are pinned to a random
// host, and at most 6 stay free, so exhaustive cross-checks stay cheap.
PlacementDag small_dag(TestRng& rng, uint32_t hosts) {
  PlacementDag d;
  const size_t nodes = 3 + rng.index(6);  // 3..8
  size_t free_nodes = 0;
  for (size_t i = 0; i < nodes; ++i) {
    uint8_t pin = PlacementDag::kFreeHost;
    if (i == 0) {
      pin = 0;
    } else if (free_nodes == 6 || rng.next01() < 0.25) {
      pin = static_cast<uint8_t>(rng.index(hosts));
    } else {
      ++free_nodes;
    }
    std::string name = "n";
    name += std::to_string(i);
    d.add_node(std::move(name), 1e5 + rng.next01() * 5e6,
               rng.next01() < 0.3 ? rng.next01() * 3e7 : 0.0, pin);
  }
  for (size_t i = 1; i < nodes; ++i) {
    const size_t fan_in = 1 + rng.index(2);
    for (size_t e = 0; e < fan_in; ++e) {
      const int src = static_cast<int>(rng.index(static_cast<uint32_t>(i)));
      d.add_edge(src, static_cast<int>(i), 32.0 + rng.next01() * 8192.0,
                 0.5 + rng.next01() * 9.5);
    }
  }
  return d;
}

HostTopology random_topology(TestRng& rng) {
  HostTopology t;
  t.add_host({"lgv", Host::kLgv, 1});
  const int hosts = 2 + static_cast<int>(rng.index(3));  // 2..4 total
  for (int i = 1; i < hosts; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    t.add_host({std::move(name),
                rng.next01() < 0.5 ? Host::kEdgeGateway : Host::kCloudServer,
                1 + static_cast<int>(rng.index(24))});
  }
  for (int s = 0; s < hosts; ++s) {
    for (int d = 0; d < hosts; ++d) {
      if (s == d) continue;
      // Bandwidth chosen low enough that some placements saturate links, so
      // the capacity penalty term is genuinely exercised.
      t.set_link(s, d,
                 {1e4 + rng.next01() * 5e6, rng.next01() * 0.2, rng.next01() * 0.3});
    }
  }
  // One dead link: plans that route over it are priced unplaceable.
  const int src = static_cast<int>(rng.index(static_cast<uint32_t>(hosts)));
  const int dst = (src + 1 + static_cast<int>(rng.index(
                                 static_cast<uint32_t>(hosts - 1)))) % hosts;
  t.set_link(src, dst, {0.0, 0.01, 0.0});
  return t;
}

// ---------------------------------------------------------------------------
// HostTopology

TEST(HostTopology, ThreeTierFactoryShape) {
  const HostTopology t = HostTopology::three_tier(8, 48, 2.5e6, 0.005);
  ASSERT_EQ(t.host_count(), 3);
  EXPECT_EQ(t.host(0).kind, Host::kLgv);
  EXPECT_EQ(t.index_of(Host::kEdgeGateway), 1);
  EXPECT_EQ(t.index_of(Host::kCloudServer), 2);
  // Self links are free; vehicle → cloud stacks the WLAN and WAN latencies.
  EXPECT_TRUE(std::isinf(t.link(0, 0).bandwidth_bps));
  EXPECT_DOUBLE_EQ(t.link(0, 1).rtt_s, 0.005);
  EXPECT_GT(t.link(0, 2).rtt_s, t.link(0, 1).rtt_s);
  EXPECT_DOUBLE_EQ(t.link(0, 2).bandwidth_bps, t.link(0, 1).bandwidth_bps);
}

TEST(HostTopology, ObserveLinkBumpsGenerationOnlyOnMaterialChange) {
  HostTopology t = HostTopology::three_tier(8, 48, 2.5e6, 0.005);
  const uint64_t gen = t.generation();
  // Identical numbers: free, no invalidation.
  t.observe_link(0, 1, 2.5e6, 0.005, 0.0);
  EXPECT_EQ(t.generation(), gen);
  // Sub-epsilon wiggle: still the same number.
  t.observe_link(0, 1, 2.5e6 * (1.0 + 1e-9), 0.005, 0.0);
  EXPECT_EQ(t.generation(), gen);
  // A real change moves the stamp.
  t.observe_link(0, 1, 1.0e6, 0.009, 0.0);
  EXPECT_GT(t.generation(), gen);
}

// ---------------------------------------------------------------------------
// Cost tables + generation stamping

TEST(PlacementEngine, TablesRebuildOnlyWhenGenerationsMove) {
  PlacementEngine engine(make_pipeline_dag(),
                         HostTopology::three_tier(8, 48, 2.5e6, 0.005));
  const uint64_t built = engine.table_rebuilds();
  EXPECT_GE(built, 1u);
  // Nothing changed: refresh is free.
  EXPECT_FALSE(engine.refresh_tables());
  EXPECT_FALSE(engine.refresh_tables());
  EXPECT_EQ(engine.table_rebuilds(), built);
  // Unchanged observation: still free.
  engine.topology().observe_link(0, 1, 2.5e6, 0.005, 0.0);
  EXPECT_FALSE(engine.refresh_tables());
  EXPECT_EQ(engine.table_rebuilds(), built);
  // Material link change: one rebuild.
  engine.topology().observe_link(0, 1, 1.2e6, 0.04, 0.01);
  EXPECT_TRUE(engine.refresh_tables());
  EXPECT_EQ(engine.table_rebuilds(), built + 1);
}

TEST(Profiler, GenerationStableUnderUnchangedProfiles) {
  Profiler p({}, {0, 0});
  p.record_node_time(NodeId::kPathTracking, Host::kLgv, 0.05);
  p.record_rtt(1.0, 1.03);
  const uint64_t gen = p.generation();
  // Re-recording the same numbers converges the EMA to itself exactly and
  // repeats the same RTT: no generation movement.
  for (int i = 0; i < 10; ++i) {
    p.record_node_time(NodeId::kPathTracking, Host::kLgv, 0.05);
    p.record_rtt(2.0 + i, 2.03 + i);
  }
  EXPECT_EQ(p.generation(), gen);
  // A different sample moves it.
  p.record_node_time(NodeId::kPathTracking, Host::kLgv, 0.5);
  EXPECT_GT(p.generation(), gen);
}

// End to end: repeated adjustment steps with unchanged profiles perform
// zero cost-table rebuilds and price zero plans.
TEST(PlacementEngine, UnchangedProfilesRebuildNothing) {
  OffloadRuntime rt(three_tier_plan("3tier", 24, WorkloadKind::kNavigationWithMap),
                    {0.0, 0.0});
  ASSERT_NE(rt.placement_engine(), nullptr);
  rt.profiler().record_rtt(0.0, 0.006);
  rt.apply_initial_placement();
  const uint64_t built = rt.placement_engine()->table_rebuilds();
  const PlacementCandidate& incumbent = rt.placement_engine()->incumbent();
  const std::vector<uint8_t> chosen(incumbent.host.begin(), incumbent.host.end());
  // Feed the identical RTT every epoch: the model sees the same numbers, the
  // topology generation holds, and re-optimization prices nothing.
  for (int i = 0; i < 5; ++i) {
    rt.profiler().record_rtt(10.0 + i, 10.006 + i);
    const PlacementResult r = rt.reoptimize_placement("test_epoch");
    EXPECT_EQ(r.plans_priced, 0u);
    EXPECT_EQ(r.assignment, chosen);
    EXPECT_EQ(r.cost_s, incumbent.cost());
  }
  EXPECT_EQ(rt.placement_engine()->table_rebuilds(), built);
}

// ---------------------------------------------------------------------------
// Search

std::vector<uint8_t> two_host_seed(const PlacementEngine& engine) {
  // Algorithm 1's shape: ECN-ish parallel nodes remote, rest local.
  const PlacementDag& dag = engine.dag();
  std::vector<uint8_t> seed(dag.node_count(), 0);
  const uint8_t remote =
      static_cast<uint8_t>(engine.topology().host_count() - 1);
  for (size_t i = 0; i < dag.node_count(); ++i) {
    if (dag.pinned[i] != PlacementDag::kFreeHost) {
      seed[i] = dag.pinned[i];
    } else if (dag.parallel_cycles[i] > 0.0) {
      seed[i] = remote;
    }
  }
  return seed;
}

TEST(PlacementEngine, SolveNeverWorseThanSeedAndRespectsPins) {
  PlacementEngine engine(make_pipeline_dag(),
                         HostTopology::three_tier(8, 48, 2.5e6, 0.005));
  const std::vector<uint8_t> seed = two_host_seed(engine);
  const PlacementResult r = engine.solve(seed);
  EXPECT_LE(r.cost_s, r.seed_cost_s + 1e-12);
  // The seed plus 3^5 assignments of the five free pipeline nodes.
  EXPECT_EQ(r.plans_priced, 1u + 243u);
  EXPECT_GT(r.modeled_solve_s, 0.0);
  EXPECT_LT(r.modeled_solve_s, 1e-3);
  const PlacementDag& dag = engine.dag();
  for (size_t i = 0; i < dag.node_count(); ++i) {
    if (dag.pinned[i] != PlacementDag::kFreeHost) {
      EXPECT_EQ(r.assignment[i], dag.pinned[i]) << dag.names[i];
    }
  }
}

// The engine's answer must equal an independent odometer over full_cost():
// the seed first, then every assignment of the free nodes (first free node
// fastest), replacing the best only when strictly cheaper.
TEST(PlacementEngine, ExactSolveMatchesIndependentEnumeration) {
  TestRng rng(0xabcdef12);
  for (int trial = 0; trial < 40; ++trial) {
    HostTopology topo = random_topology(rng);
    const uint32_t hosts = static_cast<uint32_t>(topo.host_count());
    PlacementEngine engine(small_dag(rng, hosts), std::move(topo));
    const PlacementDag& dag = engine.dag();
    const size_t n = dag.node_count();

    std::vector<uint8_t> seed(n);
    std::vector<size_t> free_nodes;
    for (size_t i = 0; i < n; ++i) {
      if (dag.pinned[i] != PlacementDag::kFreeHost) {
        seed[i] = dag.pinned[i];
      } else {
        seed[i] = static_cast<uint8_t>(rng.index(hosts));
        free_nodes.push_back(i);
      }
    }
    ASSERT_LE(free_nodes.size(), 6u);

    std::vector<uint8_t> best = seed;
    double best_cost = engine.full_cost(seed);
    std::vector<uint8_t> plan = seed;
    for (size_t i : free_nodes) plan[i] = 0;
    uint64_t plans = 0;
    for (bool more = true; more; ++plans) {
      const double c = engine.full_cost(plan);
      if (c < best_cost) {
        best = plan;
        best_cost = c;
      }
      more = false;
      for (size_t i : free_nodes) {
        if (++plan[i] < hosts) {
          more = true;
          break;
        }
        plan[i] = 0;
      }
    }

    const PlacementResult r = engine.solve(seed);
    EXPECT_EQ(r.assignment, best) << "trial " << trial;
    EXPECT_EQ(r.cost_s, best_cost) << "trial " << trial;
    EXPECT_EQ(r.plans_priced, plans + 1) << "trial " << trial;
    EXPECT_LE(r.cost_s, r.seed_cost_s);
    // Re-seeding with the optimum changes nothing.
    const PlacementResult again = engine.solve(best);
    EXPECT_EQ(again.assignment, best) << "trial " << trial;
    EXPECT_FALSE(again.improved);
  }

  // Ties keep the seed: with two identical gateways every plan's mirror
  // (hosts 1 <-> 2 swapped) is an exact cost tie, and whichever of the pair
  // is the seed must come back.
  HostTopology topo;
  topo.add_host({"lgv", Host::kLgv, 1});
  topo.add_host({"gw_a", Host::kEdgeGateway, 8});
  topo.add_host({"gw_b", Host::kEdgeGateway, 8});
  for (int s = 0; s < 3; ++s) {
    for (int d = 0; d < 3; ++d) {
      if (s != d) topo.set_link(s, d, {1e8, 0.004, 0.0});
    }
  }
  PlacementEngine engine(make_pipeline_dag(), std::move(topo));
  const std::vector<uint8_t> all_local(engine.dag().node_count(), 0);
  const PlacementResult first = engine.solve(all_local);
  ASSERT_TRUE(first.improved);
  std::vector<uint8_t> mirror = first.assignment;
  for (uint8_t& h : mirror) h = h == 1 ? 2 : h == 2 ? 1 : h;
  ASSERT_NE(mirror, first.assignment);
  ASSERT_EQ(engine.full_cost(mirror), first.cost_s);
  for (const std::vector<uint8_t>& seed : {first.assignment, mirror}) {
    const PlacementResult r = engine.solve(seed);
    EXPECT_EQ(r.assignment, seed);
    EXPECT_EQ(r.cost_s, first.cost_s);
  }
}

TEST(PlacementEngine, RejectsPlanSpacesBeyondTheEnumerationCap) {
  // Two hosts: 2^k plans for k free nodes. At the cap the engine builds; one
  // more free node doubles the space past it.
  PlacementDag dag;
  dag.add_node("sensor", 0.0, 0.0, 0);
  for (uint64_t plans = 1; plans < PlacementEngine::kMaxPlans; plans *= 2) {
    dag.add_node("free", 1e6, 0.0);
  }
  const auto two_host = [] {
    return HostTopology::two_host(Host::kEdgeGateway, 4, 2.5e6, 0.005);
  };
  EXPECT_NO_THROW((PlacementEngine{dag, two_host()}));
  dag.add_node("one_too_many", 1e6, 0.0);
  EXPECT_THROW((PlacementEngine{dag, two_host()}), std::invalid_argument);
  // Pinning it brings the space back under the cap.
  dag.pinned.back() = 0;
  EXPECT_NO_THROW((PlacementEngine{dag, two_host()}));
}

TEST(PlacementEngine, ThreeTierBeatsTwoHostWhenGatewayIsCloser) {
  // A constrained WLAN with WAN latency on top: the exact plan beats the
  // two-host (all-remote-to-cloud) seed. Here the optimum keeps every node on
  // the vehicle; the healthy WLAN is where the gateway tier wins.
  PlacementEngine engine(make_pipeline_dag(),
                         HostTopology::three_tier(8, 48, 6.0e5, 0.08));
  const PlacementResult r = engine.solve(two_host_seed(engine));
  EXPECT_LE(r.cost_s, r.seed_cost_s + 1e-12);
  EXPECT_TRUE(r.improved);
  // The optimum of all 243 plans (bench_placement_search's constrained_wlan).
  EXPECT_NEAR(r.cost_s, 0.0877395, 1e-7);
  EXPECT_EQ(r.assignment, std::vector<uint8_t>(engine.dag().node_count(), 0));
}

TEST(PlacementEngine, ReoptimizeRepricesAfterTopologyChange) {
  PlacementEngine engine(make_pipeline_dag(),
                         HostTopology::three_tier(8, 48, 2.5e6, 0.005));
  engine.solve(two_host_seed(engine));
  const uint64_t built = engine.table_rebuilds();
  // Degrade the WLAN: the incumbent's cached cost is stale, reoptimize must
  // rebuild tables once and still return a plan priced against the new world.
  engine.topology().observe_link(0, 1, 2.0e5, 0.15, 0.05);
  engine.topology().observe_link(1, 0, 2.0e5, 0.15, 0.05);
  engine.topology().observe_link(0, 2, 2.0e5, 0.174, 0.05);
  engine.topology().observe_link(2, 0, 2.0e5, 0.174, 0.05);
  const PlacementResult r = engine.reoptimize();
  EXPECT_EQ(engine.table_rebuilds(), built + 1);
  EXPECT_EQ(r.plans_priced, 1u + 243u);
  // Price the returned assignment from scratch: must agree with the result.
  const double reference = engine.full_cost(r.assignment);
  EXPECT_NEAR(r.cost_s, reference, 1e-9 * std::max(1.0, reference));
}

// ---------------------------------------------------------------------------
// Runtime integration

TEST(PlacementEngine, MultiTierRuntimeAppliesEnginePlacement) {
  OffloadRuntime rt(three_tier_plan("3tier", 24, WorkloadKind::kNavigationWithMap),
                    {0.0, 0.0});
  ASSERT_NE(rt.placement_engine(), nullptr);
  const OffloadDecision d = rt.apply_initial_placement();
  EXPECT_EQ(rt.placement_engine()->solves_total(), 1u);
  // The mux never leaves the vehicle; every node has a valid host.
  EXPECT_EQ(rt.host_of(NodeId::kVelocityMux), Host::kLgv);
  EXPECT_EQ(d.placement.size(), all_nodes().size());
  // Telemetry surfaced the solve.
  ASSERT_NE(rt.telemetry(), nullptr);
  const auto snap = rt.telemetry()->metrics().snapshot();
  bool saw_solves = false;
  for (const auto& s : snap.samples) {
    if (s.name == "placement_solves_total" && s.value >= 1.0) saw_solves = true;
  }
  EXPECT_TRUE(saw_solves);
}

TEST(PlacementEngine, ReoptimizeRespectsAlgorithm2Retreat) {
  OffloadRuntime rt(three_tier_plan("3tier", 24, WorkloadKind::kNavigationWithMap),
                    {0.0, 0.0});
  rt.apply_initial_placement();
  ASSERT_EQ(rt.vdp_placement(), VdpPlacement::kRemote);
  const uint64_t solves = rt.placement_engine()->solves_total();

  // Algorithm 2 retreats local: everything comes home and re-optimization
  // stands down (Alg 2 keeps the when).
  EXPECT_TRUE(rt.set_vdp_placement(VdpPlacement::kLocal));
  for (NodeId id : all_nodes()) EXPECT_EQ(rt.host_of(id), Host::kLgv);
  const PlacementResult idle = rt.reoptimize_placement("while_local");
  EXPECT_TRUE(idle.assignment.empty());
  EXPECT_EQ(rt.placement_engine()->solves_total(), solves);

  // Re-offload restores the engine's incumbent multi-tier plan.
  EXPECT_TRUE(rt.set_vdp_placement(VdpPlacement::kRemote));
  bool any_remote = false;
  for (NodeId id : all_nodes()) any_remote |= rt.host_of(id) != Host::kLgv;
  EXPECT_TRUE(any_remote);
  const PlacementResult r = rt.reoptimize_placement("re_trigger");
  const PlacementCandidate& incumbent = rt.placement_engine()->incumbent();
  EXPECT_EQ(r.assignment,
            std::vector<uint8_t>(incumbent.host.begin(), incumbent.host.end()));
  EXPECT_EQ(rt.placement_engine()->solves_total(), solves + 1);
}

TEST(PlacementEngine, PipelineDagMatchesNodeIds) {
  const PlacementDag dag = make_pipeline_dag();
  const std::vector<NodeId> nodes = all_nodes();
  ASSERT_GE(dag.node_count(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(dag.names[i], node_name(nodes[i]));
  }
  // The sensor source is pinned to the vehicle, as is the mux.
  for (size_t i = 0; i < dag.node_count(); ++i) {
    if (dag.names[i] == "velocity_mux" || dag.names[i] == "lidar_driver") {
      EXPECT_EQ(dag.pinned[i], 0);
    }
  }
}

}  // namespace
}  // namespace lgv::core
