// Mission workloads: whole MissionRunner missions in the lab scenario.
//
//   nav_gateway     navigation with a map, VDP offloaded to a 4-thread edge
//                   gateway (Algorithm 2 on)
//   explore_local   exploration without a map, everything on the LGV
//                   (20 particles, 1000 rollout samples as in Fig. 13b)
//   nav_three_tier  navigation with a map over lgv -> edge -> cloud with the
//                   placement engine
//   fleet_nav       eight navigation missions in lockstep, every vehicle a
//                   tenant of one shared core::WorkerPool (see the fleet_nav
//                   section at the end)
//
// A timed run steps a fixed list of missions whose seeds derive from the
// workload seed; its length is sized from --seconds by a nominal wall time
// per mission, so the same (workload, seed, seconds) always steps the same
// missions and yields the same virtual outputs. A traced run takes the
// list's first mission apart layer by layer (see traced_run).
#include <cmath>
#include <deque>
#include <map>
#include <optional>

#include "common/rng.h"
#include "common/serialization.h"
#include "common/telemetry/critical_path.h"
#include "common/thread_pool.h"
#include "core/mission_runner.h"
#include "core/offload_runtime.h"
#include "perception/amcl.h"
#include "perception/costmap2d.h"
#include "perception/gmapping.h"
#include "perception/occupancy_grid.h"
#include "planning/frontier.h"
#include "planning/global_planner.h"
#include "sim/lidar.h"
#include "sim/scenario.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace lgv;
using core::NodeId;
using core::WorkloadKind;

struct MissionSpec {
  const char* name;
  WorkloadKind kind;
  core::DeploymentPlan (*plan)();
  double timeout;
  int slam_particles;   ///< 0 = MissionConfig default
  int rollout_samples;  ///< 0 = MissionConfig default
  /// Wall seconds one mission takes on the reference host (4-core x86-64
  /// container); sizes the mission list from --seconds.
  double nominal_wall_s;
};

core::DeploymentPlan gateway_plan() {
  return core::offload_plan("gateway_4t", platform::Host::kEdgeGateway, kPoolThreads,
                            WorkloadKind::kNavigationWithMap);
}
core::DeploymentPlan explore_plan() {
  return core::local_plan(WorkloadKind::kExplorationWithoutMap);
}
core::DeploymentPlan three_tier() {
  return core::three_tier_plan("3tier_4t", kPoolThreads, WorkloadKind::kNavigationWithMap);
}
core::DeploymentPlan fleet_plan() {
  return core::offload_plan("cloud_4t", platform::Host::kCloudServer, kPoolThreads,
                            WorkloadKind::kNavigationWithMap);
}

const MissionSpec kSpecs[] = {
    {"nav_gateway", WorkloadKind::kNavigationWithMap, gateway_plan, 800.0, 0, 0, 0.45},
    {"explore_local", WorkloadKind::kExplorationWithoutMap, explore_plan, 1500.0, 20,
     1000, 1.35},
    {"nav_three_tier", WorkloadKind::kNavigationWithMap, three_tier, 800.0, 0, 0, 0.7},
    // One entry of the list is a whole fleet round (kFleetVehicles missions).
    {"fleet_nav", WorkloadKind::kNavigationWithMap, fleet_plan, 800.0, 0, 0, 1.6},
};

const MissionSpec* find_spec(const std::string& name) {
  for (const MissionSpec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// The node call sites the replay drives, in NodeId order.
const NodeId kReplayNodes[] = {NodeId::kLocalization, NodeId::kCostmapGen,
                               NodeId::kPathPlanning, NodeId::kExploration,
                               NodeId::kPathTracking};

uint64_t mission_seed(uint64_t workload_seed, int index) {
  return vehicle_seed(workload_seed, static_cast<uint32_t>(index));
}

core::MissionConfig mission_config(const MissionSpec& spec, uint64_t seed,
                                   bool telemetry) {
  core::MissionConfig cfg;
  cfg.timeout = spec.timeout;
  if (spec.slam_particles > 0) cfg.slam_particles = spec.slam_particles;
  if (spec.rollout_samples > 0) cfg.rollout_samples = spec.rollout_samples;
  cfg.seed = seed;
  cfg.telemetry.enabled = telemetry;
  return cfg;
}

/// Free area reachable from the start pose (4-connected flood fill over the
/// world's free cells): the exploration coverage bar's denominator.
double reachable_free_m2(const sim::Scenario& sc) {
  const Grid<uint8_t>& g = sc.world.grid();
  const CellIndex start = sc.world.frame().world_to_cell(sc.start.position());
  std::vector<uint8_t> seen(static_cast<size_t>(g.width()) * g.height(), 0);
  std::deque<CellIndex> frontier;
  auto visit = [&](int x, int y) {
    if (!g.in_bounds(x, y) || g.at(x, y) != 0) return;
    uint8_t& s = seen[static_cast<size_t>(y) * g.width() + x];
    if (s != 0) return;
    s = 1;
    frontier.push_back({x, y});
  };
  visit(start.x, start.y);
  size_t cells = 0;
  while (!frontier.empty()) {
    const CellIndex c = frontier.front();
    frontier.pop_front();
    ++cells;
    visit(c.x + 1, c.y);
    visit(c.x - 1, c.y);
    visit(c.x, c.y + 1);
    visit(c.x, c.y - 1);
  }
  const double r = sc.world.frame().resolution;
  return static_cast<double>(cells) * r * r;
}

/// Digest of every virtual output of a mission (report fields the cost model
/// and the simulation produce; wall-clock and telemetry fields excluded).
uint64_t report_digest(const core::MissionReport& r) {
  Digest d;
  d.add(static_cast<uint64_t>(r.success));
  for (double v : {r.completion_time, r.standby_time, r.distance_traveled,
                   r.average_velocity, r.peak_velocity_cap, r.energy.sensor,
                   r.energy.motor, r.energy.microcontroller, r.energy.computer,
                   r.energy.wireless, r.network.uplink_bytes, r.network.downlink_bytes,
                   r.network.state_migration_bytes, r.explored_area_m2,
                   r.battery_state_of_charge, r.cloud_core_seconds}) {
    d.add(v);
  }
  for (uint64_t v : {r.network.uplink_messages, r.network.downlink_messages,
                     r.network.state_migrations, r.network.frames_rejected,
                     r.placement_switches, r.fallbacks, r.busy_fallbacks}) {
    d.add(v);
  }
  for (const auto& [name, cycles] : r.node_cycles) {
    d.add(name);
    d.add(cycles);
  }
  for (const auto& [name, n] : r.node_invocations) {
    d.add(name);
    d.add(static_cast<uint64_t>(n));
  }
  for (const core::VelocitySample& s : r.velocity_trace) d.add(s.real);
  return d.value();
}

struct TickRecord {
  double t;
  Pose2D pose;
};

struct MissionRun {
  core::MissionReport report;
  bool collided = false;
  double heap_mb = 0.0;  ///< malloc bytes in use when the stepping ended
  Stretch stretch;       ///< the stepping (each step timed in timed runs)
  std::vector<TickRecord> ticks;  ///< true poses (traced recording only)
  std::vector<telemetry::TraceEvent> events;
  std::optional<telemetry::CriticalPathResult> critical_path;
  uint64_t digest = 0;
};

enum class Observe { kCollisions, kRecord };

/// Set up and step one mission; only the stepping is timed (finalize() and
/// the report are outside it). `keep` receives the runner for post-mission
/// inspection (the placement engine).
MissionRun run_mission(const MissionSpec& spec, uint64_t seed, bool telemetry,
                       Observe observe, bool time_steps,
                       std::unique_ptr<core::MissionRunner>* keep = nullptr) {
  MissionRun run;
  auto runner = std::make_unique<core::MissionRunner>(
      sim::make_lab_scenario(), spec.plan(), mission_config(spec, seed, telemetry));
  if (observe == Observe::kRecord) {
    runner->set_tick_observer([&run](const core::TickState& s) {
      run.collided |= s.collided;
      run.ticks.push_back({s.t, s.robot_pose});
    });
  } else {
    runner->set_tick_observer(
        [&run](const core::TickState& s) { run.collided |= s.collided; });
  }
  runner->start();

  // A timed run times every step through a Stretch (host-speed probes
  // interleaved, their time left out).
  run.stretch = Stretch();
  if (time_steps) {
    while (run.stretch.step([&] { return runner->step(); })) {
    }
  } else {
    while (runner->step()) {
    }
  }
  run.stretch.end();
  run.heap_mb = heap_in_use_mb();
  runner->set_tick_observer(nullptr);  // it refers to this frame's `run`

  run.report = runner->finalize();
  run.digest = report_digest(run.report);
  if (telemetry::Telemetry* t = runner->runtime().telemetry();
      t != nullptr && observe == Observe::kRecord) {
    run.events = t->tracer().events();
    run.critical_path =
        telemetry::attribute_critical_path(run.events, run.report.completion_time);
  }
  if (keep != nullptr) *keep = std::move(runner);
  return run;
}

/// Why a mission failed, or "" when it passed every check.
std::string failure_reason(const MissionSpec& spec, const MissionRun& run,
                           double reachable_m2) {
  const core::MissionReport& r = run.report;
  if (!r.success) {
    if (r.battery_state_of_charge <= 0.0) return "battery_flat";
    if (r.completion_time >= spec.timeout - 1e-6) return "timeout";
    return "unsuccessful";
  }
  if (run.collided) return "collision";
  if (spec.kind == WorkloadKind::kExplorationWithoutMap &&
      r.explored_area_m2 < 0.9 * reachable_m2) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "coverage_%.1fm2_of_%.1fm2", r.explored_area_m2,
                  reachable_m2);
    return buf;
  }
  return "";
}

constexpr int kSetups = 25;

int missions_for(const MissionSpec& spec, double seconds) {
  return std::max(3, static_cast<int>(std::lround(seconds / spec.nominal_wall_s)));
}

// ---------------------------------------------------------------------------
// Timed run

RunResult timed_run(const MissionSpec& spec, const RunArgs& args) {
  RunResult out;
  const double reachable = reachable_free_m2(sim::make_lab_scenario());
  const int n = missions_for(spec, args.seconds);

  // Set-up time first, so that a run the program aborts still has it: kSetups
  // back-to-back set-ups of the list's missions, each scaled by the
  // host-speed probe taken just before it.
  WallTotals totals;
  for (int i = 0; i < kSetups; ++i) {
    const double probe = probe_host_s();
    const double t0 = wall_now();
    core::MissionRunner runner(sim::make_lab_scenario(), spec.plan(),
                               mission_config(spec, mission_seed(args.seed, i % n), true));
    runner.start();
    totals.add_setup(wall_now() - t0, probe);
  }
  // The process's peak resident set once set up, before any mission steps.
  const double setup_rss = program_peak_rss_mb();

  std::vector<double> mission_times, energies;
  auto fill = [&](MetricSet& m) {
    totals.fill(m, setup_rss);
    // Virtual-clock results (identical for a given workload and seed).
    m.set("mission_time_s", median(mission_times), "s", mission_times.size());
    m.set("energy_j", median(energies), "J", energies.size());
  };

  uint64_t first_digest = 0;
  bool first_passed = false;
  Digest all;
  for (int i = 0; i < n; ++i) {
    const MissionRun run = run_mission(spec, mission_seed(args.seed, i), true,
                                       Observe::kCollisions, true);
    ++out.attempted;
    totals.add(run.stretch, run.report.completion_time, run.heap_mb);
    all.add(run.digest);
    if (i == 0) first_digest = run.digest;
    const std::string why = failure_reason(spec, run, reachable);
    if (i == 0) first_passed = why.empty();
    if (why.empty()) {
      mission_times.push_back(run.report.completion_time);
      energies.push_back(run.report.energy.total());
    } else {
      ++out.failed;
      out.notes.push_back("mission " + std::to_string(i) + " seed=" +
                          hex64(mission_seed(args.seed, i)) + " failed: " + why);
    }
    MetricSet partial;
    fill(partial);
    print_partial(out.correct, out.attempted, out.failed, partial);
  }

  // Telemetry must not move the virtual clock: mission 0 again, telemetry off.
  const MissionRun check = run_mission(spec, mission_seed(args.seed, 0), false,
                                       Observe::kCollisions, false);
  if (check.digest != first_digest) {
    out.correct = false;
    if (first_passed) ++out.failed;
    out.notes.push_back("mission 0 virtual outputs differ with telemetry off: " +
                        hex64(first_digest) + " vs " + hex64(check.digest));
  }
  out.notes.push_back("virtual_digest " + hex64(all.value()) + " over " +
                      std::to_string(n) + " missions");
  out.notes.push_back("reachable_free_area_m2 " + json_number(reachable));
  fill(out.metrics);
  out.metrics.set("probe_cache_shift", probe_cache_shift(), "ratio", 1);
  return out;
}

// ---------------------------------------------------------------------------
// Traced run

/// The series of a histogram family with the most observations.
const telemetry::MetricSample* busiest(const telemetry::MetricsSnapshot& s,
                                       const std::string& name) {
  const telemetry::MetricSample* best = nullptr;
  for (const telemetry::MetricSample& x : s.samples) {
    if (x.name == name && (best == nullptr || x.value > best->value)) best = &x;
  }
  return best;
}

std::string str_arg(const telemetry::TraceEvent& e, const char* key) {
  for (const auto& [k, v] : e.args) {
    if (k == key) return v;
  }
  return "";
}

struct NodeCall {
  double t;
  NodeId node;
  bool remote;
};

/// Per-call-site timers of the replay and the mission's count of the same
/// call (the `.share` numerator).
struct Site {
  CallTimer timer;
  double mission_calls = 0.0;
};

void emit_site(MetricSet& m, const std::string& name, const Site& s, double untraced_s,
               double* named_share) {
  *named_share += emit_call_site(m, name, s.timer,
                                 s.mission_calls * s.timer.mean_us() * 1e-6, untraced_s);
}

RunResult traced_run(const MissionSpec& spec, const RunArgs& args) {
  RunResult out;
  const uint64_t seed = mission_seed(args.seed, 0);
  const bool exploration = spec.kind == WorkloadKind::kExplorationWithoutMap;

  // Part 2: the mission with telemetry on, recording true poses and the trace.
  std::unique_ptr<core::MissionRunner> runner;
  const MissionRun rec =
      run_mission(spec, seed, true, Observe::kRecord, false, &runner);
  ++out.attempted;
  const double reachable = reachable_free_m2(sim::make_lab_scenario());
  const std::string why = failure_reason(spec, rec, reachable);
  if (!why.empty()) {
    ++out.failed;
    out.notes.push_back("traced mission failed: " + why);
  }

  // Part 3: the same mission untraced (telemetry off) and plainly with
  // telemetry on, in adjacent pairs for half the time budget (3 to 25
  // pairs); the median on/off ratio of a pair gives the telemetry overhead,
  // with the host's slow drift cancelled inside each pair.
  std::vector<double> off_wall, ratios;
  const double budget_end = wall_now() + 0.5 * args.seconds;
  while (ratios.size() < 3 || (ratios.size() < 25 && wall_now() < budget_end)) {
    const MissionRun off = run_mission(spec, seed, false, Observe::kCollisions, false);
    const MissionRun on = run_mission(spec, seed, true, Observe::kCollisions, false);
    off_wall.push_back(off.stretch.wall_s());
    ratios.push_back(on.stretch.wall_s() / off.stretch.wall_s());
    if (off.digest != rec.digest || on.digest != rec.digest) {
      out.correct = false;
      out.notes.push_back("virtual outputs differ between telemetry on and off");
    }
  }
  const double untraced_s = median(off_wall);

  // Part 1: replay. Fresh layer instances in the mission's configuration are
  // driven at the recorded node invocation times with scans regenerated from
  // the recorded true poses.
  const sim::Scenario sc = sim::make_lab_scenario();
  const core::MissionConfig cfg = mission_config(spec, seed, false);
  ThreadPool pool(kPoolThreads);
  sim::Lidar lidar({}, cfg.effective_seed() ^ 0x11d);

  perception::OccupancyGridConfig map_cfg;
  map_cfg.resolution = sc.world.frame().resolution;
  const perception::OccupancyGrid known_map =
      perception::OccupancyGrid::from_binary(sc.world.frame(), sc.world.grid(), map_cfg);
  std::optional<perception::Amcl> amcl;
  std::optional<perception::Gmapping> slam;
  perception::Costmap2D costmap(sc.world.frame().origin, sc.world.width_m(),
                                sc.world.height_m());
  if (exploration) {
    perception::GmappingConfig gc;
    gc.particles = cfg.slam_particles;
    slam.emplace(gc, sc.world.frame().origin, sc.world.width_m(), sc.world.height_m(),
                 cfg.effective_seed() ^ 0x51a);
    slam->initialize(sc.start);
  } else {
    amcl.emplace(perception::AmclConfig{}, &known_map, cfg.effective_seed() ^ 0xa3c1);
    amcl->initialize(sc.start);
    costmap.set_static_map(known_map.to_msg(0.0));
  }
  const planning::GlobalPlanner planner;
  const planning::FrontierExplorer frontier;
  control::TrajectoryRollout rollout;
  rollout.set_samples(cfg.rollout_samples);

  // The message path: a runtime in the mission's deployment carries scans
  // from the LGV's lidar driver to the Localization and CostmapGen nodes.
  core::OffloadRuntime rt(spec.plan(), sc.wap_position, cfg.channel,
                          cfg.telemetry);
  rt.apply_initial_placement();
  auto scan_pub = rt.graph().advertise<msg::LaserScan>("lidar_driver", "scan");
  uint64_t scans_delivered = 0;
  for (NodeId id : {NodeId::kLocalization, NodeId::kCostmapGen}) {
    rt.graph().subscribe<msg::LaserScan>(
        core::node_name(id), "scan",
        [&scans_delivered](const msg::LaserScan&) { ++scans_delivered; });
  }

  std::vector<NodeCall> calls;
  for (const telemetry::TraceEvent& e : rec.events) {
    if (e.phase != 'X') continue;
    for (NodeId id : kReplayNodes) {
      if (e.name == core::node_name(id)) {
        calls.push_back({e.ts_s, id, e.pid != platform::host_name(platform::Host::kLgv)});
      }
    }
  }
  std::stable_sort(calls.begin(), calls.end(),
                   [](const NodeCall& a, const NodeCall& b) { return a.t < b.t; });

  Site lidar_scan, gmapping_process, map_to_msg, costmap_static, amcl_update,
      costmap_update, rollout_compute, global_plan, frontier_detect, serialize,
      publish_spin, send_step, solve, reoptimize;
  std::map<NodeId, uint64_t> replayed;
  uint64_t skipped_no_scan = 0;
  double wire_bytes = 0.0;
  std::optional<msg::LaserScan> scan;
  Pose2D pose = sc.start;
  Velocity2D velocity;
  msg::PathMsg path;
  std::optional<Pose2D> goal;
  if (!exploration) goal = sc.goal;
  double last_scan = -1e9;
  size_t next_call = 0;
  const double scan_period = cfg.scan_period;
  for (size_t k = 0; k < rec.ticks.size(); ++k) {
    const TickRecord& tick = rec.ticks[k];
    if (k > 0) {
      const double dx = tick.pose.x - rec.ticks[k - 1].pose.x;
      const double dy = tick.pose.y - rec.ticks[k - 1].pose.y;
      velocity.linear = std::hypot(dx, dy) / cfg.tick;
    }
    rt.clock().set(tick.t);
    rt.channel().set_robot_position(tick.pose.position());
    if (tick.t - last_scan >= scan_period - 1e-9) {
      last_scan = tick.t;
      // The scan is taken at the pose the tick starts from.
      const Pose2D at = k > 0 ? rec.ticks[k - 1].pose : sc.start;
      msg::LaserScan s = lidar_scan.timer.time([&] { return lidar.scan(sc.world, at, tick.t); });
      WireWriter w;
      serialize.timer.time([&] { s.serialize(w); });
      wire_bytes += static_cast<double>(w.size());
      publish_spin.timer.time([&] {
        scan_pub.publish(s);
        rt.graph().spin();
      });
      scan = std::move(s);
      pose = at;
    }
    send_step.timer.time([&] {
      rt.switcher().step();
      rt.graph().spin();
    });

    while (next_call < calls.size() && calls[next_call].t < tick.t + 0.5 * cfg.tick) {
      const NodeCall c = calls[next_call++];
      if (!scan.has_value()) {
        ++skipped_no_scan;
        continue;
      }
      platform::ExecutionContext ctx =
          c.remote ? platform::ExecutionContext(&pool, kPoolThreads)
                   : platform::ExecutionContext();
      msg::Odometry odom;
      odom.header.stamp = scan->header.stamp;
      odom.pose = pose;
      odom.velocity = velocity;
      // `replayed` counts a node only where the replay made its layer call.
      switch (c.node) {
        case NodeId::kLocalization:
          if (exploration) {
            gmapping_process.timer.time([&] { slam->process(odom, *scan, ctx); });
          } else {
            amcl_update.timer.time([&] { amcl->update(odom, *scan, ctx); });
          }
          ++replayed[c.node];
          break;
        case NodeId::kCostmapGen:
          if (exploration) {
            const msg::OccupancyGridMsg m =
                map_to_msg.timer.time([&] { return slam->best_map().to_msg(c.t); });
            costmap_static.timer.time([&] { costmap.set_static_map(m); });
          }
          costmap_update.timer.time([&] { costmap.update(pose, *scan); });
          ++replayed[c.node];
          break;
        case NodeId::kPathPlanning:
          if (goal.has_value()) {
            const planning::PlanResult r = global_plan.timer.time(
                [&] { return planner.plan(costmap, {pose, *goal}, ctx); });
            if (r.success) path = r.path;
            ++replayed[c.node];
          }
          break;
        case NodeId::kExploration:
          if (exploration) {
            const msg::OccupancyGridMsg m =
                map_to_msg.timer.time([&] { return slam->best_map().to_msg(c.t); });
            const planning::FrontierResult r =
                frontier_detect.timer.time([&] { return frontier.detect(m, pose, ctx); });
            if (!r.frontiers.empty()) {
              goal = Pose2D(r.frontiers.front().centroid.x, r.frontiers.front().centroid.y, 0.0);
            }
            ++replayed[c.node];
          }
          break;
        case NodeId::kPathTracking:
          if (!path.poses.empty()) {
            rollout_compute.timer.time([&] {
              rollout.compute(costmap, path, pose, velocity, 0.22, ctx);
            });
            ++replayed[c.node];
          }
          break;
        default:
          break;
      }
    }
  }

  const core::MissionReport& rep = rec.report;
  auto inv = [&rep](NodeId id) {
    const auto it = rep.node_invocations.find(core::node_name(id));
    return it == rep.node_invocations.end() ? 0.0 : static_cast<double>(it->second);
  };
  lidar_scan.mission_calls = static_cast<double>(lidar_scan.timer.calls());
  serialize.mission_calls = static_cast<double>(serialize.timer.calls());
  publish_spin.mission_calls = static_cast<double>(publish_spin.timer.calls());
  send_step.mission_calls = static_cast<double>(send_step.timer.calls());
  if (exploration) {
    gmapping_process.mission_calls = inv(NodeId::kLocalization);
    map_to_msg.mission_calls = inv(NodeId::kCostmapGen) + inv(NodeId::kExploration);
    costmap_static.mission_calls = inv(NodeId::kCostmapGen);
    frontier_detect.mission_calls = inv(NodeId::kExploration);
  } else {
    amcl_update.mission_calls = inv(NodeId::kLocalization);
  }
  costmap_update.mission_calls = inv(NodeId::kCostmapGen);
  rollout_compute.mission_calls = inv(NodeId::kPathTracking);
  global_plan.mission_calls = inv(NodeId::kPathPlanning);

  // Placement engine: the runner's own engine, timed after the mission.
  const telemetry::MetricsSnapshot& snap = rep.metrics;
  if (core::PlacementEngine* engine = runner->runtime().placement_engine()) {
    for (const telemetry::TraceEvent& e : rec.events) {
      if (e.name != "placement.solve") continue;
      (str_arg(e, "mode") == "solve" ? solve : reoptimize).mission_calls += 1.0;
    }
    const std::vector<uint8_t> seed_assignment(engine->incumbent().host.begin(),
                                                engine->incumbent().host.end());
    for (int r = 0; r < 20; ++r) {
      solve.timer.time([&] { engine->solve(seed_assignment); });
      reoptimize.timer.time([&] { engine->reoptimize(); });
    }
  }

  MetricSet& m = out.metrics;
  double named = 0.0;
  emit_site(m, "sim.lidar_scan", lidar_scan, untraced_s, &named);
  emit_site(m, "perception.gmapping_process", gmapping_process, untraced_s, &named);
  emit_site(m, "perception.map_to_msg", map_to_msg, untraced_s, &named);
  emit_site(m, "perception.costmap_static", costmap_static, untraced_s, &named);
  emit_site(m, "perception.amcl_update", amcl_update, untraced_s, &named);
  emit_site(m, "perception.costmap_update", costmap_update, untraced_s, &named);
  emit_site(m, "control.rollout_compute", rollout_compute, untraced_s, &named);
  emit_site(m, "planning.global_plan", global_plan, untraced_s, &named);
  emit_site(m, "planning.frontier_detect", frontier_detect, untraced_s, &named);
  emit_site(m, "msg.serialize", serialize, untraced_s, &named);
  emit_site(m, "middleware.publish_spin", publish_spin, untraced_s, &named);
  emit_site(m, "core.switcher.send_step", send_step, untraced_s, &named);
  emit_site(m, "core.placement_engine.solve", solve, untraced_s, &named);
  emit_site(m, "core.placement_engine.reoptimize", reoptimize, untraced_s, &named);
  m.set("msg.bytes", wire_bytes, "bytes", serialize.timer.calls());

  const double published = family_sum(snap, "mw_published_total");
  m.set("middleware.published", published, "count");
  m.set("middleware.delivered", family_sum(snap, "mw_delivered_total"), "count");
  m.set("middleware.dropped", family_sum(snap, "mw_dropped_total"), "count");
  m.set("middleware.zero_copy_share",
        published > 0.0 ? family_sum(snap, "mw_zero_copy_total") / published : 0.0,
        "ratio");
  const double sent = family_sum(snap, "net_sent_total");
  m.set("net.sent", sent, "count");
  m.set("net.delivered_share",
        sent > 0.0 ? family_sum(snap, "net_delivered_total") / sent : 0.0, "ratio");
  m.set("net.dropped_buffer", family_sum(snap, "net_dropped_buffer_total"), "count");
  m.set("net.dropped_channel", family_sum(snap, "net_dropped_channel_total"), "count");
  const telemetry::MetricSample* oneway = busiest(snap, "net_oneway_ms");
  m.set("net.oneway_ms_p99", oneway != nullptr ? oneway->p99 : 0.0, "ms",
        oneway != nullptr ? static_cast<uint64_t>(oneway->value) : 0);
  m.set("core.switcher.bytes_up", rep.network.uplink_bytes, "bytes");
  m.set("core.switcher.bytes_down", rep.network.downlink_bytes, "bytes");
  m.set("core.switcher.frames_rejected", static_cast<double>(rep.network.frames_rejected),
        "count");
  m.set("core.switcher.migrations", static_cast<double>(rep.network.state_migrations),
        "count");

  emit_thread_pool(m, snap, family_sum(snap, "pool_tasks_total"));

  m.set("core.placement_engine.solves", family_sum(snap, "placement_solves_total"),
        "count");
  m.set("core.placement_engine.delta_evals",
        family_sum(snap, "placement_delta_evals_total"), "count");
  m.set("core.alg2.decisions", family_sum(snap, "alg_decisions_total"), "count");
  m.set("core.alg2.switches", static_cast<double>(rep.placement_switches), "count");
  m.set("core.fallbacks", static_cast<double>(rep.fallbacks), "count");

  m.set("telemetry.overhead_pct", 100.0 * (median(ratios) - 1.0), "%", ratios.size());
  if (rec.critical_path.has_value()) {
    const telemetry::CriticalPathResult& cp = *rec.critical_path;
    const double span = cp.makespan_s > 0.0 ? cp.makespan_s : 1.0;
    m.set("virtual.compute_share", cp.compute_s / span, "ratio");
    m.set("virtual.network_share", cp.network_s / span, "ratio");
    m.set("virtual.named_fraction", cp.named_fraction(), "ratio");
  }
  m.set("traced.named_share", named, "ratio");
  m.set("virtual.mission_time_s", rep.completion_time, "s");
  m.set("virtual.energy_j", rep.energy.total(), "J");
  std::string fidelity = "replay layer calls vs mission node_invocations:";
  for (NodeId id : kReplayNodes) {
    const std::string node = core::node_name(id);
    m.set("replay." + node + ".calls", static_cast<double>(replayed[id]), "count");
    m.set("mission." + node + ".invocations", inv(id), "count");
    fidelity += " " + node + " " + std::to_string(replayed[id]) + "/" +
                std::to_string(static_cast<uint64_t>(inv(id)));
  }
  out.notes.push_back(fidelity + "; " + std::to_string(skipped_no_scan) +
                      " recorded calls came before the first scan");
  out.notes.push_back("traced mission seed=" + hex64(seed) + " virtual_digest " +
                      hex64(rec.digest) + "; untraced stepping " +
                      json_number(untraced_s) + " s");
  out.notes.push_back("scans delivered to the replay's subscribers: " +
                      std::to_string(scans_delivered));
  out.notes.push_back(
      ".share values are estimates: mission call count x replay mean call time / "
      "untraced mission wall time; counters and virtual.* are measured");
  return out;
}


// ---------------------------------------------------------------------------
// fleet_nav: kFleetVehicles navigation missions in the fleet hall, stepped in
// lockstep from this thread (one fleet tick steps every vehicle still
// running), every vehicle a tenant of one shared core::WorkerPool (4 virtual
// cores, 4 threads) through MissionConfig::worker_pool. The pool admits each
// vehicle's session, schedules its remote VDP executions by stride fair
// share, refuses them under backpressure (the vehicle then computes locally)
// and runs their kernels on its ThreadPool. One operation is one vehicle's
// mission; the failure rules are the mission ones.

constexpr int kFleetVehicles = 8;
constexpr int kFleetSetups = 7;

struct FleetRound {
  std::vector<MissionRun> vehicles;
  Stretch stretch;  ///< the timed fleet ticks
  double heap_mb = 0.0;
  uint64_t requests = 0, refused = 0, batched = 0, pool_busy_fallbacks = 0;
  size_t max_depth = 0, queue_bound = 0;
  uint64_t digest = 0;
  telemetry::MetricsSnapshot pool_snapshot;  ///< the pool's telemetry (when on)
};

/// A fleet set up and started: the pool's telemetry (when on), the shared
/// pool, and the runners. Member order is lifetime order: the telemetry
/// outlives the pool whose threads write into it, and the pool outlives its
/// tenants.
struct Fleet {
  std::optional<telemetry::Telemetry> tel;
  std::unique_ptr<core::WorkerPool> pool;
  std::vector<std::unique_ptr<core::MissionRunner>> runners;

  Fleet(const MissionSpec& spec, uint64_t seed, bool telemetry) {
    if (telemetry) tel.emplace(telemetry::TelemetryConfig{});
    core::WorkerPoolConfig wc;
    wc.cores = kPoolThreads;
    wc.threads = kPoolThreads;
    pool = std::make_unique<core::WorkerPool>(wc, tel.has_value() ? &*tel : nullptr);
    for (int v = 0; v < kFleetVehicles; ++v) {
      core::MissionConfig cfg = mission_config(spec, seed, telemetry);
      cfg.vehicle_index = v;
      cfg.worker_pool = pool.get();
      runners.push_back(std::make_unique<core::MissionRunner>(
          sim::make_fleet_scenario(v, kFleetVehicles), spec.plan(), cfg));
      runners.back()->start();
    }
  }
};

FleetRound run_fleet_round(const MissionSpec& spec, uint64_t seed, bool telemetry,
                           bool time_steps) {
  FleetRound fr;
  Fleet fleet(spec, seed, telemetry);
  core::WorkerPool& pool = *fleet.pool;
  std::vector<std::unique_ptr<core::MissionRunner>>& runners = fleet.runners;
  fr.vehicles.resize(runners.size());
  for (size_t v = 0; v < runners.size(); ++v) {
    runners[v]->set_tick_observer(
        [&run = fr.vehicles[v]](const core::TickState& s) { run.collided |= s.collided; });
  }

  std::vector<char> running(runners.size(), 1);
  auto fleet_tick = [&] {
    bool any = false;
    for (size_t v = 0; v < runners.size(); ++v) {
      if (running[v] == 0) continue;
      running[v] = runners[v]->step() ? 1 : 0;
      any = any || running[v] != 0;
    }
    return any;
  };
  fr.stretch = Stretch();
  if (time_steps) {
    while (fr.stretch.step(fleet_tick)) {
    }
  } else {
    while (fleet_tick()) {
    }
  }
  fr.stretch.end();
  fr.heap_mb = heap_in_use_mb();

  Digest d;
  for (size_t v = 0; v < runners.size(); ++v) {
    runners[v]->set_tick_observer(nullptr);
    MissionRun& run = fr.vehicles[v];
    run.report = runners[v]->finalize();
    run.digest = report_digest(run.report);
    d.add(run.digest);
  }
  fr.requests = pool.requests();
  fr.refused = pool.busy_rejects() + pool.admission_rejects();
  fr.batched = pool.batched_requests();
  fr.pool_busy_fallbacks = pool.busy_fallbacks();
  fr.max_depth = pool.max_session_depth();
  fr.queue_bound = pool.config().max_session_queue;
  for (uint64_t v : {fr.requests, fr.refused, fr.batched, fr.pool_busy_fallbacks,
                     static_cast<uint64_t>(fr.max_depth)}) {
    d.add(v);
  }
  fr.digest = d.value();
  if (fleet.tel.has_value()) fr.pool_snapshot = fleet.tel->metrics().snapshot();
  return fr;
}

/// The pool checks of a round, or "" when they hold: bounded session queues,
/// every vehicle busy fallback paired with one the pool counted, and the
/// pool actually serving requests.
std::string fleet_violation(const FleetRound& fr) {
  uint64_t vehicle_fallbacks = 0;
  for (const MissionRun& run : fr.vehicles) vehicle_fallbacks += run.report.busy_fallbacks;
  if (fr.max_depth > fr.queue_bound) return "session queue depth above its bound";
  if (vehicle_fallbacks != fr.pool_busy_fallbacks) {
    return "vehicle busy fallbacks " + std::to_string(vehicle_fallbacks) +
           " != pool busy fallbacks " + std::to_string(fr.pool_busy_fallbacks);
  }
  if (fr.requests == 0) return "the pool served no request";
  return "";
}

RunResult fleet_timed_run(const MissionSpec& spec, const RunArgs& args) {
  RunResult out;
  const int rounds = missions_for(spec, args.seconds);

  WallTotals totals;
  for (int i = 0; i < kFleetSetups; ++i) {
    const double probe = probe_host_s();
    const double t0 = wall_now();
    const Fleet fleet(spec, mission_seed(args.seed, i % rounds), true);
    totals.add_setup(wall_now() - t0, probe);
  }
  const double setup_rss = program_peak_rss_mb();

  std::vector<double> mission_times, energies;
  uint64_t requests = 0, refused = 0;
  auto fill = [&](MetricSet& m) {
    totals.fill(m, setup_rss);
    m.set("mission_time_s", median(mission_times), "s", mission_times.size());
    m.set("energy_j", median(energies), "J", energies.size());
    m.set("worker_refused_share",
          requests + refused > 0
              ? static_cast<double>(refused) / static_cast<double>(requests + refused)
              : 0.0,
          "ratio", requests + refused);
  };

  uint64_t first_digest = 0;
  Digest all;
  for (int i = 0; i < rounds; ++i) {
    const FleetRound fr = run_fleet_round(spec, mission_seed(args.seed, i), true, true);
    double vehicle_vs = 0.0;
    for (const MissionRun& run : fr.vehicles) vehicle_vs += run.report.completion_time;
    totals.add(fr.stretch, vehicle_vs, fr.heap_mb);
    requests += fr.requests;
    refused += fr.refused;
    all.add(fr.digest);
    if (i == 0) first_digest = fr.digest;
    const std::string bad = fleet_violation(fr);
    if (!bad.empty()) {
      out.correct = false;
      out.notes.push_back("round " + std::to_string(i) + ": " + bad);
    }
    for (size_t v = 0; v < fr.vehicles.size(); ++v) {
      const MissionRun& run = fr.vehicles[v];
      ++out.attempted;
      std::string why = failure_reason(spec, run, 0.0);
      if (why.empty() && !bad.empty()) why = "round check failed";
      if (why.empty()) {
        mission_times.push_back(run.report.completion_time);
        energies.push_back(run.report.energy.total());
      } else {
        ++out.failed;
        out.notes.push_back("round " + std::to_string(i) + " vehicle " + std::to_string(v) +
                            " seed=" + hex64(mission_seed(args.seed, i)) + " failed: " + why);
      }
    }
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "round %d: %.1f vehicle-vs in %.3f s, %llu pool requests, %llu refused, "
                  "%llu busy fallbacks, max session depth %zu",
                  i, vehicle_vs, fr.stretch.wall_s(),
                  static_cast<unsigned long long>(fr.requests),
                  static_cast<unsigned long long>(fr.refused),
                  static_cast<unsigned long long>(fr.pool_busy_fallbacks), fr.max_depth);
    out.notes.push_back(buf);
    MetricSet partial;
    fill(partial);
    print_partial(out.correct, out.attempted, out.failed, partial);
  }

  // Telemetry must not move the virtual clock: round 0 again, telemetry off.
  const FleetRound check = run_fleet_round(spec, mission_seed(args.seed, 0), false, false);
  if (check.digest != first_digest) {
    out.correct = false;
    out.notes.push_back("round 0 virtual outputs differ with telemetry off: " +
                        hex64(first_digest) + " vs " + hex64(check.digest));
  }
  out.notes.push_back("virtual_digest " + hex64(all.value()) + " over " +
                      std::to_string(rounds) + " rounds x " +
                      std::to_string(kFleetVehicles) + " vehicles");
  fill(out.metrics);
  out.metrics.set("probe_cache_shift", probe_cache_shift(), "ratio", 1);
  return out;
}

/// The fleet's traced run. The pool is called from inside each vehicle's
/// runtime, so its per-layer metrics are the pool's own counters and the
/// histograms of the pool's telemetry (no benchmark timer sits around a
/// call there; fleet_ladder times submit_block, flush and the kernels).
RunResult fleet_traced_run(const MissionSpec& spec, const RunArgs& args) {
  RunResult out;
  const uint64_t seed = mission_seed(args.seed, 0);
  const FleetRound rec = run_fleet_round(spec, seed, true, false);
  out.attempted = rec.vehicles.size();
  for (size_t v = 0; v < rec.vehicles.size(); ++v) {
    const std::string why = failure_reason(spec, rec.vehicles[v], 0.0);
    if (!why.empty()) {
      ++out.failed;
      out.notes.push_back("traced vehicle " + std::to_string(v) + " failed: " + why);
    }
  }
  if (const std::string bad = fleet_violation(rec); !bad.empty()) {
    out.correct = false;
    out.notes.push_back("traced round: " + bad);
  }

  // Telemetry off and on in adjacent pairs (see traced_run).
  std::vector<double> ratios;
  const double budget_end = wall_now() + 0.5 * args.seconds;
  while (ratios.size() < 3 || (ratios.size() < 25 && wall_now() < budget_end)) {
    const FleetRound off = run_fleet_round(spec, seed, false, false);
    const FleetRound on = run_fleet_round(spec, seed, true, false);
    ratios.push_back(on.stretch.wall_s() / off.stretch.wall_s());
    if (off.digest != rec.digest || on.digest != rec.digest) {
      out.correct = false;
      out.notes.push_back("virtual outputs differ between telemetry on and off");
    }
  }

  MetricSet& m = out.metrics;
  const telemetry::MetricsSnapshot& ps = rec.pool_snapshot;
  const double offered = static_cast<double>(rec.requests + rec.refused);
  m.set("core.worker_pool.requests", static_cast<double>(rec.requests), "count");
  m.set("core.worker_pool.refused", static_cast<double>(rec.refused), "count");
  m.set("core.worker_pool.batched_share",
        rec.requests > 0 ? static_cast<double>(rec.batched) / static_cast<double>(rec.requests)
                         : 0.0,
        "ratio");
  const telemetry::MetricSample* wait = busiest(ps, "worker_queue_wait_s");
  m.set("core.worker_pool.queue_wait_ms_p99", wait != nullptr ? 1000.0 * wait->p99 : 0.0,
        "ms", wait != nullptr ? static_cast<uint64_t>(wait->value) : 0);
  m.set("core.worker_pool.max_session_depth", static_cast<double>(rec.max_depth), "count");
  m.set("core.worker_pool.busy_fallbacks", static_cast<double>(rec.pool_busy_fallbacks),
        "count");
  m.set("core.worker_pool.refused_share",
        offered > 0.0 ? static_cast<double>(rec.refused) / offered : 0.0, "ratio");
  emit_thread_pool(m, ps, family_sum(ps, "pool_tasks_total"));

  double decisions = 0.0, switches = 0.0, fallbacks = 0.0;
  std::vector<double> times, energies;
  for (const MissionRun& run : rec.vehicles) {
    decisions += family_sum(run.report.metrics, "alg_decisions_total");
    switches += static_cast<double>(run.report.placement_switches);
    fallbacks += static_cast<double>(run.report.fallbacks);
    times.push_back(run.report.completion_time);
    energies.push_back(run.report.energy.total());
  }
  m.set("core.alg2.decisions", decisions, "count");
  m.set("core.alg2.switches", switches, "count");
  m.set("core.fallbacks", fallbacks, "count");
  m.set("telemetry.overhead_pct", 100.0 * (median(ratios) - 1.0), "%", ratios.size());
  m.set("virtual.mission_time_s", median(times), "s", times.size());
  m.set("virtual.energy_j", median(energies), "J", energies.size());
  out.notes.push_back("traced round seed=" + hex64(seed) + " virtual_digest " +
                      hex64(rec.digest) + "; " + std::to_string(ratios.size()) +
                      " telemetry off/on pairs");
  return out;
}

}  // namespace

bool is_mission_workload(const std::string& name) { return find_spec(name) != nullptr; }

RunResult run_mission_workload(const RunArgs& args) {
  const MissionSpec& spec = *find_spec(args.workload);
  if (args.workload == "fleet_nav") {
    return args.trace ? fleet_traced_run(spec, args) : fleet_timed_run(spec, args);
  }
  return args.trace ? traced_run(spec, args) : timed_run(spec, args);
}

}  // namespace perfbench
