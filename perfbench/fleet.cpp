// fleet_ladder: one shared core::WorkerPool (4 virtual cores, 4 threads)
// serving a fleet whose size steps through 32, 64, 96, 112 and 128 vehicles.
//
// Every 100 ms of virtual time each vehicle submits a real scanMatch block
// (ScanMatcher::score over the hall's likelihood field) and a real rollout
// block through submit_block, the same request pattern as bench_fleet_scale.
// Requests are open loop in virtual time: they are due on schedule whatever
// the pool did with the previous ones, and a refused ("busy") request falls
// back to the vehicle. One operation is one request; a refused request is a
// failed operation. A fleet tick (all submits, the flush and the verdicts) is
// the unit of the step latency.
#include <mutex>
#include <optional>
#include <thread>

#include "common/clock.h"
#include "common/rng.h"
#include "core/worker_pool.h"
#include "perception/likelihood_field.h"
#include "perception/occupancy_grid.h"
#include "perception/scan_matcher.h"
#include "platform/calibration.h"
#include "platform/platform_spec.h"
#include "sim/lidar.h"
#include "sim/scenario.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace lgv;
namespace calib = platform::calib;

constexpr double kTick = 0.1;           ///< virtual seconds between submit rounds
constexpr int kScanCandidates = 16;     ///< poses scored per scanMatch request
constexpr int kRolloutCandidates = 24;  ///< trajectories per rollout request
constexpr int kRolloutSteps = 12;
constexpr int kRequestThreads = 2;      ///< cores a request occupies while served
constexpr int kRungs[] = {32, 64, 96, 112, 128};
constexpr int kReportRung = 96;         ///< offload_p99_ms is read here
constexpr double kLatencyLimitS = 0.100;  ///< fleet_capacity's p99 limit
/// Wall seconds per vehicle-tick on the reference host (4-core x86-64
/// container); sizes the ladder from --seconds.
constexpr double kNominalVehicleTickS = 20e-6;

/// Benchmark-side timers around the pool's public calls (traced runs).
struct PoolTimers {
  CallTimer submit, flush;
  std::mutex kernel_mutex;
  CallTimer kernel;          ///< one block call, on whichever thread ran it
  double kernel_self_us = 0.0;  ///< block time spent on the flushing thread
  double kernel_total_us = 0.0;
};

struct RungResult {
  int vehicles = 0;
  uint64_t attempted = 0;
  uint64_t served = 0;
  uint64_t refused = 0;
  std::vector<double> latency_s;  ///< queue wait + service of served requests
  std::vector<double> queue_wait_s;
  size_t max_depth = 0;
  size_t queue_bound = 0;
  uint64_t pool_requests = 0;
  uint64_t pool_rejects = 0;
  uint64_t batched = 0;
  bool completion_ok = true;
  double setup_s = 0.0;
  double setup_probe_s = 0.0;  ///< host-speed probe taken just before set-up
  double setup_rss_mb = 0.0;   ///< process peak resident set once set up
  double heap_mb = 0.0;        ///< malloc bytes in use when the ticks ended
  Stretch ticks;               ///< the timed ticks
  uint64_t digest = 0;
  telemetry::MetricsSnapshot snapshot;
};

double seconds_per_cycle(int threads) {
  const platform::PlatformSpec spec = platform::cloud_server_spec();
  return 1.0 / (spec.single_thread_ops_per_sec() * spec.parallel_throughput(threads));
}

struct Vehicle {
  core::SessionId session = 0;
  Pose2D pose;
  perception::PrecomputedScan pre;
};

RungResult run_rung(int vehicles, int ticks, uint64_t fleet_seed, bool with_telemetry,
                    PoolTimers* timers, uint64_t* progress_attempted,
                    uint64_t* progress_failed) {
  RungResult r;
  r.vehicles = vehicles;
  r.setup_probe_s = probe_host_s();
  const double t0 = wall_now();
  const sim::Scenario hall = sim::make_fleet_scenario(0, 1);
  perception::OccupancyGridConfig map_cfg;
  map_cfg.resolution = hall.world.frame().resolution;
  const perception::OccupancyGrid map = perception::OccupancyGrid::from_binary(
      hall.world.frame(), hall.world.grid(), map_cfg);
  perception::LikelihoodField field;
  field.sync(map);
  const perception::ScanMatcher matcher;

  // Declaration order is lifetime order: the clock and the telemetry outlive
  // the pool whose threads write into them.
  SimClock clock;
  std::optional<telemetry::Telemetry> tel;
  if (with_telemetry) {
    tel.emplace(telemetry::TelemetryConfig{});
    tel->set_clock(&clock);
  }
  core::WorkerPoolConfig wc;
  wc.cores = kPoolThreads;
  wc.threads = kPoolThreads;
  core::WorkerPool pool(wc, tel.has_value() ? &*tel : nullptr);
  r.queue_bound = pool.config().max_session_queue;

  std::vector<Vehicle> fleet(static_cast<size_t>(vehicles));
  for (int v = 0; v < vehicles; ++v) {
    Vehicle& s = fleet[static_cast<size_t>(v)];
    s.pose = sim::make_fleet_scenario(v, vehicles).start;
    sim::Lidar lidar({}, vehicle_seed(fleet_seed, static_cast<uint32_t>(v)) ^ 0x11d);
    const msg::LaserScan scan = lidar.scan(hall.world, s.pose, 0.0);
    s.pre = perception::precompute_scan(scan, matcher.config().beam_stride,
                                        hall.world.frame().resolution);
    s.session = pool.open_session("lgv-" + std::to_string(v), clock.now()).session;
  }
  r.setup_s = wall_now() - t0;
  r.setup_rss_mb = program_peak_rss_mb();

  const double spc = seconds_per_cycle(kRequestThreads);
  const std::thread::id flusher = std::this_thread::get_id();
  // Wrap a block so traced runs time every kernel call where it runs.
  auto timed_block = [timers, flusher](core::WorkerPool::BlockFn fn) {
    if (timers == nullptr) return fn;
    return core::WorkerPool::BlockFn([timers, flusher, fn](size_t b, size_t e) {
      const auto k0 = std::chrono::steady_clock::now();
      const double cycles = fn(b, e);
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - k0)
                            .count();
      const std::scoped_lock lock(timers->kernel_mutex);
      timers->kernel.add_us(us);
      timers->kernel_total_us += us;
      if (std::this_thread::get_id() == flusher) timers->kernel_self_us += us;
      return cycles;
    });
  };

  Digest digest;
  struct Issued {
    double due;
    core::WorkerPool::Ticket ticket;
  };
  std::vector<Issued> issued;
  issued.reserve(static_cast<size_t>(vehicles) * 2);
  r.ticks = Stretch();
  auto one_tick = [&] {
    const double now = clock.now();
    issued.clear();
    for (Vehicle& s : fleet) {
      const perception::PrecomputedScan* pre = &s.pre;
      const Pose2D pose = s.pose;
      core::WorkerPool::BlockFn scan_block = [&matcher, &field, pre, pose](size_t begin,
                                                                           size_t end) {
        size_t evals = 0;
        for (size_t i = begin; i < end; ++i) {
          const double dx = 0.04 * static_cast<double>(i % 5) - 0.08;
          const double dy = 0.04 * static_cast<double>((i / 5) % 5) - 0.08;
          const double dth = 0.02 * static_cast<double>(i % 3) - 0.02;
          matcher.score(field, Pose2D(pose.x + dx, pose.y + dy, pose.theta + dth), *pre,
                        &evals);
        }
        return static_cast<double>(evals) * calib::kScanMatchCachedCyclesPerBeamEval;
      };
      core::WorkerPool::BlockFn rollout_block = [pose](size_t begin, size_t end) {
        double sink = 0.0;
        size_t steps = 0;
        for (size_t i = begin; i < end; ++i) {
          double x = pose.x, y = pose.y, th = pose.theta;
          const double v_cmd = 0.05 + 0.01 * static_cast<double>(i % 8);
          const double w_cmd = 0.1 * static_cast<double>(i % 5) - 0.2;
          for (int k = 0; k < kRolloutSteps; ++k) {
            th += w_cmd * 0.1;
            x += v_cmd * 0.1 * std::cos(th);
            y += v_cmd * 0.1 * std::sin(th);
            ++steps;
          }
          sink += x + y;
        }
        if (sink == 1e308) std::abort();  // keeps the integration observable
        return static_cast<double>(steps) * calib::kRolloutCyclesPerStep +
               static_cast<double>(end - begin) * calib::kRolloutCyclesPerTrajectory;
      };
      auto submit = [&](core::KernelKind kind, size_t count, core::WorkerPool::BlockFn fn) {
        if (timers == nullptr) {
          return pool.submit_block(s.session, kind, now, count, std::move(fn), spc,
                                   kRequestThreads);
        }
        fn = timed_block(std::move(fn));
        return timers->submit.time([&] {
          return pool.submit_block(s.session, kind, now, count, std::move(fn), spc,
                                   kRequestThreads);
        });
      };
      issued.push_back({now, submit(core::KernelKind::kScanMatch, kScanCandidates,
                                    std::move(scan_block))});
      issued.push_back({now, submit(core::KernelKind::kScoreTrajectory,
                                    kRolloutCandidates, std::move(rollout_block))});
    }
    if (timers != nullptr) {
      timers->flush.time([&] { pool.flush(now); });
    } else {
      pool.flush(now);
    }
    for (const Issued& is : issued) {
      const core::WorkerVerdict v = pool.verdict(is.ticket);
      ++r.attempted;
      digest.add(static_cast<uint64_t>(v.busy));
      digest.add(v.queue_wait);
      digest.add(v.service);
      digest.add(v.completion);
      if (v.busy) {
        ++r.refused;
        continue;
      }
      ++r.served;
      if (v.completion < is.due || v.queue_wait < 0.0 || v.service <= 0.0) {
        r.completion_ok = false;
      }
      r.latency_s.push_back(v.queue_wait + v.service);
      r.queue_wait_s.push_back(v.queue_wait);
    }
    pool.evict_expired(now);
    clock.advance(kTick);
    return true;
  };
  for (int tick = 0; tick < ticks; ++tick) {
    r.ticks.step(one_tick);
    if (progress_attempted != nullptr && tick % 10 == 9) {
      print_progress(*progress_attempted + r.attempted, *progress_failed + r.refused);
    }
  }
  r.ticks.end();
  r.heap_mb = heap_in_use_mb();
  r.max_depth = pool.max_session_depth();
  r.pool_requests = pool.requests();
  r.pool_rejects = pool.busy_rejects();
  r.batched = pool.batched_requests();
  r.digest = digest.value();
  if (tel.has_value()) r.snapshot = tel->metrics().snapshot();
  return r;
}

int ticks_for(double seconds) {
  int vehicle_ticks_per_round = 0;
  for (int v : kRungs) vehicle_ticks_per_round += v;
  return std::max(
      20, static_cast<int>(std::lround(seconds / (kNominalVehicleTickS *
                                                  vehicle_ticks_per_round))));
}

/// The rung checks: every request accounted for exactly once, bounded
/// per-session queues, and no result ready before its request was due.
std::string rung_violation(const RungResult& r) {
  if (r.served + r.refused != r.attempted) return "served+refused != attempted";
  if (r.pool_requests + r.pool_rejects != r.attempted) return "pool request count mismatch";
  if (r.max_depth > r.queue_bound) return "session queue depth above its bound";
  if (!r.completion_ok) return "completion before arrival";
  return "";
}

struct Ladder {
  std::vector<RungResult> rungs;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;
};

using PartialMetrics = void (*)(const Ladder&, MetricSet&);

/// Run the five rungs. With `report_progress`, prints progress every ten
/// ticks and, when `partial` is set, the metrics so far after each rung.
Ladder run_ladder(int ticks, uint64_t seed, bool telemetry, PoolTimers* timers,
                  bool report_progress, PartialMetrics partial = nullptr) {
  Ladder l;
  for (int vehicles : kRungs) {
    RungResult r = run_rung(vehicles, ticks, seed, telemetry, timers,
                            report_progress ? &l.attempted : nullptr,
                            report_progress ? &l.failed : nullptr);
    l.attempted += r.attempted;
    l.failed += r.refused;
    const std::string bad = rung_violation(r);
    if (!bad.empty()) {
      l.correct = false;
      l.failed += r.served;  // a violated check fails the rung's served requests too
      l.notes.push_back("rung " + std::to_string(vehicles) + ": " + bad);
    }
    l.rungs.push_back(std::move(r));
    if (report_progress) print_progress(l.attempted, l.failed);
    if (partial != nullptr) {
      MetricSet m;
      partial(l, m);
      print_partial(l.correct, l.attempted, l.failed, m);
    }
  }
  return l;
}

const RungResult& rung(const Ladder& l, int vehicles) {
  for (const RungResult& r : l.rungs) {
    if (r.vehicles == vehicles) return r;
  }
  return l.rungs.front();
}

/// Virtual-clock results of a ladder: the served p99 at the report rung and
/// the highest rung whose served p99 meets the limit with nothing refused.
void virtual_results(const Ladder& l, MetricSet& m, const std::string& prefix) {
  const RungResult& at = rung(l, kReportRung);
  m.set(prefix + "offload_p99_ms", 1000.0 * percentile(at.latency_s, 0.99), "ms",
        at.latency_s.size());
  int capacity = 0;
  for (const RungResult& r : l.rungs) {
    if (r.refused == 0 && percentile(r.latency_s, 0.99) <= kLatencyLimitS) {
      capacity = std::max(capacity, r.vehicles);
    }
  }
  m.set(prefix + "fleet_capacity", capacity, "vehicles", l.rungs.size());
}

double ladder_wall(const Ladder& l) {
  double s = 0.0;
  for (const RungResult& r : l.rungs) s += r.ticks.wall_s();
  return s;
}

/// The timed run's metrics over the rungs completed so far. Set-up is per
/// rung (hall map, likelihood field, pool, sessions, scans) and the tick p99
/// differs by rung, so their medians are the middle rung's.
void timed_metrics(const Ladder& l, MetricSet& m) {
  WallTotals totals;
  for (const RungResult& r : l.rungs) {
    totals.add_setup(r.setup_s, r.setup_probe_s);
    totals.add(r.ticks, r.vehicles * kTick * static_cast<double>(r.ticks.step_ms().size()),
               r.heap_mb);
  }
  totals.fill(m, l.rungs.front().setup_rss_mb);  // first rung: before any tick
}

RunResult timed_run(const RunArgs& args) {
  RunResult out;
  const int ticks = ticks_for(args.seconds);
  Ladder l = run_ladder(ticks, args.seed, true, nullptr, true, timed_metrics);
  out.attempted = l.attempted;
  out.failed = l.failed;
  out.correct = l.correct;
  out.notes = std::move(l.notes);

  // Telemetry must not move the virtual schedule: the first rung again, off.
  const RungResult check =
      run_rung(kRungs[0], ticks, args.seed, false, nullptr, nullptr, nullptr);
  if (check.digest != l.rungs.front().digest) {
    out.correct = false;
    out.notes.push_back("rung " + std::to_string(kRungs[0]) +
                        " verdicts differ with telemetry off");
  }

  Digest all;
  for (const RungResult& r : l.rungs) {
    all.add(r.digest);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "rung %d: %llu requests, %llu refused (%.1f%%), served p99 %.1f ms, "
                  "max session depth %zu",
                  r.vehicles, static_cast<unsigned long long>(r.attempted),
                  static_cast<unsigned long long>(r.refused),
                  100.0 * static_cast<double>(r.refused) /
                      static_cast<double>(std::max<uint64_t>(1, r.attempted)),
                  1000.0 * percentile(r.latency_s, 0.99), r.max_depth);
    out.notes.push_back(buf);
  }
  out.notes.push_back("virtual_digest " + hex64(all.value()) + " over " +
                      std::to_string(l.rungs.size()) + " rungs x " +
                      std::to_string(ticks) + " ticks");
  timed_metrics(l, out.metrics);
  virtual_results(l, out.metrics, "");
  out.metrics.set("probe_cache_shift", probe_cache_shift(), "ratio", 1);
  return out;
}

RunResult traced_run(const RunArgs& args) {
  RunResult out;
  const int ticks = std::max(20, ticks_for(args.seconds) / 4);
  PoolTimers timers;
  const Ladder traced = run_ladder(ticks, args.seed, true, &timers, true);
  // Untraced (telemetry off) and plain telemetry-on ladders for the
  // overhead and the .share denominators.
  const Ladder off = run_ladder(ticks, args.seed, false, nullptr, false);
  const Ladder on = run_ladder(ticks, args.seed, true, nullptr, false);
  out.attempted = traced.attempted;
  out.failed = traced.failed;
  out.correct = traced.correct && off.correct && on.correct;
  out.notes = traced.notes;
  for (size_t i = 0; i < traced.rungs.size(); ++i) {
    if (traced.rungs[i].digest != off.rungs[i].digest ||
        traced.rungs[i].digest != on.rungs[i].digest) {
      out.correct = false;
      out.notes.push_back("rung " + std::to_string(traced.rungs[i].vehicles) +
                          " verdicts differ between traced, telemetry-on and -off runs");
    }
  }
  const double untraced_s = ladder_wall(off);

  MetricSet& m = out.metrics;
  double named = 0.0;
  auto busy_s = [](const CallTimer& t) {
    return t.mean_us() * static_cast<double>(t.calls()) * 1e-6;
  };
  named += emit_call_site(m, "core.worker_pool.submit", timers.submit,
                          busy_s(timers.submit), untraced_s);
  named += emit_call_site(m, "core.worker_pool.flush", timers.flush, busy_s(timers.flush),
                          untraced_s);
  // Kernel time runs inside flush on the pool threads: it is part of the
  // flush share, not added to the named total a second time.
  emit_call_site(m, "core.worker_pool.kernel", timers.kernel,
                 timers.kernel_total_us * 1e-6 / static_cast<double>(kPoolThreads),
                 untraced_s);

  uint64_t requests = 0, refused = 0, batched = 0, tasks = 0;
  size_t max_depth = 0;
  std::vector<double> waits;
  for (const RungResult& r : traced.rungs) {
    requests += r.attempted;
    refused += r.refused;
    batched += r.batched;
    max_depth = std::max(max_depth, r.max_depth);
    waits.insert(waits.end(), r.queue_wait_s.begin(), r.queue_wait_s.end());
    tasks += static_cast<uint64_t>(family_sum(r.snapshot, "pool_tasks_total"));
  }
  m.set("core.worker_pool.requests", static_cast<double>(requests), "count");
  m.set("core.worker_pool.refused", static_cast<double>(refused), "count");
  m.set("core.worker_pool.batched_share",
        requests > 0 ? static_cast<double>(batched) / static_cast<double>(requests) : 0.0,
        "ratio");
  m.set("core.worker_pool.queue_wait_ms_p99", 1000.0 * percentile(waits, 0.99), "ms",
        waits.size());
  m.set("core.worker_pool.max_session_depth", static_cast<double>(max_depth), "count");
  m.set("core.worker_pool.dispatch_self_share",
        timers.kernel_total_us > 0.0 ? timers.kernel_self_us / timers.kernel_total_us
                                     : 0.0,
        "ratio");

  // Thread-pool histograms of the report rung; tasks over the whole ladder.
  emit_thread_pool(m, rung(traced, kReportRung).snapshot, static_cast<double>(tasks));

  const double on_s = ladder_wall(on);
  m.set("telemetry.overhead_pct",
        untraced_s > 0.0 ? 100.0 * (on_s - untraced_s) / untraced_s : 0.0, "%", 1);
  m.set("traced.named_share", named, "ratio");
  virtual_results(traced, m, "virtual.");
  out.notes.push_back("traced ladder: " + std::to_string(ticks) +
                      " ticks per rung; untraced stepping " + json_number(untraced_s) +
                      " s");
  out.notes.push_back(
      ".share values: benchmark-timed call time / untraced ladder wall time; kernel "
      "time is summed over pool threads and divided by the thread count");
  return out;
}

}  // namespace

bool is_fleet_workload(const std::string& name) { return name == "fleet_ladder"; }

RunResult run_fleet_workload(const RunArgs& args) {
  return args.trace ? traced_run(args) : timed_run(args);
}

}  // namespace perfbench
