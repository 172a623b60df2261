// Workload entry points of the perfbench binary. Each runs one named
// workload for a seed and a time budget, checks its outputs, and fills the
// end-to-end (timed run) or per-layer (traced run) metric set.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/telemetry/metrics.h"
#include "report.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
  /// `note <text>` detail lines: failure reasons, digests, check outcomes.
  std::vector<std::string> notes;
};

/// Pool threads of every workload (the host has 4 cores).
constexpr int kPoolThreads = 4;

/// Sum of a metric family's series in a telemetry snapshot (0 when absent).
inline double family_sum(const lgv::telemetry::MetricsSnapshot& s, const std::string& name) {
  double v = 0.0;
  for (const lgv::telemetry::MetricSample& x : s.samples) {
    if (x.name == name) v += x.value;
  }
  return v;
}

/// `<name>.{calls,us_p50,us_p99,share}` of one call site timed by the
/// benchmark. `busy_s` is the site's estimated time in the untraced run;
/// the share is that over the untraced run's wall time. Returns the share.
inline double emit_call_site(MetricSet& m, const std::string& name, const CallTimer& t,
                             double busy_s, double untraced_s) {
  const double share = untraced_s > 0.0 ? busy_s / untraced_s : 0.0;
  m.set(name + ".calls", static_cast<double>(t.calls()), "count");
  m.set(name + ".us_p50", t.p50(), "us", t.calls());
  m.set(name + ".us_p99", t.p99(), "us", t.calls());
  m.set(name + ".share", share, "ratio", t.calls());
  return share;
}

/// The `common.thread_pool.*` per-layer metrics from the pool's telemetry
/// histograms (the series with the most observations gives the percentiles).
inline void emit_thread_pool(MetricSet& m, const lgv::telemetry::MetricsSnapshot& s,
                             double tasks) {
  const lgv::telemetry::MetricSample* wait = nullptr;
  const lgv::telemetry::MetricSample* run = nullptr;
  double wait_sum = 0.0, run_sum = 0.0;
  for (const lgv::telemetry::MetricSample& x : s.samples) {
    if (x.name == "pool_task_wait_us") {
      wait_sum += x.sum;
      if (wait == nullptr || x.value > wait->value) wait = &x;
    } else if (x.name == "pool_task_run_us") {
      run_sum += x.sum;
      if (run == nullptr || x.value > run->value) run = &x;
    }
  }
  m.set("common.thread_pool.tasks", tasks, "count");
  m.set("common.thread_pool.wait_us_p50", wait != nullptr ? wait->p50 : 0.0, "us");
  m.set("common.thread_pool.wait_us_p99", wait != nullptr ? wait->p99 : 0.0, "us");
  m.set("common.thread_pool.run_us_p50", run != nullptr ? run->p50 : 0.0, "us");
  m.set("common.thread_pool.wait_share",
        wait_sum + run_sum > 0.0 ? wait_sum / (wait_sum + run_sum) : 0.0, "ratio");
}

bool is_mission_workload(const std::string& name);
bool is_fleet_workload(const std::string& name);

RunResult run_mission_workload(const RunArgs& args);
RunResult run_fleet_workload(const RunArgs& args);

}  // namespace perfbench
