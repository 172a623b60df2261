// Shared pieces of the perfbench binary: wall/CPU clocks, order statistics,
// the virtual-output digest, the per-call timer used by traced runs, and the
// result printer (detail lines plus the final one-line JSON object).
#pragma once

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user+sys CPU seconds (all threads).
inline double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident set size of this process (MB): VmHWM of /proc/self/status.
/// (getrusage's ru_maxrss is no use here: Linux carries the parent's
/// high-water mark across exec, so under run.py it reads Python's.)
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Bytes the program holds from malloc right now (MB): in-use arena bytes
/// plus mmapped blocks. Unlike the resident set it drops when memory is
/// freed, so it does not carry over what an earlier mission left behind.
inline double heap_in_use_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/// Linear-interpolated percentile, p in [0, 1]; 0 for an empty set.
inline double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double idx = p * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

inline double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

inline double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

/// FNV-1a over the bit patterns of virtual outputs: two runs agree on the
/// digest only if every hashed double is bit-identical.
class Digest {
 public:
  void add(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(&v, sizeof v); }
  void add(uint64_t v) { add(&v, sizeof v); }
  void add(const std::string& s) { add(s.data(), s.size()); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

inline std::string hex64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Per-call wall timer for one layer call site (traced runs only): the
/// benchmark wraps its own calls into a layer's public functions with it.
class CallTimer {
 public:
  template <typename Fn>
  decltype(auto) time(Fn&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      us_.push_back(elapsed_us(t0));
    } else {
      decltype(auto) r = fn();
      us_.push_back(elapsed_us(t0));
      return r;
    }
  }
  void add_us(double us) { us_.push_back(us); }
  size_t calls() const { return us_.size(); }
  double p50() const { return percentile(us_, 0.5); }
  double p99() const { return percentile(us_, 0.99); }
  double mean_us() const { return mean(us_); }

 private:
  static double elapsed_us(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                     t0)
        .count();
  }
  std::vector<double> us_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  ///< how many observations the value summarizes
};

/// Ordered metric set; printed as `metric <name> <value> <unit> n=<samples>`
/// detail lines and as the `metrics` object of the final JSON line.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 1) {
    if (values_.count(name) == 0) order_.push_back(name);
    values_[name] = Metric{value, unit, samples};
  }
  const std::vector<std::string>& names() const { return order_; }
  const Metric& at(const std::string& name) const { return values_.at(name); }

 private:
  std::vector<std::string> order_;
  std::map<std::string, Metric> values_;
};

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

inline void print_detail(const char* prefix, const MetricSet& m) {
  for (const std::string& name : m.names()) {
    const Metric& x = m.at(name);
    std::printf("%s %-44s %14s %-6s n=%llu\n", prefix, name.c_str(),
                json_number(x.value).c_str(), x.unit.c_str(),
                static_cast<unsigned long long>(x.samples));
  }
}

/// Machine-readable run result for the wrapper (run.py), which selects the
/// metrics BENCHMARK.json names and prints the final result line.
inline std::string result_json(bool correct, uint64_t attempted, uint64_t failed,
                               const MetricSet& m) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : m.names()) {
    const Metric& x = m.at(name);
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + json_number(x.value) +
         ", \"unit\": \"" + x.unit + "\", \"samples\": " +
         std::to_string(x.samples) + "}";
  }
  s += "}}";
  return s;
}

/// Progress records for the wrapper: if the process dies mid-run, the last
/// `progress` line says how many operations had been attempted and the last
/// `partial` line holds the metrics measured up to then.
inline void print_progress(uint64_t attempted, uint64_t failed) {
  std::printf("progress attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::fflush(stdout);
}

inline void print_partial(bool correct, uint64_t attempted, uint64_t failed,
                          const MetricSet& m) {
  std::printf("partial %s\n", result_json(correct, attempted, failed, m).c_str());
  std::fflush(stdout);
}

/// Host-speed probe: a fixed, benchmark-owned loop of dependent arithmetic and
/// random gathers from a 2 MiB table (0.4-0.8 ms on a 2 GHz Xeon vCPU). Its
/// time tracks the host's speed, which on a shared machine drifts with the
/// neighbours' load (CPU and shared cache) by tens of percent within a
/// minute. The table is sized like the simulator's working set: a
/// cache-resident probe tracks the drift poorly. Each probe first walks the
/// whole table twice (untimed), so the probe starts from the same cache state
/// whatever the program left in the caches before it: the program's own
/// memory traffic does not move the timed part (`probe_cache_shift` checks
/// this on every timed run; with one walk, 64 MiB of other traffic still
/// slowed the probe by a third). Returns the timed part's wall seconds.
constexpr size_t kProbeTableFloats = size_t{1} << 19;
constexpr double kProbeTableMb = kProbeTableFloats * sizeof(float) / (1024.0 * 1024.0);

inline double probe_host_s() {
  constexpr int kIterations = 150000;
  static const std::vector<float> table = [] {
    std::vector<float> t(kProbeTableFloats);
    uint32_t x = 12345;
    for (float& v : t) {
      x = x * 1664525u + 1013904223u;
      v = static_cast<float>(x >> 8) * 1e-7f;
    }
    return t;
  }();
  float warm = 0.0f;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < table.size(); i += 16) warm += table[i];
  }
  const auto t0 = std::chrono::steady_clock::now();
  uint32_t x = 0x9e3779b9u;
  double acc = warm;
  for (int i = 0; i < kIterations; ++i) {
    x = x * 1664525u + 1013904223u;
    acc = acc * 0.999999 + table[x >> 13] * 1.0000001;
  }
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (acc == -1.0) std::abort();  // keeps the loop observable
  return s;
}

/// The process's peak resident set without the probe's table (MB).
inline double program_peak_rss_mb() { return peak_rss_mb() - kProbeTableMb; }

/// How far the probe moves when the program's working set changes: the
/// median of probes taken right after streaming through 32 MiB of other
/// memory, over the median of probes taken without it, minus 1 (15
/// alternating pairs). Near 0 when the untimed walks do their job.
inline double probe_cache_shift() {
  std::vector<uint64_t> dirty(size_t{32} << 17);
  std::vector<double> clean_s, dirty_s;
  uint64_t sink = 0;
  for (int p = 0; p < 15; ++p) {
    clean_s.push_back(probe_host_s());
    for (size_t i = 0; i < dirty.size(); i += 8) sink += ++dirty[i];
    dirty_s.push_back(probe_host_s());
  }
  if (sink == 1) std::abort();  // keeps the dirtying observable
  std::sort(clean_s.begin(), clean_s.end());
  std::sort(dirty_s.begin(), dirty_s.end());
  return dirty_s[dirty_s.size() / 2] / clean_s[clean_s.size() / 2] - 1.0;
}

/// Wall-clock metrics are reported at a reference host speed: a wall time
/// measured while the probe took p seconds is scaled by kProbeRefS / p, with
/// p the median of probes interleaved with that stretch of work. Raw values
/// are printed beside the scaled ones.
constexpr double kProbeRefS = 1.0e-3;

class HostScale {
 public:
  /// Run one probe; returns the wall seconds it took with its untimed walks
  /// (to be left out of the work timed).
  double sample() {
    const double t0 = wall_now();
    samples_.push_back(probe_host_s());
    return wall_now() - t0;
  }
  /// Multiply a wall time by this to get it at the reference host speed.
  double factor() const { return samples_.empty() ? 1.0 : kProbeRefS / median(samples_); }
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

/// One timed stretch of stepping (a mission, a fleet rung, a fleet round):
/// times each step, runs the host-speed probe after every kProbeEveryMs of
/// stepping, and keeps the probes' time out of the wall and CPU totals.
class Stretch {
 public:
  static constexpr double kProbeEveryMs = 20.0;

  Stretch() : cpu0_(cpu_now()), wall0_(wall_now()) {}

  /// Time one step; returns what `fn` returns.
  template <typename Fn>
  auto step(Fn&& fn) {
    const auto s0 = std::chrono::steady_clock::now();
    auto r = fn();
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - s0)
            .count();
    step_ms_.push_back(ms);
    since_probe_ms_ += ms;
    if (since_probe_ms_ >= kProbeEveryMs) {
      since_probe_ms_ = 0.0;
      probe_s_ += host_.sample();
    }
    return r;
  }

  /// Close the stretch: wall and CPU seconds without the probes.
  void end() {
    wall_s_ = wall_now() - wall0_ - probe_s_;
    cpu_s_ = cpu_now() - cpu0_ - probe_s_;
  }

  const std::vector<double>& step_ms() const { return step_ms_; }
  double wall_s() const { return wall_s_; }
  double cpu_s() const { return cpu_s_; }
  const HostScale& host() const { return host_; }

 private:
  double cpu0_, wall0_;
  double probe_s_ = 0.0, since_probe_ms_ = 0.0;
  double wall_s_ = 0.0, cpu_s_ = 0.0;
  std::vector<double> step_ms_;
  HostScale host_;
};

/// The timed run's wall-clock metrics, raw and at the reference host speed,
/// accumulated over set-ups and stretches. Every workload reports the same
/// set through fill().
class WallTotals {
 public:
  /// One set-up of `setup_s`, with the probe taken just before it.
  void add_setup(double setup_s, double probe_s) {
    setups_.push_back(setup_s);
    setups_ref_.push_back(setup_s * kProbeRefS / probe_s);
    probes_.push_back(probe_s);
  }
  /// One stretch that stepped `vehicle_vs` vehicle-virtual-seconds, with
  /// `heap_mb` of malloc memory in use when it ended.
  void add(const Stretch& s, double vehicle_vs, double heap_mb) {
    const double f = s.host().factor();
    vehicle_vs_ += vehicle_vs;
    wall_ += s.wall_s();
    wall_ref_ += s.wall_s() * f;
    cpu_ += s.cpu_s();
    cpu_ref_ += s.cpu_s() * f;
    steps_ += s.step_ms().size();
    p99_.push_back(percentile(s.step_ms(), 0.99));
    p99_ref_.push_back(p99_.back() * f);
    heap_.push_back(heap_mb);
    probes_.insert(probes_.end(), s.host().samples().begin(), s.host().samples().end());
  }
  size_t stretches() const { return p99_.size(); }
  double wall_s() const { return wall_; }

  /// sim_rate, cpu_ms_per_vs, step_p99_ms (median over stretches of each
  /// stretch's p99), setup_s (median over set-ups), setup_rss_mb (given),
  /// their *_raw forms, mission_heap_mb, peak_rss_mb and host_probe_us.
  void fill(MetricSet& m, double setup_rss_mb) const {
    const auto n = static_cast<uint64_t>(p99_.size());
    const double vs = vehicle_vs_ > 0.0 ? vehicle_vs_ : 1.0;
    m.set("sim_rate", wall_ref_ > 0.0 ? vehicle_vs_ / wall_ref_ : 0.0, "vs/s", steps_);
    m.set("cpu_ms_per_vs", 1000.0 * cpu_ref_ / vs, "ms", steps_);
    m.set("step_p99_ms", median(p99_ref_), "ms", n);
    m.set("setup_s", median(setups_ref_), "s", setups_ref_.size());
    m.set("setup_rss_mb", setup_rss_mb, "MB", 1);
    m.set("mission_heap_mb", median(heap_), "MB", n);
    m.set("sim_rate_raw", wall_ > 0.0 ? vehicle_vs_ / wall_ : 0.0, "vs/s", steps_);
    m.set("cpu_ms_per_vs_raw", 1000.0 * cpu_ / vs, "ms", steps_);
    m.set("step_p99_ms_raw", median(p99_), "ms", n);
    m.set("setup_s_raw", median(setups_), "s", setups_.size());
    m.set("peak_rss_mb", program_peak_rss_mb(), "MB", 1);
    m.set("host_probe_us", 1e6 * median(probes_), "us", probes_.size());
  }

 private:
  std::vector<double> setups_, setups_ref_, probes_, p99_, p99_ref_, heap_;
  double vehicle_vs_ = 0.0, wall_ = 0.0, wall_ref_ = 0.0, cpu_ = 0.0, cpu_ref_ = 0.0;
  uint64_t steps_ = 0;
};

}  // namespace perfbench
