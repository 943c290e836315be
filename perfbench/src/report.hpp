// What one benchmark run hands to perfbench/run.py: raw per-pass
// samples, deterministic counters and (traced runs) per-layer values,
// emitted as one JSON line.  run.py owns the statistics (medians,
// percentiles), the counter pins and the final result line; this side
// only measures and verifies.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in seconds.
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process-wide resource usage (every thread), from getrusage.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  long nvcsw = 0;       // voluntary context switches
  double maxrss_mb = 0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.nvcsw = ru.ru_nvcsw;
    u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MB
    return u;
  }
  [[nodiscard]] double cpu_s() const { return user_s + sys_s; }
};

/// CPU time the hypervisor gave to other guests while this one's virtual
/// CPUs wanted to run ("steal" in /proc/stat), summed over all CPUs, in
/// seconds since boot; 0 where the kernel does not report it.
inline double host_steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  const long hz = sysconf(_SC_CLK_TCK);
  return n == 8 && hz > 0 ? static_cast<double>(v[7]) / static_cast<double>(hz)
                          : 0;
}

/// Accumulates wall time and process CPU over a set of disjoint
/// intervals: the timed region of a pass, which pauses for
/// verification between phases.
class RegionTimer {
 public:
  void start() {
    steal0_ = host_steal_s();
    use0_ = Usage::now();
    wall0_ = wall_now();
  }
  void stop() {
    const Usage u = Usage::now();
    wall_s += wall_now() - wall0_;
    cpu_s += u.cpu_s() - use0_.cpu_s();
    sys_s += u.sys_s - use0_.sys_s;
    nvcsw += u.nvcsw - use0_.nvcsw;
    steal_s += host_steal_s() - steal0_;
  }

  double wall_s = 0;
  double cpu_s = 0;
  double sys_s = 0;
  long nvcsw = 0;
  double steal_s = 0;

 private:
  double wall0_ = 0;
  double steal0_ = 0;
  Usage use0_;
};

/// One timed pass over a workload's whole input.
struct PassRecord {
  int instance = 0;     // which of the seed's input instances (sim workloads)
  bool warmup = false;  // checked, but left out of the timing metrics
  bool traced = false;
  double wall_s = 0;     // timed region
  double cpu_s = 0;      // user + system, every thread
  double sys_s = 0;
  long nvcsw = 0;
  double host_steal_s = 0;  // see host_steal_s()
  std::uint64_t packets = 0;     // B-Neck control packets
  std::uint64_t frames = 0;      // wire frames (datagrams on the daemon)
  std::uint64_t api_events = 0;  // join + leave + change calls
};

/// One phase-level span of a traced pass (plan, schedule, run, verify),
/// recorded one by one with its parent; per-packet work is aggregated
/// in Report::layers instead.
struct SpanRecord {
  std::string name;
  int parent = -1;  // index into Report::spans, -1 for a pass root
  double start_s = 0;
  double end_s = 0;
};

/// Everything a pass hands back besides what it appends to the report.
struct PassResult {
  PassRecord rec;
  std::map<std::string, double> counters;  // deterministic
  std::map<std::string, double> layers;    // traced passes only
  bool ok = true;
};

struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  double size = 1.0;
  int trace = 0;

  std::vector<double> setup_s;  // one per set-up
  std::vector<PassRecord> passes;
  /// Deterministic counters of every pass, in pass order; run.py flags
  /// any difference between passes, runs and pinned values as drift.
  std::vector<std::map<std::string, double>> counters;
  /// Convergence latencies in milliseconds (see each workload), one
  /// sample set per input instance (sim workloads) or timed pass
  /// (daemon); run.py takes each set's percentiles and reports their
  /// median over the sets.
  std::vector<std::vector<double>> converge_ms;
  /// Peak resident memory of the process, read by the workload once its
  /// measured work is done (the daemon workload's simulator replay runs
  /// after it).
  double peak_rss_mb = 0;

  /// Phases (sim workloads) or bursts (daemon) checked, and failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log

  /// Per-layer values of a traced run (medians over traced passes).
  std::map<std::string, double> layers;
  std::vector<SpanRecord> spans;  // first traced pass only

  void fail(std::string what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(what));
  }
};

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Sets r.layers to the per-key median over the traced passes' layer
/// values, plus the tracing overhead: median traced CPU per pass minus
/// the CPU of the last untraced pass.
inline void set_layers(
    Report& r, const std::vector<std::map<std::string, double>>& traced) {
  if (traced.empty()) return;
  for (const auto& [key, unused] : traced.front()) {
    std::vector<double> v;
    for (const auto& l : traced) v.push_back(l.at(key));
    r.layers[key] = median(v);
  }
  std::vector<double> cpu;
  double baseline = 0;
  for (const PassRecord& p : r.passes) {
    if (p.traced) {
      cpu.push_back(p.cpu_s);
    } else {
      baseline = p.cpu_s;
    }
  }
  r.layers["trace.overhead_cpu_s"] = median(cpu) - baseline;
}

/// Times one set-up: `make()` builds a workload's stack and returns it;
/// its teardown is not timed.  Set-up takes milliseconds and the host's
/// speed drifts over seconds, so the workloads time set-ups between the
/// phases or bursts of every timed pass, outside the timed region, and
/// setup_s is the median of samples spread over the whole run.
template <class Make>
void time_setup(Report& r, Make make) {
  const double s0 = wall_now();
  const auto stack = make();
  r.setup_s.push_back(wall_now() - s0);
}

/// Writes `r` as one JSON line on stdout.
void print_report(const Report& r);

}  // namespace perfbench
