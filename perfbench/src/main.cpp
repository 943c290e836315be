// bneck_perfbench: runs one workload of the B-Neck stack benchmark and
// prints its raw report as one JSON line.  perfbench/run.py builds this
// binary, turns the report into the benchmark's metrics and applies the
// counter pins; see perfbench/README.md.
//
//   bneck_perfbench --workload <churn|churn_sharded4|dense_star|daemon_burst>
//                   [--seed N] [--seconds S] [--trace 0|1] [--size F]
//                   [--fault-single-kick] [--reliable-links]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <type_traits>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

class JsonOut {
 public:
  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }
  void key(const std::string& k) {
    comma();
    string(k);
    s_ += ':';
    after_key_ = true;
  }
  void num(double v) {
    comma();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s_ += buf;
  }
  void str(const std::string& v) {
    comma();
    string(v);
  }
  template <class T>
  void field(const std::string& k, const T& v) {
    key(k);
    if constexpr (std::is_convertible_v<T, std::string>) {
      str(v);
    } else {
      num(static_cast<double>(v));
    }
  }
  [[nodiscard]] const std::string& text() const { return s_; }

 private:
  void comma() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_) s_ += ',';
    first_ = false;
  }
  void open(char c) {
    comma();
    s_ += c;
    first_ = true;
  }
  void close(char c) {
    s_ += c;
    first_ = false;
  }
  void string(const std::string& v) {
    s_ += '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        s_ += '\\';
        s_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        s_ += ' ';
      } else {
        s_ += c;
      }
    }
    s_ += '"';
  }

  std::string s_;
  bool first_ = true;
  bool after_key_ = false;
};

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bneck_perfbench: %s\nusage: bneck_perfbench --workload "
               "<churn|churn_sharded4|dense_star|daemon_burst> [--seed N] "
               "[--seconds S] [--trace 0|1] [--size F] "
               "[--fault-single-kick] [--reliable-links]\n",
               why);
  std::exit(2);
}

}  // namespace

void print_report(const Report& r) {
  JsonOut j;
  j.begin_object();
  j.field("workload", r.workload);
  j.field("seed", r.seed);
  j.field("size", r.size);
  j.field("trace", r.trace);
  j.key("provenance");
  j.begin_object();
  j.field("nproc", std::thread::hardware_concurrency());
  j.field("compiler", compiler());
  j.field("build_type", std::string(PERFBENCH_BUILD_TYPE));
  j.end_object();
  j.key("setup_s");
  j.begin_array();
  for (const double v : r.setup_s) j.num(v);
  j.end_array();
  j.key("passes");
  j.begin_array();
  for (const PassRecord& p : r.passes) {
    j.begin_object();
    j.field("instance", p.instance);
    j.field("warmup", p.warmup ? 1 : 0);
    j.field("traced", p.traced ? 1 : 0);
    j.field("wall_s", p.wall_s);
    j.field("cpu_s", p.cpu_s);
    j.field("sys_s", p.sys_s);
    j.field("nvcsw", p.nvcsw);
    j.field("host_steal_s", p.host_steal_s);
    j.field("packets", p.packets);
    j.field("frames", p.frames);
    j.field("api_events", p.api_events);
    j.end_object();
  }
  j.end_array();
  j.key("counters");
  j.begin_array();
  for (const auto& c : r.counters) {
    j.begin_object();
    for (const auto& [k, v] : c) j.field(k, v);
    j.end_object();
  }
  j.end_array();
  j.key("converge_ms");
  j.begin_array();
  for (const auto& set : r.converge_ms) {
    j.begin_array();
    for (const double v : set) j.num(v);
    j.end_array();
  }
  j.end_array();
  j.field("peak_rss_mb", r.peak_rss_mb);
  j.field("attempted", r.attempted);
  j.field("failed", r.failed);
  j.key("failures");
  j.begin_array();
  for (const auto& f : r.failures) j.str(f);
  j.end_array();
  j.key("layers");
  j.begin_object();
  for (const auto& [k, v] : r.layers) j.field(k, v);
  j.end_object();
  j.key("spans");
  j.begin_array();
  for (const SpanRecord& s : r.spans) {
    j.begin_object();
    j.field("name", s.name);
    j.field("parent", s.parent);
    j.field("start_s", s.start_s);
    j.field("end_s", s.end_s);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  std::printf("%s\n", j.text().c_str());
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(value());
    } else if (a == "--trace") {
      opt.trace = std::atoi(value()) != 0;
    } else if (a == "--size") {
      opt.size = std::atof(value());
    } else if (a == "--fault-single-kick") {
      opt.fault_single_kick = true;
    } else if (a == "--reliable-links") {
      opt.reliable_links = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!(opt.size > 0) || !(opt.seconds >= 0)) usage("bad --size or --seconds");
  try {
    Report r;
    if (workload == "churn") {
      r = run_churn(opt);
    } else if (workload == "churn_sharded4") {
      r = run_churn_sharded4(opt);
    } else if (workload == "dense_star") {
      r = run_dense_star(opt);
    } else if (workload == "daemon_burst") {
      r = run_daemon_burst(opt);
    } else {
      usage("unknown workload");
    }
    print_report(r);
    return r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bneck_perfbench: %s\n", e.what());
    return 3;
  }
}
