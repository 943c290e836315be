// daemon_burst: the deployed plane as a black box.  A transport::Daemon
// serve loop runs on its own thread and a SourceClient on this one,
// over loopback UDP with the reliability sublayer on.  Closed loop: the
// client issues a burst of API calls, then polls until its sources are
// stable and two StatusReplies in a row report a stable router plane
// with no frames accepted in between (the compliance harness's rule),
// and only then sends the next burst.  converge_ms is the wall time
// from a burst's first call to that point.
//
// Every burst is checked against core::solve_reference.  Each input
// instance's burst sequence is also replayed in the simulator once per
// run, after every timed pass: its rates must match the solver too, and
// its simulated time to quiescence gives this workload's
// sim_quiescence_ms.
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/bneck.hpp"
#include "core/maxmin.hpp"
#include "topo/transit_stub.hpp"
#include "transport/client.hpp"
#include "transport/daemon.hpp"
#include "workload/workload.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bneck;

constexpr int kBurstSize = 20;
constexpr int kJoinBursts = 30;   // build the population: 600 sessions
constexpr int kChurnBursts = 70;  // then 7 leaves + 7 changes + 6 joins each
constexpr int kChurnLeaves = 7;
constexpr int kChurnChanges = 7;
constexpr double kBurstTimeoutS = 5.0;
constexpr int kMaxNudges = 3;
constexpr std::size_t kBurstsPerSetup = 5;  // one set-up timed per 5 bursts

struct Op {
  enum Kind : std::uint8_t { kJoin, kLeave, kChange } kind;
  std::int32_t id;
  Rate demand;  // for joins and changes
};

struct Input {
  net::Network net;
  std::vector<workload::SessionPlan> sessions;  // index == session id
  std::vector<std::vector<Op>> bursts;
};

Input make_input(std::uint64_t seed, double size) {
  const int join_bursts =
      std::max(1, static_cast<int>(std::lround(kJoinBursts * size)));
  const int churn_bursts =
      std::max(1, static_cast<int>(std::lround(kChurnBursts * size)));
  const int joins_per_churn = kBurstSize - kChurnLeaves - kChurnChanges;
  const int total = join_bursts * kBurstSize + churn_bursts * joins_per_churn;

  Input in;
  Rng rng(seed);
  auto params = topo::small_params();
  params.hosts = total + 64;
  in.net = topo::make_transit_stub(params, rng);
  const net::PathFinder paths(in.net);
  workload::WorkloadConfig wc;
  wc.sessions = total;
  wc.demand_fraction = 0.25;
  in.sessions = workload::generate_sessions(in.net, paths, wc, rng);

  auto demand_of = [&in](std::int32_t id) {
    return in.sessions[static_cast<std::size_t>(id)].demand;
  };
  std::int32_t next = 0;
  std::vector<std::int32_t> live;
  for (int b = 0; b < join_bursts; ++b) {
    auto& ops = in.bursts.emplace_back();
    for (int k = 0; k < kBurstSize; ++k) {
      ops.push_back({Op::kJoin, next, demand_of(next)});
      live.push_back(next++);
    }
  }
  for (int b = 0; b < churn_bursts; ++b) {
    auto& ops = in.bursts.emplace_back();
    // Distinct live sessions: the first kChurnLeaves leave, the next
    // kChurnChanges change their demand.
    for (int k = 0; k < kChurnLeaves + kChurnChanges; ++k) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(k, static_cast<std::int64_t>(live.size()) - 1));
      std::swap(live[static_cast<std::size_t>(k)], live[pick]);
    }
    for (int k = 0; k < kChurnLeaves; ++k) {
      ops.push_back({Op::kLeave, live[static_cast<std::size_t>(k)], 0});
    }
    for (int k = kChurnLeaves; k < kChurnLeaves + kChurnChanges; ++k) {
      ops.push_back({Op::kChange, live[static_cast<std::size_t>(k)],
                     rng.uniform_real(1.0, 100.0)});
    }
    live.erase(live.begin(), live.begin() + kChurnLeaves);
    for (int k = 0; k < joins_per_churn; ++k) {
      ops.push_back({Op::kJoin, next, demand_of(next)});
      live.push_back(next++);
    }
  }
  return in;
}

double thread_cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Live sessions as solver input, tracked through the burst sequence.
class LiveSet {
 public:
  explicit LiveSet(const Input& in) : in_(in) {}
  void apply(const Op& op) {
    if (op.kind == Op::kLeave) {
      live_.erase(op.id);
      return;
    }
    core::SessionSpec& s = live_[op.id];
    s.id = SessionId{op.id};
    s.path = in_.sessions[static_cast<std::size_t>(op.id)].path;
    s.demand = op.demand;
  }
  [[nodiscard]] std::vector<core::SessionSpec> specs() const {
    std::vector<core::SessionSpec> v;
    v.reserve(live_.size());
    for (const auto& [id, s] : live_) v.push_back(s);
    return v;
  }

 private:
  const Input& in_;
  std::map<std::int32_t, core::SessionSpec> live_;
};

/// Replays the burst sequence in the simulator, each burst run to
/// quiescence; returns the first failure (empty when none).
std::string replay_in_simulator(const Input& in,
                                std::map<std::string, double>& k) {
  sim::Simulator sim;
  core::BneckProtocol p(sim, in.net);
  LiveSet live(in);
  TimeNs quiescence = 0;
  for (std::size_t b = 0; b < in.bursts.size(); ++b) {
    const TimeNs t0 = sim.now();
    for (const Op& op : in.bursts[b]) {
      const SessionId s{op.id};
      switch (op.kind) {
        case Op::kJoin:
          p.join(s, in.sessions[static_cast<std::size_t>(op.id)].path,
                 op.demand);
          break;
        case Op::kLeave:
          p.leave(s);
          break;
        case Op::kChange:
          p.change(s, op.demand);
          break;
      }
      live.apply(op);
    }
    quiescence += sim.run_until_idle() - t0;
    if (!p.all_tasks_stable()) {
      return fmt("replay burst %zu: tasks not stable", b);
    }
    const auto specs = live.specs();
    const std::string why =
        check_rates(specs, core::solve_waterfill(in.net, specs),
                    [&p](SessionId s) { return p.notified_rate(s); });
    if (!why.empty()) return fmt("replay burst %zu: ", b) + why;
  }
  k["replay.sim_events"] = static_cast<double>(sim.events_processed());
  k["replay.packets"] = static_cast<double>(p.packets_sent());
  k["replay.probe_cycles"] = static_cast<double>(p.total_probe_cycles());
  k["sim_quiescence_ns"] = static_cast<double>(quiescence);
  return {};
}

/// The daemon's serve loop on its own thread; stopped and joined on
/// every exit path.
class ServeThread {
 public:
  explicit ServeThread(transport::Daemon& d)
      : daemon_(d), thread_([this] {
          try {
            daemon_.serve();
          } catch (...) {
            crashed_ = true;
          }
        }) {
    pthread_getcpuclockid(thread_.native_handle(), &clock_);
  }
  ~ServeThread() { stop(); }
  ServeThread(const ServeThread&) = delete;
  ServeThread& operator=(const ServeThread&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    daemon_.request_stop();
    thread_.join();
  }
  [[nodiscard]] double cpu_s() const { return thread_cpu_s(clock_); }
  [[nodiscard]] bool crashed() const { return crashed_; }

 private:
  transport::Daemon& daemon_;
  std::atomic<bool> crashed_{false};
  clockid_t clock_{};
  std::thread thread_;
};

/// The deployed plane's set-up: topology and burst plan, daemon socket,
/// serve thread, client socket.  Shuts the daemon down on destruction.
struct DaemonStack {
  explicit DaemonStack(const RunOptions& opt)
      : in(make_input(opt.seed, opt.size)),
        daemon(in.net, transport::DaemonOptions{}),
        server(daemon),
        client(in.net, daemon.endpoint()) {}
  ~DaemonStack() { shutdown(); }
  DaemonStack(const DaemonStack&) = delete;
  DaemonStack& operator=(const DaemonStack&) = delete;

  void shutdown() {
    client.poll(0);
    client.shutdown_daemon();
    server.stop();
  }

  const Input in;
  transport::Daemon daemon;
  ServeThread server;
  transport::SourceClient client;
};

PassResult daemon_pass(const RunOptions& opt, Report& rep, bool traced,
                       bool warmup) {
  PassResult out;
  out.rec.traced = traced;

  DaemonStack st(opt);
  const Input& in = st.in;
  transport::Daemon& daemon = st.daemon;
  ServeThread& server = st.server;
  transport::SourceClient& client = st.client;

  LiveSet live(in);
  if (!warmup) rep.converge_ms.emplace_back();
  RegionTimer timer;
  double daemon_cpu = 0, client_cpu = 0, api_s = 0, poll_s = 0, verify_s = 0;
  std::uint64_t status_queries = 0, api_events = 0;
  int nudges = 0;
  const std::uint64_t frames0 = client.transport().datagrams_sent() +
                                client.transport().datagrams_received();
  const std::uint64_t packets0 =
      client.packets_sent() + client.packets_received();
  auto span = [traced](double& acc, auto&& call) {
    if (!traced) return call();
    const double a = wall_now();
    auto r = call();
    acc += wall_now() - a;
    return r;
  };

  for (std::size_t b = 0; b < in.bursts.size(); ++b) {
    const double d_cpu0 = server.cpu_s();
    const double c_cpu0 = thread_cpu_s(CLOCK_THREAD_CPUTIME_ID);
    timer.start();
    const double t0 = wall_now();
    for (const Op& op : in.bursts[b]) {
      const SessionId s{op.id};
      span(api_s, [&] {
        switch (op.kind) {
          case Op::kJoin:
            client.join(s, in.sessions[static_cast<std::size_t>(op.id)].path,
                        op.demand);
            break;
          case Op::kLeave:
            client.leave(s);
            break;
          case Op::kChange:
            client.change(s, op.demand);
            break;
        }
        return 0;
      });
      live.apply(op);
    }
    api_events += in.bursts[b].size();

    std::string why;
    bool converged = false;
    double last_progress = wall_now();
    std::uint64_t last_rx = client.packets_received();
    std::uint64_t last_seen = ~std::uint64_t{0};
    int stable_polls = 0;
    while (wall_now() - t0 < kBurstTimeoutS) {
      span(poll_s, [&] { return client.poll(1); });
      if (client.failed()) {
        why = "client failed: " + client.failure();
        break;
      }
      if (client.packets_received() != last_rx) {
        last_rx = client.packets_received();
        last_progress = wall_now();
      }
      if (!client.sources_stable()) {
        stable_polls = 0;
        if (wall_now() - last_progress > 0.25 && nudges < kMaxNudges) {
          client.nudge();
          ++nudges;
          last_progress = wall_now();
        }
        continue;
      }
      ++status_queries;
      const auto st = span(poll_s, [&] { return client.query_status(100); });
      if (!st) continue;
      if (st->stable && st->active_sessions == client.live_sessions() &&
          st->packets_seen == last_seen) {
        if (++stable_polls >= 2) {
          converged = true;
          break;
        }
      } else {
        stable_polls = 0;
        last_seen = st->packets_seen;
      }
    }
    const double t1 = wall_now();
    timer.stop();
    daemon_cpu += server.cpu_s() - d_cpu0;
    client_cpu += thread_cpu_s(CLOCK_THREAD_CPUTIME_ID) - c_cpu0;

    // Verification: outside the timed region.
    ++rep.attempted;
    if (why.empty() && !converged) {
      why = fmt("no convergence within %.0f s", kBurstTimeoutS);
    }
    if (why.empty()) {
      const auto specs = live.specs();
      why = check_rates(specs, core::solve_reference(in.net, specs),
                        [&client](SessionId s) {
                          return std::optional<Rate>(client.rate_of(s));
                        });
    }
    verify_s += wall_now() - t1;
    if (!why.empty()) {
      rep.fail(fmt("burst %zu: ", b) + why);
      out.ok = false;
      break;  // a broken plane would time out every later burst
    }
    if (!warmup) rep.converge_ms.back().push_back((t1 - t0) * 1e3);
    if (!warmup && !traced && b % kBurstsPerSetup == 0) {
      time_setup(rep, [&opt] { return DaemonStack(opt); });
    }
  }

  out.rec.wall_s = timer.wall_s;
  out.rec.cpu_s = timer.cpu_s;
  out.rec.sys_s = timer.sys_s;
  out.rec.nvcsw = timer.nvcsw;
  out.rec.host_steal_s = timer.steal_s;
  out.rec.frames = client.transport().datagrams_sent() +
                   client.transport().datagrams_received() - frames0;
  out.rec.packets =
      client.packets_sent() + client.packets_received() - packets0;
  out.rec.api_events = api_events;

  st.shutdown();
  if (server.crashed()) {
    rep.fail("daemon serve loop threw");
    out.ok = false;
  }

  out.counters["api_events"] = static_cast<double>(api_events);

  if (traced) {
    auto& L = out.layers;
    L["daemon.cpu_s"] = daemon_cpu;
    L["client.cpu_s"] = client_cpu;
    L["client.api_s"] = api_s;
    L["client.poll_s"] = poll_s;
    L["client.status_queries"] = static_cast<double>(status_queries);
    L["client.nudges"] = nudges;
    transport::UdpTransport& ct = client.transport();
    transport::UdpTransport& dt = daemon.transport();
    L["udp.datagrams_sent"] =
        static_cast<double>(ct.datagrams_sent() + dt.datagrams_sent());
    L["udp.datagrams_received"] =
        static_cast<double>(ct.datagrams_received() + dt.datagrams_received());
    L["udp.acks_sent"] = static_cast<double>(ct.acks_sent() + dt.acks_sent());
    L["udp.decode_errors"] =
        static_cast<double>(ct.decode_errors() + dt.decode_errors());
    L["reliable.retransmissions"] =
        static_cast<double>(ct.retransmissions() + dt.retransmissions());
    L["reliable.duplicates_dropped"] =
        static_cast<double>(ct.duplicates_dropped() + dt.duplicates_dropped());
    L["daemon.frames_accepted"] =
        static_cast<double>(daemon.stats().frames_accepted);
    L["daemon.frames_rejected"] =
        static_cast<double>(daemon.stats().frames_rejected);
    L["workload.verify_s"] = verify_s;
  }
  return out;
}

}  // namespace

Report run_daemon_burst(const RunOptions& opt) {
  // The first pass warms up and is checked but not timed.  Each timed
  // pass makes 100 bursts at size 1: its p90 has 10 samples beyond it.
  // A traced run uses instance 0 only.
  const int instances = opt.trace ? 1 : kInstances;
  const int min_passes = std::max(3, instances);
  Report rep;
  rep.workload = "daemon_burst";
  rep.seed = opt.seed;
  rep.size = opt.size;
  rep.trace = opt.trace ? 1 : 0;
  std::vector<std::map<std::string, double>> layers;
  const double start = wall_now();
  for (int i = 0;; ++i) {
    const bool traced = opt.trace && i > 1;
    RunOptions io = opt;
    io.seed = instance_seed(opt.seed, i % instances);
    PassResult r = daemon_pass(io, rep, traced, /*warmup=*/i == 0);
    r.rec.instance = i % instances;
    r.rec.warmup = i == 0;
    rep.passes.push_back(r.rec);
    rep.counters.push_back(std::move(r.counters));
    if (traced) layers.push_back(std::move(r.layers));
    if (!r.ok) break;
    if (i + 1 >= min_passes && wall_now() - start >= opt.seconds) break;
  }
  set_layers(rep, layers);
  rep.peak_rss_mb = Usage::now().maxrss_mb;

  // An instance's burst sequence is a function of its seed alone, so one
  // replay per instance covers every pass.  The replays run after the
  // peak memory reading: the simulator's memory is not the deployed
  // plane's.
  const int ran = std::min<int>(instances, static_cast<int>(rep.passes.size()));
  for (int k = 0; k < ran; ++k) {
    std::map<std::string, double> replay;
    const std::string why = replay_in_simulator(
        make_input(instance_seed(opt.seed, k), opt.size), replay);
    if (!why.empty()) rep.fail(fmt("instance %d: ", k) + why);
    for (std::size_t i = 0; i < rep.passes.size(); ++i) {
      if (rep.passes[i].instance == k) {
        rep.counters[i].insert(replay.begin(), replay.end());
      }
    }
  }
  return rep;
}

}  // namespace perfbench
