// The simulator workloads: churn and dense_star on the classic
// single-thread engine, churn_sharded4 on core::ShardedBneck.
//
// A pass rebuilds the instance from the seed (topology, routing, engine:
// the set-up, timed as setup_s between phases), then runs every phase of
// the workload to quiescence.  The timed region of a phase covers planning
// (PhasePlanner::plan_phase), scheduling and the run to quiescence;
// verification after each phase is outside it.  Every pass draws the
// same inputs, so its deterministic counters must repeat exactly.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/bneck.hpp"
#include "core/maxmin.hpp"
#include "core/sharded_bneck.hpp"
#include "net/partition.hpp"
#include "topo/canonical.hpp"
#include "topo/transit_stub.hpp"
#include "trace.hpp"
#include "verify.hpp"
#include "workload/experiment.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bneck;

using Counters = std::map<std::string, double>;

/// A workload's input, as a function of the seed.
struct SimSpec {
  /// Draws the topology from the seed's generator; the phase plans then
  /// continue on the same generator (the order exp2_dynamics uses).
  std::function<net::Network(Rng&)> build;
  std::vector<workload::PhaseSpec> phases;
};

/// The exp2_dynamics / paper Figure 6 shape at exp2 `--scale 0.05 *
/// size`: join b; leave b/5; change b/5; join b/5; then all three.
SimSpec churn_spec(double size) {
  const auto base = std::max<std::int32_t>(
      50, static_cast<std::int32_t>(100000.0 * 0.05 * size));
  const std::int32_t churn = base / 5;
  SimSpec spec;
  spec.build = [base, churn](Rng& rng) {
    auto params = topo::medium_params();
    params.hosts = base + 3 * churn + 64;
    return topo::make_transit_stub(params, rng);
  };
  workload::PhaseSpec p;
  p.joins = base;
  spec.phases.push_back(p);
  p = {};
  p.leaves = churn;
  spec.phases.push_back(p);
  p = {};
  p.changes = churn;
  spec.phases.push_back(p);
  p = {};
  p.joins = churn;
  spec.phases.push_back(p);
  p = {};
  p.joins = churn;
  p.leaves = churn;
  p.changes = churn;
  spec.phases.push_back(p);
  return spec;
}

/// A 4-leaf star with thousands of hosts per router and fat router
/// links, so each directed router link carries thousands of sessions;
/// half of the joins carry finite demands (1..120 Mbps), which spreads
/// each link table over many rate levels.
SimSpec dense_star_spec(double size) {
  const auto joins =
      std::max<std::int32_t>(100, static_cast<std::int32_t>(20000 * size));
  const std::int32_t churn = joins / 5;
  SimSpec spec;
  spec.build = [joins, churn](Rng& rng) {
    topo::CanonicalOptions o;
    o.router_capacity = 200000.0;  // 200 Gbps: fair shares near the demands
    // The seed draws the link delays (within 20 %), so convergence times
    // vary with it instead of repeating one fixed path round trip.
    o.router_delay = rng.uniform_int(1000, 1200);
    o.access_delay = rng.uniform_int(1000, 1200);
    o.hosts_per_router = (joins + 2 * churn) / 5 + 64;
    return topo::make_star(4, o);
  };
  workload::PhaseSpec p;
  p.demand_fraction = 0.5;
  p.joins = joins;
  spec.phases.push_back(p);
  p.joins = 0;
  p.leaves = churn;
  spec.phases.push_back(p);
  p.leaves = 0;
  p.changes = churn;
  spec.phases.push_back(p);
  p.changes = 0;
  p.joins = churn;
  spec.phases.push_back(p);
  p.leaves = churn;
  p.changes = churn;
  spec.phases.push_back(p);
  return spec;
}

/// The instance one pass runs on.  Heap-allocated: the planner keeps
/// references to both members.
struct Instance {
  net::Network net;
  Rng rng;
};

std::unique_ptr<Instance> make_instance(const SimSpec& spec,
                                        std::uint64_t seed) {
  Rng rng(seed);
  net::Network net = spec.build(rng);
  return std::make_unique<Instance>(Instance{std::move(net), rng});
}

/// Records the last API.Rate notification instant of every session.
class ConvergeSink final : public core::TraceSink {
 public:
  void on_rate_notified(TimeNs t, SessionId s, Rate) override {
    const auto i = static_cast<std::size_t>(s.value());
    if (i >= last_.size()) last_.resize(std::max(i + 1, 2 * last_.size()), -1);
    last_[i] = t;
  }
  [[nodiscard]] TimeNs last(SessionId s) const {
    const auto i = static_cast<std::size_t>(s.value());
    return i < last_.size() ? last_[i] : -1;
  }

 private:
  std::vector<TimeNs> last_;
};

/// Per-session convergence: from a join or change call to the session's
/// last rate notification, in simulated ms.  Empty string when every
/// call was answered.
template <class LastNotified>
std::string converge_samples(const workload::PhasePlan& plan,
                             LastNotified last, std::vector<double>& out) {
  auto add = [&](std::int32_t id, TimeNs when) -> bool {
    const TimeNs t = last(SessionId{id});
    if (t < when) return false;
    out.push_back(static_cast<double>(t - when) * 1e-6);
    return true;
  };
  for (const auto& j : plan.joins) {
    if (!add(j.id.value(), j.join_at)) {
      return fmt("session %d never notified after join", j.id.value());
    }
  }
  for (const auto& c : plan.changes) {
    if (!add(c.id, c.when)) {
      return fmt("session %d never notified after change", c.id);
    }
  }
  return {};
}

/// Sessions per router-link table over every router-to-router link that
/// carries at least one (an access link carries its host's session
/// only): running max and the sum of per-phase means.  A phase may span
/// several protocol instances (one per shard), which own disjoint links.
struct LinkLoad {
  double max = 0;
  double mean_sum = 0;
  int phases = 0;

  void add_phase(const std::vector<const core::BneckProtocol*>& protos,
                 const net::Network& net) {
    double sum = 0;
    int links = 0;
    for (const core::BneckProtocol* p : protos) {
      for (const LinkId e : p->active_links()) {
        const net::Link& l = net.link(e);
        if (net.is_host(l.src) || net.is_host(l.dst)) continue;
        const auto n = static_cast<double>(p->router_link(e)->table().size());
        if (n == 0) continue;
        max = std::max(max, n);
        sum += n;
        ++links;
      }
    }
    mean_sum += links > 0 ? sum / links : 0.0;
    ++phases;
  }
};

void add_type_counters(
    const std::array<std::uint64_t, core::kPacketTypeCount>& by_type,
    Counters& c) {
  // core::PacketType order.
  static constexpr const char* kNames[core::kPacketTypeCount] = {
      "join", "probe", "response", "update", "bottleneck", "setbneck",
      "leave"};
  for (std::size_t t = 0; t < by_type.size(); ++t) {
    c[std::string("core.packets.") + kNames[t]] =
        static_cast<double>(by_type[t]);
  }
}

/// Phase-level span bookkeeping of a traced pass.
class PhaseSpans {
 public:
  PhaseSpans(Report& rep, bool on)
      : rep_(on && rep.spans.empty() ? &rep : nullptr) {}
  int open(const char* name, int parent) {
    if (rep_ == nullptr) return -1;
    rep_->spans.push_back({name, parent, wall_now(), 0});
    return static_cast<int>(rep_->spans.size()) - 1;
  }
  void close(int i) {
    if (rep_ != nullptr && i >= 0) {
      rep_->spans[static_cast<std::size_t>(i)].end_s = wall_now();
    }
  }
  void add(const char* name, int parent, double a, double b) {
    if (rep_ != nullptr) rep_->spans.push_back({name, parent, a, b});
  }

 private:
  Report* rep_;
};

core::BneckConfig protocol_config(const RunOptions& opt) {
  core::BneckConfig cfg;
  cfg.fault_single_kick = opt.fault_single_kick;
  cfg.reliable_links = opt.reliable_links;
  return cfg;
}

/// Timed-region totals of a pass, for the engines' per-layer values.
struct PassTimes {
  RegionTimer timer;
  double plan_s = 0;
  double schedule_s = 0;
};

// ---------------------------------------------------------------------
// Engines.  Constructing one is the set-up (instance, routing, engine);
// sim_pass drives either through the same phase loop.

/// The classic single-thread engine (churn, dense_star): a Simulator and
/// a BneckProtocol, bound through TimedWire when traced.
template <bool kTraced>
class ClassicEngine {
 public:
  ClassicEngine(const SimSpec& spec, const RunOptions& opt)
      : inst_(make_instance(spec, opt.seed)),
        wire_(kTraced ? std::make_unique<TimedWire>(
                            sim_, inst_->net, protocol_config(opt).wire(),
                            tracer_)
                      : nullptr),
        proto_(kTraced ? std::make_unique<core::BneckProtocol>(
                             *wire_, inst_->net, protocol_config(opt), &conv_)
                       : std::make_unique<core::BneckProtocol>(
                             sim_, inst_->net, protocol_config(opt), &conv_)),
        planner_(inst_->net, inst_->rng) {
    // A livelocked protocol must fail the pass, not hang the run.
    sim_.set_max_events(
        static_cast<std::uint64_t>(5e7 * std::max(1.0, opt.size)));
  }

  [[nodiscard]] const net::Network& net() const { return inst_->net; }
  workload::PhasePlanner& planner() { return planner_; }
  [[nodiscard]] TimeNs now() const { return sim_.now(); }

  /// `plan` must outlive the next run_until_idle().
  void schedule(const workload::PhasePlan& plan) {
    core::BneckProtocol& pr = *proto_;
    for (const auto& j : plan.joins) {
      sim_.schedule_at(j.join_at, [this, &pr, j = &j] {
        api([&] { pr.join(j->id, j->path, j->demand, j->weight); });
      });
    }
    for (const auto& l : plan.leaves) {
      sim_.schedule_at(l.when, [this, &pr, id = l.id] {
        api([&] { pr.leave(SessionId{id}); });
      });
    }
    for (const auto& c : plan.changes) {
      sim_.schedule_at(c.when, [this, &pr, id = c.id, d = c.demand] {
        api([&] { pr.change(SessionId{id}, d); });
      });
    }
  }
  TimeNs run_until_idle() {
    if constexpr (kTraced) {
      const Tracer::Scope s(tracer_, Span::kRun);
      return sim_.run_until_idle();
    } else {
      return sim_.run_until_idle();
    }
  }

  [[nodiscard]] std::uint64_t packets_sent() const {
    return proto_->packets_sent();
  }
  /// Empty when the phase ended quiescent and stable.
  [[nodiscard]] std::string unsettled() const {
    if (!sim_.idle()) return "event queue not idle";
    if (!proto_->all_tasks_stable()) return "tasks not stable";
    return {};
  }
  [[nodiscard]] std::vector<core::SessionSpec> active_specs() const {
    return proto_->active_specs();
  }
  [[nodiscard]] std::optional<Rate> notified_rate(SessionId s) const {
    return proto_->notified_rate(s);
  }
  [[nodiscard]] TimeNs last_notified(SessionId s) const {
    return conv_.last(s);
  }
  void add_load(LinkLoad& load) const {
    load.add_phase({proto_.get()}, inst_->net);
  }

  /// Deterministic counters; empty string or the first failed check.
  std::string add_counters(Counters& k) const {
    const core::BneckProtocol& pr = *proto_;
    k["sim.events"] = static_cast<double>(sim_.events_processed());
    add_type_counters(pr.packets_by_type(), k);
    k["core.probe_cycles"] = static_cast<double>(pr.total_probe_cycles());
    k["transport.retransmissions"] = static_cast<double>(pr.retransmissions());
    if (pr.retransmissions() != 0) {
      return "transport retransmitted on a loss-free wire";
    }
    return {};
  }

  /// The sim, transport and core layers, timed at the TimedWire seam.
  std::string add_layers(Counters& L, const PassTimes& t) const {
    if constexpr (kTraced) {
      const auto& run = tracer_.agg(Span::kRun);
      const auto& handler = tracer_.agg(Span::kHandler);
      const auto& send = tracer_.agg(Span::kSend);
      const auto& apis = tracer_.agg(Span::kApi);
      const double tick = tracer_.seconds_per_tick();
      const double events = static_cast<double>(sim_.events_processed());
      const double handlers = static_cast<double>(handler.count);
      L["sim.events"] = events;
      L["sim.pending_max"] = static_cast<double>(wire_->pending_max());
      L["sim.self_s"] = static_cast<double>(run.self) * tick;
      L["sim.ns_per_event"] =
          events > 0 ? static_cast<double>(run.self) * tick * 1e9 / events : 0;
      L["transport.sends"] = static_cast<double>(wire_->sends());
      L["transport.send_s"] = static_cast<double>(send.self) * tick;
      L["transport.retransmissions"] =
          static_cast<double>(proto_->retransmissions());
      L["core.deliveries"] = handlers;
      L["core.handler_s"] = static_cast<double>(handler.self) * tick;
      L["core.ns_per_delivery"] =
          handlers > 0
              ? static_cast<double>(handler.self) * tick * 1e9 / handlers
              : 0;
      L["core.api_s"] = static_cast<double>(apis.self) * tick;
      const double covered =
          t.plan_s + t.schedule_s +
          static_cast<double>(run.self + handler.self + send.self +
                              apis.self) *
              tick;
      L["trace.coverage"] =
          t.timer.wall_s > 0 ? covered / t.timer.wall_s : 0;
    }
    return {};
  }

 private:
  template <class Call>
  void api(Call&& call) {
    if constexpr (kTraced) {
      const Tracer::Scope s(tracer_, Span::kApi);
      call();
    } else {
      call();
    }
  }

  std::unique_ptr<Instance> inst_;
  sim::Simulator sim_;
  ConvergeSink conv_;
  Tracer tracer_;
  std::unique_ptr<TimedWire> wire_;
  std::unique_ptr<core::BneckProtocol> proto_;
  workload::PhasePlanner planner_;
};

/// core::ShardedBneck with kShards shards (churn_sharded4).  Its set-up
/// includes partitioning and the worker start.  Nothing inside the
/// engine is timed: its layer is the engine's own counters plus the
/// process's CPU, system time and context switches.
class ShardedEngine {
 public:
  static constexpr std::int32_t kShards = 4;

  ShardedEngine(const SimSpec& spec, const RunOptions& opt)
      : inst_(make_instance(spec, opt.seed)),
        engine_(inst_->net, config(opt), make_sinks(inst_->net)),
        planner_(inst_->net, inst_->rng) {}

  [[nodiscard]] const net::Network& net() const { return inst_->net; }
  workload::PhasePlanner& planner() { return planner_; }
  [[nodiscard]] TimeNs now() const { return engine_.now(); }

  void schedule(const workload::PhasePlan& plan) {
    for (const auto& j : plan.joins) {
      engine_.schedule_join(j.join_at, j.id, j.path, j.demand, j.weight);
    }
    for (const auto& l : plan.leaves) {
      engine_.schedule_leave(l.when, SessionId{l.id});
    }
    for (const auto& c : plan.changes) {
      engine_.schedule_change(c.when, SessionId{c.id}, c.demand);
    }
  }
  TimeNs run_until_idle() { return engine_.run_until_idle(); }

  [[nodiscard]] std::uint64_t packets_sent() const {
    return engine_.packets_sent();
  }
  [[nodiscard]] std::string unsettled() const {
    return engine_.all_tasks_stable() ? std::string() : "tasks not stable";
  }
  [[nodiscard]] std::vector<core::SessionSpec> active_specs() const {
    return engine_.active_specs();
  }
  [[nodiscard]] std::optional<Rate> notified_rate(SessionId s) const {
    return engine_.notified_rate(s);
  }
  [[nodiscard]] TimeNs last_notified(SessionId s) const {
    TimeNs t = -1;
    for (const auto& c : conv_) t = std::max(t, c->last(s));
    return t;
  }
  void add_load(LinkLoad& load) const {
    std::vector<const core::BneckProtocol*> protos;
    for (std::int32_t k = 0; k < engine_.shard_count(); ++k) {
      protos.push_back(&engine_.shard_protocol(k));
    }
    load.add_phase(protos, inst_->net);
  }

  std::string add_counters(Counters& k) const {
    add_type_counters(engine_.packets_by_type(), k);
    k["core.probe_cycles"] = static_cast<double>(engine_.total_probe_cycles());
    k["sharded.windows"] = static_cast<double>(engine_.windows_run());
    k["sharded.cross_shard_packets"] =
        static_cast<double>(engine_.cross_shard_packets());
    return {};
  }

  std::string add_layers(Counters& L, const PassTimes& t) const {
    const double windows = static_cast<double>(engine_.windows_run());
    L["sharded.windows"] = windows;
    L["sharded.cross_shard_packets"] =
        static_cast<double>(engine_.cross_shard_packets());
    L["sharded.packets_per_window"] =
        windows > 0 ? static_cast<double>(engine_.packets_sent()) / windows
                    : 0;
    L["sharded.cut_links"] =
        static_cast<double>(engine_.partition().cut_links.size());
    L["sharded.lookahead_ns"] =
        static_cast<double>(engine_.partition().lookahead);
    L["sharded.cpu_per_wall"] =
        t.timer.wall_s > 0 ? t.timer.cpu_s / t.timer.wall_s : 0;
    L["sharded.sys_s"] = t.timer.sys_s;
    L["sharded.vcsw"] = static_cast<double>(t.timer.nvcsw);
    // The engine partitions inside its constructor; time the same public
    // call on its own and check it reproduces the engine's partition.
    const core::ShardedConfig scfg = config({});
    net::PartitionConfig pcfg;
    pcfg.shards = scfg.shards;
    pcfg.balance_slack = scfg.balance_slack;
    const double p0 = wall_now();
    const net::NetPartition part = net::partition_network(inst_->net, pcfg);
    L["sharded.partition_s"] = wall_now() - p0;
    if (part.node_shard != engine_.partition().node_shard) {
      return "partition_network is not deterministic";
    }
    return {};
  }

 private:
  static core::ShardedConfig config(const RunOptions& opt) {
    core::ShardedConfig scfg;
    scfg.shards = kShards;
    scfg.protocol = protocol_config(opt);
    return scfg;
  }
  std::vector<core::TraceSink*> make_sinks(const net::Network& net) {
    const auto effective = static_cast<std::size_t>(
        std::max<std::int32_t>(1, std::min(kShards, net.router_count())));
    std::vector<core::TraceSink*> sinks;
    for (std::size_t k = 0; k < effective; ++k) {
      conv_.push_back(std::make_unique<ConvergeSink>());
      sinks.push_back(conv_.back().get());
    }
    return sinks;
  }

  std::unique_ptr<Instance> inst_;
  std::vector<std::unique_ptr<ConvergeSink>> conv_;  // one per shard
  core::ShardedBneck engine_;
  workload::PhasePlanner planner_;
};

// ---------------------------------------------------------------------

/// Set-ups timed after each phase of a timed, untraced pass.
constexpr int kSetupsPerPhase = 3;

/// One pass: set-up, then every phase of `spec` to quiescence, each
/// checked against the solver outside the timed region.  The first pass
/// of each input instance keeps its convergence samples (they are
/// deterministic); `time_setups` times set-ups between the phases.
template <class Engine>
PassResult sim_pass(const SimSpec& spec, const RunOptions& opt, Report& rep,
                    bool traced, bool keep_converge, bool time_setups) {
  PassResult out;
  out.rec.traced = traced;

  Engine eng(spec, opt);

  PhaseSpans spans(rep, traced);
  const int pass_span = spans.open("pass", -1);
  PassTimes times;
  RegionTimer& timer = times.timer;
  LinkLoad load;
  double verify_s = 0;
  TimeNs quiescence = 0;
  std::vector<double> converge;
  std::uint64_t api_events = 0;
  for (std::size_t i = 0; i < spec.phases.size() && out.ok; ++i) {
    const int phase_span = spans.open("phase", pass_span);
    const std::uint64_t packets0 = eng.packets_sent();
    timer.start();
    const TimeNs t0 = eng.now();
    const double a = wall_now();
    const workload::PhasePlan plan =
        eng.planner().plan_phase(spec.phases[i], t0);
    const double b = wall_now();
    eng.schedule(plan);
    const double c = wall_now();
    std::string why;
    TimeNs t1 = t0;
    try {
      t1 = eng.run_until_idle();
    } catch (const std::exception& e) {
      why = std::string("run failed: ") + e.what();
    }
    const double d = wall_now();
    timer.stop();
    times.plan_s += b - a;
    times.schedule_s += c - b;
    spans.add("plan", phase_span, a, b);
    spans.add("schedule", phase_span, b, c);
    spans.add("run_until_idle", phase_span, c, d);

    // Verification: outside the timed region.
    api_events += plan.joins.size() + plan.leaves.size() + plan.changes.size();
    quiescence += t1 - t0;
    out.counters[fmt("phase%zu.packets", i + 1)] =
        static_cast<double>(eng.packets_sent() - packets0);
    out.counters[fmt("phase%zu.quiescence_ns", i + 1)] =
        static_cast<double>(t1 - t0);
    ++rep.attempted;
    if (why.empty()) why = eng.unsettled();
    if (why.empty()) {
      const auto specs = eng.active_specs();
      why = check_rates(specs, core::solve_waterfill(eng.net(), specs),
                        [&eng](SessionId s) { return eng.notified_rate(s); });
    }
    if (why.empty()) {
      why = converge_samples(
          plan, [&eng](SessionId s) { return eng.last_notified(s); },
          converge);
    }
    if (!why.empty()) {
      rep.fail(fmt("phase %zu: ", i + 1) + why);
      out.ok = false;
    }
    if (traced) eng.add_load(load);
    verify_s += wall_now() - d;
    spans.add("verify", phase_span, d, wall_now());
    spans.close(phase_span);
    for (int k = 0; k < kSetupsPerPhase && time_setups; ++k) {
      time_setup(rep, [&] { return Engine(spec, opt); });
    }
  }
  spans.close(pass_span);

  out.rec.wall_s = timer.wall_s;
  out.rec.cpu_s = timer.cpu_s;
  out.rec.sys_s = timer.sys_s;
  out.rec.nvcsw = timer.nvcsw;
  out.rec.host_steal_s = timer.steal_s;
  out.rec.packets = eng.packets_sent();
  out.rec.frames = eng.packets_sent();
  out.rec.api_events = api_events;

  Counters& k = out.counters;
  std::string why = eng.add_counters(k);
  k["sim_quiescence_ns"] = static_cast<double>(quiescence);
  k["api_events"] = static_cast<double>(api_events);
  double converge_sum = 0;
  for (const double v : converge) converge_sum += v;
  k["converge_ms_sum"] = converge_sum;
  if (keep_converge) rep.converge_ms.push_back(std::move(converge));

  if (traced) {
    Counters& L = out.layers;
    for (const auto& [name, v] : k) {
      if (name.rfind("core.", 0) == 0) L[name] = v;
    }
    L["core.sessions_per_link_max"] = load.max;
    L["core.sessions_per_link_mean"] =
        load.phases > 0 ? load.mean_sum / load.phases : 0;
    L["workload.plan_s"] = times.plan_s;
    L["workload.schedule_s"] = times.schedule_s;
    L["workload.verify_s"] = verify_s;
    if (why.empty()) why = eng.add_layers(L, times);
  }
  if (!why.empty()) {
    rep.fail(why);
    out.ok = false;
  }
  return out;
}

/// The pass loop shared by the three simulator workloads.  The first
/// pass warms the allocator and caches up: it is checked, but left out
/// of the timing metrics.  Then timed passes follow until `seconds` have
/// elapsed and every instance has run.  A traced run uses instance 0
/// only: it makes the warm-up pass, one untraced pass (the overhead
/// baseline) and then traced passes on `Traced`.  A failed pass ends the
/// run.
template <class Plain, class Traced>
Report run_passes(const char* name, const SimSpec& spec,
                  const RunOptions& opt) {
  const int instances = opt.trace ? 1 : kInstances;
  const int min_passes = std::max(4, instances);
  Report rep;
  rep.workload = name;
  rep.seed = opt.seed;
  rep.size = opt.size;
  rep.trace = opt.trace ? 1 : 0;
  std::vector<Counters> layers;
  const double start = wall_now();
  for (int i = 0;; ++i) {
    const bool traced = opt.trace && i > 1;
    const bool warmup = i == 0;
    const bool first = i < instances;
    RunOptions io = opt;
    io.seed = instance_seed(opt.seed, i % instances);
    PassResult r =
        traced ? sim_pass<Traced>(spec, io, rep, true, first, false)
               : sim_pass<Plain>(spec, io, rep, false, first, !warmup);
    r.rec.instance = i % instances;
    r.rec.warmup = warmup;
    rep.passes.push_back(r.rec);
    rep.counters.push_back(std::move(r.counters));
    if (traced) layers.push_back(std::move(r.layers));
    if (!r.ok) break;
    if (i + 1 >= min_passes && wall_now() - start >= opt.seconds) break;
  }
  set_layers(rep, layers);
  rep.peak_rss_mb = Usage::now().maxrss_mb;
  return rep;
}

}  // namespace

Report run_churn(const RunOptions& opt) {
  return run_passes<ClassicEngine<false>, ClassicEngine<true>>(
      "churn", churn_spec(opt.size), opt);
}

Report run_dense_star(const RunOptions& opt) {
  return run_passes<ClassicEngine<false>, ClassicEngine<true>>(
      "dense_star", dense_star_spec(opt.size), opt);
}

Report run_churn_sharded4(const RunOptions& opt) {
  return run_passes<ShardedEngine, ShardedEngine>(
      "churn_sharded4", churn_spec(opt.size), opt);
}

}  // namespace perfbench
