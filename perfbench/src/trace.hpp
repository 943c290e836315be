// Outside-in tracing for the benchmark's traced runs.  Nothing here
// reaches into src/: every span is taken at a public call boundary of a
// layer, from the benchmark's own files.
//
//   Tracer     — aggregated spans (count, total and self time per name)
//                for per-packet boundaries, whose individual spans would
//                number in the tens of millions; self time excludes the
//                nested spans opened while the span was open.
//   TimedWire  — a transport::LinkTransport + TransportSink pair that
//                owns a SimTransport and times the seam both ways:
//                LinkTransport::send ("transport.send") and
//                TransportSink::on_packet ("core.handler").  BneckProtocol
//                binds to it through its seam constructor, which runs the
//                same event sequence as the simulator constructor.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "sim/simulator.hpp"
#include "transport/sim_transport.hpp"
#include "transport/transport.hpp"

namespace perfbench {

enum class Span : std::uint8_t { kRun, kHandler, kSend, kApi, kCount };

class Tracer {
 public:
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total = 0;  // ticks
    std::uint64_t self = 0;   // ticks
  };

  Tracer() : tick0_(ticks()), ns0_(clock_ns()) {}

  void enter(Span s) { stack_.push_back({s, ticks(), 0}); }
  void leave() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::uint64_t d = ticks() - f.start;
    Agg& a = agg_[static_cast<std::size_t>(f.span)];
    ++a.count;
    a.total += d;
    a.self += d - f.child;
    if (!stack_.empty()) stack_.back().child += d;
  }

  [[nodiscard]] const Agg& agg(Span s) const {
    return agg_[static_cast<std::size_t>(s)];
  }

  /// Seconds per tick, calibrated against the steady clock over the
  /// tracer's lifetime so far (call after the traced work).
  [[nodiscard]] double seconds_per_tick() const {
    const std::uint64_t dt = ticks() - tick0_;
    return dt == 0 ? 0.0
                   : static_cast<double>(clock_ns() - ns0_) * 1e-9 /
                         static_cast<double>(dt);
  }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, Span s) : t_(t) { t_.enter(s); }
    ~Scope() { t_.leave(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
  };

 private:
  struct Frame {
    Span span;
    std::uint64_t start;
    std::uint64_t child;
  };
  // Per-packet spans need a cheap clock: the time-stamp counter where
  // there is one (steady_clock costs ~100 ns a read on virtual machines).
  static std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(clock_ns());
#endif
  }
  static std::int64_t clock_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::uint64_t tick0_;
  std::int64_t ns0_;
  std::vector<Frame> stack_;
  std::array<Agg, static_cast<std::size_t>(Span::kCount)> agg_{};
};

class TimedWire final : public bneck::transport::LinkTransport,
                        public bneck::transport::TransportSink {
 public:
  TimedWire(bneck::sim::Simulator& sim, const bneck::net::Network& net,
            bneck::transport::WireConfig cfg, Tracer& tracer)
      : sim_(sim), inner_(sim, net, cfg), tracer_(tracer) {}

  TimedWire(const TimedWire&) = delete;
  TimedWire& operator=(const TimedWire&) = delete;

  // -- LinkTransport (the protocol's side) --
  void bind(bneck::transport::TransportSink& sink) override {
    upper_ = &sink;
    inner_.bind(*this);
  }
  void send(bneck::LinkId physical, const bneck::core::Packet& p) override {
    ++sends_;
    const Tracer::Scope s(tracer_, Span::kSend);
    inner_.send(physical, p);
  }
  void local(const bneck::core::Packet& p) override { inner_.local(p); }
  [[nodiscard]] bneck::TimeNs now() const override { return inner_.now(); }
  [[nodiscard]] std::uint64_t retransmissions() const override {
    return inner_.retransmissions();
  }

  // -- TransportSink (the simulator's side) --
  void on_wire(const bneck::core::Packet& p, bneck::LinkId physical) override {
    upper_->on_wire(p, physical);
  }
  void on_packet(const bneck::core::Packet& p) override {
    pending_max_ = std::max(pending_max_, sim_.pending());
    const Tracer::Scope s(tracer_, Span::kHandler);
    upper_->on_packet(p);
  }

  [[nodiscard]] std::uint64_t sends() const { return sends_; }
  [[nodiscard]] std::size_t pending_max() const { return pending_max_; }

 private:
  bneck::sim::Simulator& sim_;
  bneck::transport::SimTransport inner_;
  Tracer& tracer_;
  bneck::transport::TransportSink* upper_ = nullptr;
  std::uint64_t sends_ = 0;
  std::size_t pending_max_ = 0;
};

}  // namespace perfbench
