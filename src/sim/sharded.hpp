// Conservative parallel-discrete-event scheduling across shards.
//
// ShardedScheduler<Payload> advances K privately-owned simulators in
// barrier-synchronized time windows.  The conservative invariant comes
// from the network model: a message sent from one shard during a window
// arrives at least `lookahead` later (lookahead = minimum propagation
// delay of any cross-shard link, net/partition.hpp), so a window of that
// width can run with no incoming surprises.  Windows are not fixed-width
// on the timeline, though: after every round the next horizon is
//
//     H = (min over shards of the shard's next event time,
//          including cross-shard arrivals posted this window) + lookahead
//
// which jumps straight over quiescent gaps — essential here, where LAN
// lookahead is 1 µs but B-Neck's inter-phase silences span tens of ms.
//
// Each round crosses ONE barrier:
//   window         — every shard processes its events below H
//                    (Simulator::run_before; min_time()'s O(1) peek is
//                    the polling primitive), appending cross-shard sends
//                    to its outboxes for this window's parity;
//   publish        — before arriving, each shard publishes
//                    min(next local event time, earliest arrival it
//                    posted this window).  The global minimum of these
//                    equals the global minimum *after* every batch has
//                    been scheduled, because scheduling a batch only adds
//                    events at exactly the posted arrival times;
//   barrier        — the last arriver computes the next horizon (or
//                    termination) and the window count in the completion
//                    step, then releases everyone;
//   drain          — each shard collects the outboxes of the finished
//                    window's parity addressed to it, sorts, schedules,
//                    and runs the next window.  Outboxes are double-
//                    buffered by parity, so a fast shard can already post
//                    into the other buffer while a slow one still drains:
//                    no shard reaches the window after next, which reuses
//                    the buffer, before every shard has drained and
//                    arrived at the next barrier.
// The barrier (SpinParkBarrier below) spins for kSpin, then parks on
// std::atomic::wait; the releaser calls notify_all only when a waiter
// is parked.  A round whose waiters all arrive within the spin costs no
// system call, and a long-waiting shard still gives its core back (on
// churn_sharded4 about nine waits in ten outlast the spin and park).
// Pure spinning would burn a core per waiter and starve the shard
// everybody is waiting on whenever the host has fewer free cores than
// shards.
//
// Happens-before: every cross-thread datum (outboxes, published minima,
// horizon) is written before the writer's acq_rel arrival on the barrier
// and read after the reader's acquire of the new generation (or, for the
// last arriver, after its own arrival RMW, which heads the release
// sequence of every earlier arrival).  The TSan cell in CI checks exactly
// this.
//
// Determinism: every cross-shard message carries (arrival time, source
// shard, per-source sequence).  Each destination sorts its batch on
// exactly that key before scheduling, and a batch is scheduled right
// after the barrier that ends its send window, before the destination
// runs the next window (the conservative invariant puts every arrival at
// or beyond the next horizon, so the future-dated insert is always
// legal).  The horizon values, the window count and the position of each
// batch in its destination's queue operations therefore depend only on
// the inputs and K, never on thread timing: fixed the shard count, the
// destination queue receives cross-shard deliveries in identical (time,
// shard, seq) order on every run — the sharded half of the determinism
// contract (docs/architecture.md).  Scheduling at the send-adjacent
// barrier (not the arrival window) also keeps a delivery's insertion
// sequence aligned with its *send* time, matching the single-thread
// engine's (time, insertion-seq) order everywhere except for sends that
// race within one window on different shards — the irreducible
// ambiguity of parallel execution.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <iterator>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "base/expect.hpp"
#include "base/time.hpp"
#include "sim/simulator.hpp"

namespace bneck::sim {

/// Reusable barrier for a fixed number of threads whose waiters spin for
/// kSpin before parking.  The last arriver runs a completion step while
/// every other party is still held, then releases them all.
class SpinParkBarrier {
 public:
  /// How long a waiter spins before it parks.  On churn_sharded4 (three
  /// interleaved rounds, 4 vCPUs), 3 µs gave within 7% of the packets/s
  /// of 10 µs and 30 µs for 12% and 30% less CPU time.
  static constexpr std::chrono::nanoseconds kSpin{3000};

  explicit SpinParkBarrier(std::uint32_t parties) : parties_(parties) {}

  SpinParkBarrier(const SpinParkBarrier&) = delete;
  SpinParkBarrier& operator=(const SpinParkBarrier&) = delete;

  template <class Completion>
  void arrive_and_wait(Completion&& completion) {
    // Cannot advance before this party arrives, so this is the current
    // generation (coherence with our own last observation of it).
    const std::uint32_t gen = generation_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      completion();
      arrived_.store(0, std::memory_order_relaxed);
      // seq_cst pairs with the parking path below: either a parker's
      // wait() sees the new generation, or this load sees its count.
      generation_.store(gen + 1, std::memory_order_seq_cst);
      if (parked_.load(std::memory_order_seq_cst) != 0) {
        generation_.notify_all();
      }
      return;
    }
    const auto deadline = std::chrono::steady_clock::now() + kSpin;
    while (generation_.load(std::memory_order_acquire) == gen) {
      if (std::chrono::steady_clock::now() >= deadline) {
        // A count, not a flag: a late releaser of the previous
        // generation must not consume the mark of a thread that is
        // already parked in this one.  A parker of a later generation
        // only costs a spurious notify.
        parked_.fetch_add(1, std::memory_order_seq_cst);
        generation_.wait(gen, std::memory_order_seq_cst);
        parked_.fetch_sub(1, std::memory_order_relaxed);
        return;
      }
      cpu_relax();
    }
  }

 private:
  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#else
    // Elsewhere the reload of the generation is the whole spin body.
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }

  const std::uint32_t parties_;
  // Arrivals and the generation the waiters poll live on separate cache
  // lines, so an arrival does not invalidate every spinner's line.
  alignas(64) std::atomic<std::uint32_t> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  std::atomic<std::uint32_t> parked_{0};  // threads inside wait()
};

template <class Payload>
class ShardedScheduler {
 public:
  /// Runs on the destination shard's worker thread right after the
  /// barrier that ends the send window; must schedule `payload` into
  /// that shard's simulator at absolute (future) time t.
  using Deliver =
      std::function<void(std::int32_t dst_shard, TimeNs t, const Payload&)>;

  /// `sims[k]` is shard k's private simulator; all must outlive the
  /// scheduler.  `lookahead` is the partition's cross-shard minimum
  /// delay (kTimeNever when nothing can cross).
  ShardedScheduler(std::vector<Simulator*> sims, TimeNs lookahead,
                   Deliver deliver)
      : sims_(std::move(sims)),
        lookahead_(lookahead),
        deliver_(std::move(deliver)),
        shards_(sims_.size()),
        barrier_(static_cast<std::uint32_t>(sims_.size())) {
    BNECK_EXPECT(!sims_.empty(), "sharded scheduler needs shards");
    BNECK_EXPECT(lookahead_ > 0, "non-positive lookahead");
    for (Shard& s : shards_) {
      for (auto& boxes : s.outbox) boxes.resize(sims_.size());
    }
  }

  ShardedScheduler(const ShardedScheduler&) = delete;
  ShardedScheduler& operator=(const ShardedScheduler&) = delete;

  [[nodiscard]] std::int32_t shard_count() const {
    return static_cast<std::int32_t>(sims_.size());
  }

  /// Queues `payload` for arrival on shard `dst` at absolute time t.
  /// Must be called from shard `src`'s worker during a window (the
  /// transport's cross-shard send path); t must respect the lookahead,
  /// i.e. not fall inside the current window.
  void post(std::int32_t src, std::int32_t dst, TimeNs t,
            const Payload& payload) {
    BNECK_EXPECT(t >= horizon_, "cross-shard message inside the window");
    Shard& s = shards_[static_cast<std::size_t>(src)];
    s.outbox[s.parity][static_cast<std::size_t>(dst)].push_back(
        Msg{t, src, s.post_seq++, payload});
    s.posted_min = std::min(s.posted_min, t);
  }

  /// Runs every shard to global quiescence: all simulators idle and no
  /// staged or in-flight cross-shard messages.  Spawns shard_count - 1
  /// worker threads (the calling thread drives shard 0); reusable —
  /// schedule more work and call again, as the phased experiments do.
  void run_until_idle() {
    if (sims_.size() == 1) {
      sims_[0]->run_until_idle();
      return;
    }
    if (lookahead_ == kTimeNever) {
      // No link crosses shards: nothing can ever be posted, every shard
      // just runs to idle independently.
      run_detached_until_idle();
      return;
    }
    done_ = false;
    for (std::size_t k = 0; k < sims_.size(); ++k) {
      shards_[k].local_min = sims_[k]->next_event_time();
      shards_[k].parity = 0;
    }
    recompute_horizon();
    if (done_) return;  // globally idle already, nothing to run
    std::vector<std::thread> pool;
    pool.reserve(sims_.size() - 1);
    for (std::size_t k = 1; k < sims_.size(); ++k) {
      pool.emplace_back([this, k] { worker(static_cast<std::int32_t>(k)); });
    }
    worker(0);
    for (std::thread& t : pool) t.join();
    if (first_error_) {
      std::exception_ptr err = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(err);
    }
  }

  /// Barrier rounds executed since construction (cumulative over runs).
  [[nodiscard]] std::uint64_t windows_run() const { return windows_; }
  /// Cross-shard messages posted since construction.
  [[nodiscard]] std::uint64_t messages_posted() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.post_seq;
    return total;
  }
  [[nodiscard]] TimeNs lookahead() const { return lookahead_; }

 private:
  struct Msg {
    TimeNs t;
    std::int32_t src;
    std::uint64_t seq;
    Payload payload;
  };

  /// State written by one shard's worker, on its own cache lines.
  struct alignas(64) Shard {
    // outbox[parity][dst]: written by this shard during windows of that
    // parity, drained by shard dst right after the window's barrier.
    std::array<std::vector<std::vector<Msg>>, 2> outbox;
    std::size_t parity = 0;          // parity of the window being run
    std::uint64_t post_seq = 0;      // per-source message sequence
    TimeNs posted_min = kTimeNever;  // earliest arrival posted this window
    TimeNs local_min = kTimeNever;   // published before each arrival
  };

  /// Runs as the barrier's completion step — every other worker is held,
  /// so it reads/writes the shared round state race-free.
  void recompute_horizon() {
    TimeNs g = kTimeNever;
    for (const Shard& s : shards_) g = std::min(g, s.local_min);
    if (g == kTimeNever || g > kTimeNever - lookahead_) {
      done_ = true;
      return;
    }
    horizon_ = g + lookahead_;
    ++windows_;
  }

  void worker(std::int32_t k) {
    const auto i = static_cast<std::size_t>(k);
    Shard& me = shards_[i];
    std::vector<Msg> batch;
    bool failed = false;
    for (;;) {
      if (!failed) {
        try {
          sims_[i]->run_before(horizon_);
        } catch (...) {
          failed = true;
          const std::lock_guard<std::mutex> lock(error_mutex_);
          if (!first_error_) first_error_ = std::current_exception();
        }
      }
      // A failed shard stops contributing work so the healthy shards
      // can still drain to quiescence before the error is rethrown; what
      // it posted before failing still counts.
      me.local_min = std::min(
          failed ? kTimeNever : sims_[i]->next_event_time(), me.posted_min);
      me.posted_min = kTimeNever;
      const std::size_t sent = me.parity;
      me.parity ^= 1;
      barrier_.arrive_and_wait([this] { recompute_horizon(); });
      // Every outbox of the finished window is final; collect what is
      // mine and schedule it right away, in (time, shard, seq) order.
      batch.clear();
      for (Shard& src : shards_) {
        auto& box = src.outbox[sent][i];
        batch.insert(batch.end(), std::make_move_iterator(box.begin()),
                     std::make_move_iterator(box.end()));
        box.clear();
      }
      if (!failed) {
        std::sort(batch.begin(), batch.end(), [](const Msg& a, const Msg& b) {
          if (a.t != b.t) return a.t < b.t;
          if (a.src != b.src) return a.src < b.src;
          return a.seq < b.seq;
        });
        for (const Msg& m : batch) deliver_(k, m.t, m.payload);
      }
      if (done_) return;
    }
  }

  /// The no-cross-links fast path: independent runs, one thread each.
  void run_detached_until_idle() {
    std::vector<std::thread> pool;
    pool.reserve(sims_.size() - 1);
    for (std::size_t k = 1; k < sims_.size(); ++k) {
      pool.emplace_back([this, k] {
        try {
          sims_[k]->run_until_idle();
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex_);
          if (!first_error_) first_error_ = std::current_exception();
        }
      });
    }
    try {
      sims_[0]->run_until_idle();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    for (std::thread& t : pool) t.join();
    if (first_error_) {
      std::exception_ptr err = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(err);
    }
  }

  std::vector<Simulator*> sims_;
  TimeNs lookahead_;
  Deliver deliver_;
  std::vector<Shard> shards_;

  // Round state: written only by the barrier's completion step (every
  // other worker held), read by workers after release — the barrier is
  // the synchronization.
  TimeNs horizon_ = 0;
  bool done_ = false;
  std::uint64_t windows_ = 0;

  std::mutex error_mutex_;
  std::exception_ptr first_error_;

  SpinParkBarrier barrier_;
};

}  // namespace bneck::sim
