// The four workloads.  Each fills a Report: timed passes for `seconds`
// of wall time (at least the workload's minimum), with set-up and
// verification outside the timed region.
#pragma once

#include <cstdint>

#include "report.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Multiplies the workload's default size (1.0 = the sizes in README.md).
  double size = 1.0;
  /// Runs the protocol with BneckConfig::fault_single_kick, the
  /// harness-validation mutation; the correctness gate must catch it.
  bool fault_single_kick = false;
  /// Runs every simulated link through the go-back-N ARQ layer
  /// (BneckConfig::reliable_links) on the loss-free wire: the reproducer
  /// for the spurious retransmissions that keep a lossy workload out of
  /// this benchmark (README.md).  Classic engine only.
  bool reliable_links = false;
};

/// The seed draws kInstances input instances (topology, sessions, phase
/// plans or bursts), and pass i of a run runs instance i % kInstances:
/// a run's figures cover several networks, so one network's quirks move
/// them less.  Instance 0 is drawn from the seed itself, the way
/// exp2_dynamics draws its input.
constexpr int kInstances = 4;

inline std::uint64_t instance_seed(std::uint64_t seed, int instance) {
  return seed ^ (static_cast<std::uint64_t>(instance) * 0x9E3779B97F4A7C15ULL);
}

Report run_churn(const RunOptions& opt);
Report run_churn_sharded4(const RunOptions& opt);
Report run_dense_star(const RunOptions& opt);
Report run_daemon_burst(const RunOptions& opt);

}  // namespace perfbench
