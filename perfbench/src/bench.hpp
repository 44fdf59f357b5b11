// The benchmark's workload interface.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"
#include "util/types.hpp"

namespace perfbench {

/// Per-layer metric values by name; names missing from a workload's map
/// are reported as 0 (the layer is absent from that workload).
using LayerValues = std::map<std::string, double>;

/// Per-layer metrics that are a state at the end of a round rather than a
/// count over it: reported as read after the last round, not per op.
inline constexpr const char* kStateMetrics[] = {"os.kernel.task_table",
                                                "os.kernel.live_tasks"};

/// One instance of a workload: built, warmed up, then run for one round
/// of round_ops() ops. The timed phase runs whole rounds, each on a fresh
/// instance built between rounds (untimed), so every round simulates the
/// same thing and memory stays bounded whatever the host speed.
class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;

  /// Untimed warm-up: a fixed number of ops.
  virtual void warm_up() = 0;
  /// The simulated statistics so far, as one canonical line. Taken after
  /// the warm-up and after each round, it is a pure function of the seed.
  virtual std::string witness() = 0;
  /// Snapshot counters at the start of the round.
  virtual void start_round() {}
  /// One op of the round.
  virtual void op() = 0;
  /// Output checks at the end of the round; appends one line per failure.
  /// Checks that are operations of the program in their own right (the
  /// fleet's journal replays) are counted in `attempted`, and those that
  /// fail in `failed`, with one line each in `failed_ops`.
  virtual void end_round(std::vector<std::string>& failures, u64& attempted,
                         u64& failed, std::vector<std::string>& failed_ops) = 0;
  /// Per-layer totals over the round (counts, not yet per op), from the
  /// workload's own wrappers and the program's public counters, plus the
  /// kStateMetrics.
  virtual void layer_totals(LayerValues& out) = 0;
};

/// How a workload runs: its factory, round length and tail percentile.
struct WorkloadSpec {
  std::unique_ptr<BenchWorkload> (*make)(u64 seed, Tracer& t);
  std::size_t round_ops;
  double tail_percentile;  ///< reported as op_host_ms_tail
};

const WorkloadSpec* find_workload(const std::string& name);

extern const WorkloadSpec kSyscallStorm;
extern const WorkloadSpec kSupervisedFleet;
extern const WorkloadSpec kFiCampaign;

/// FNV-1a over a canonical text: a compact equality witness.
inline u64 fnv1a(const std::string& s) {
  u64 h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
