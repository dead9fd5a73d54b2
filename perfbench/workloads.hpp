// The benchmark's three workloads. Each is a batch job: a pass builds the
// workload from the seed (timed as set-up), runs it to completion (timed as
// the measured run), and folds its simulated outcome into a digest.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/state.hpp"
#include "layers.hpp"
#include "p2p/scheduler.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "trie/trie.hpp"

namespace perfbench {

/// One timed stretch of a measured run and the work done in it: a matrix
/// cell, five 5 sim-s slices of fork_txload, or a whole scale run.
struct Unit {
  Timing time;
  double sim_s = 0.0;           // simulated seconds covered
  std::uint64_t events = 0;     // scheduler pops
  std::uint64_t imports = 0;    // block imports (scale: first-sight deliveries)
};

/// What one pass measured.
struct Pass {
  /// Timed constructions in CPU seconds, per set-up piece (a matrix cell's
  /// runner; the whole world on the other workloads). An untraced pass also
  /// times extra constructions between its units, so set-up is sampled
  /// across the run rather than in one burst.
  std::vector<std::vector<double>> setup_s;
  /// The measured run, in order. Every pass of one seed does the same work
  /// unit for unit.
  std::vector<Unit> units;
  std::uint64_t attempted = 0;   // cells, generated txs, or scale runs
  std::uint64_t failed = 0;
  forksim::Hash256 digest;
  double peak_rss_mb = 0.0;      // peak resident set during the pass
  /// Correctness checks asserted on this pass (name, passed).
  std::vector<std::pair<std::string, bool>> checks;

  /// Host seconds of the measured run.
  double run_s() const {
    double s = 0.0;
    for (const Unit& u : units) s += u.time.host_s;
    return s;
  }
};

/// Work counts and per-layer timings of a traced pass. Every field a
/// workload does not exercise stays 0 and is reported as 0.
struct LayerStats {
  std::uint64_t imports = 0;
  // deltas over the measured runs only (not set-up, capture or checks);
  // trie reads and the engine's journal counts are not collected
  forksim::trie::TrieCounters trie;
  forksim::core::EngineCounters engine;
  std::uint64_t txs_generated = 0;
  std::uint64_t txs_rejected = 0;
  std::uint64_t txs_included = 0;
  std::uint64_t evm_txs = 0;
  std::uint64_t evm_ops = 0;
  std::uint64_t evm_failed = 0;
  double evm_gas = 0.0;
  std::uint64_t db_appends = 0;
  std::uint64_t db_records_scanned = 0;
  std::uint64_t db_blocks_replayed = 0;
  std::uint64_t messages = 0;
  std::uint64_t message_bytes = 0;
  forksim::p2p::TimedQueueProfile sched;
  double topology_build_s = 0.0;
  double geo_build_s = 0.0;
  std::vector<double> cell_s;  // fork_matrix: run() time per cell
  double phase_pre_s = 0.0;    // fork_txload phases
  double phase_fork_s = 0.0;
  double phase_drain_s = 0.0;
  double dup_share = 0.0;      // scale_partition
  double cross_shard_share = 0.0;
  double events_per_epoch = 0.0;
  double shard_busy_share = 0.0;  // CPU seconds / (wall seconds x shards)
  double run_s = 0.0;
  /// Canonical chains captured for the layer probes (fork_* only).
  std::vector<CapturedChain> chains;
};

struct Workload {
  std::string name;
  /// Adds the workload's parameters to the report.
  std::function<void(Report&)> describe;
  /// One full pass. With `layers` non-null the pass also records its work
  /// counts and captures its chains.
  std::function<Pass(SpanRecorder&, LayerStats*)> pass;
};

/// The workload called `name` with inputs drawn from `seed`, or a Workload
/// with an empty name when there is none.
Workload make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
