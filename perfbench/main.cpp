// forkbench: the forksim benchmark binary.
//
//   forkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//
// Runs one workload as repeated passes of identical work for about --seconds
// of host time (at least two passes). Each pass is split into the
// same units (a matrix cell, 25 sim-s of fork_txload, a whole scale run); a
// rate is one pass's work over the sum of each unit's median time across
// the passes. Set-up is likewise the sum over set-up pieces (a matrix
// cell's runner, the whole world otherwise) of each piece's median
// construction time, sampled between the units of every untraced pass.
// Every time behind an end-to-end metric is process CPU time (see
// process_cpu_s in report.hpp); wall time is reported beside it.
// With --trace 1 the first half of the time runs untraced and the second
// half traced: the traced passes record host-time spans and per-layer work
// counts, the captured chains go through the per-layer probes, and the
// spans are written as Chrome trace JSON to --trace-file. Every pass folds
// its simulated outcome into a digest; all passes must agree. The last
// stdout line is one JSON object that perfbench/run.py checks and reduces
// to the benchmark result. Exit status is 0 only when every check passed.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hpp"

using namespace perfbench;
namespace core = forksim::core;

namespace {

// passes per untraced run at least: two, so the digest check compares runs
constexpr std::size_t kMinPasses = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--trace-file") a.trace_file = val;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// CPU seconds one pass's work takes: the sum over units of the unit's
/// median time across the passes. Every pass of a seed runs the same units,
/// so this weighs each unit by its cost. With three or more passes a slow
/// stretch of the host that hits one repeat of a unit is outvoted by the
/// others; with two the median is their mean.
double typical_run_s(const std::vector<Pass>& passes) {
  const std::size_t units = passes.front().units.size();
  double total = 0.0;
  for (std::size_t u = 0; u < units; ++u) {
    std::vector<double> times;
    // a pass that split differently ran different work; its digest check
    // fails the run, and its times are left out here
    for (const Pass& p : passes)
      if (p.units.size() == units) times.push_back(p.units[u].time.cpu_s);
    total += median_of(std::move(times));
  }
  return total;
}

/// Set-up CPU seconds: the sum over set-up pieces of the piece's median
/// construction time across all the passes' samples.
double typical_setup_s(const std::vector<Pass>& passes) {
  double total = 0.0;
  for (std::size_t k = 0; k < passes.front().setup_s.size(); ++k) {
    std::vector<double> times;
    for (const Pass& p : passes)
      if (k < p.setup_s.size())
        times.insert(times.end(), p.setup_s[k].begin(), p.setup_s[k].end());
    total += median_of(std::move(times));
  }
  return total;
}

/// A pass's total of `work` per typical CPU second.
template <typename Work>
double rate_of(const std::vector<Pass>& passes, Work work) {
  double total = 0.0;
  for (const Unit& u : passes.front().units)
    total += static_cast<double>(work(u));
  return ratio(total, typical_run_s(passes));
}

double sim_rate(const std::vector<Pass>& passes) {
  return rate_of(passes, [](const Unit& u) { return u.sim_s; });
}

/// Runs passes until `budget` host seconds have gone, at least `min_passes`.
std::vector<Pass> run_passes(const Workload& w, double budget,
                             std::size_t min_passes, SpanRecorder& spans,
                             LayerStats* first_layers,
                             std::uint32_t first_run_id) {
  std::vector<Pass> passes;
  const auto start = Clock::now();
  do {
    spans.set_run(first_run_id + static_cast<std::uint32_t>(passes.size()));
    auto span = spans.scope("workload.pass");
    reset_peak_rss();
    passes.push_back(w.pass(spans, passes.empty() ? first_layers : nullptr));
    passes.back().peak_rss_mb = peak_rss_mb();
  } while (passes.size() < min_passes || seconds_since(start) < budget);
  return passes;
}

void add_layer_metrics(Report& r, const LayerStats& ls,
                       double tracing_overhead) {
  const auto per_import = [&](double v) {
    return ratio(v, static_cast<double>(ls.imports));
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  r.metric("trie.hash_recomputations_per_import",
           per_import(d(ls.trie.hash_recomputations)), "count");
  r.metric("trie.node_visits_per_import", per_import(d(ls.trie.node_visits)),
           "count");
  r.metric("trie.writes_per_import", per_import(d(ls.trie.writes)), "count");

  const core::EngineCounters& e = ls.engine;
  const double commits = d(e.root_commits_full + e.root_commits_incremental);
  r.metric("core.root_commits_full", d(e.root_commits_full), "count");
  r.metric("core.root_commits_incremental", d(e.root_commits_incremental),
           "count");
  r.metric("core.root_incremental_share",
           ratio(d(e.root_commits_incremental), commits), "ratio");
  r.metric("core.header_cache_hit_share",
           ratio(d(e.header_cache_hits),
                 d(e.header_cache_hits + e.header_cache_misses)),
           "ratio");
  const double accepted = d(ls.txs_generated - ls.txs_rejected);
  r.metric("core.txpool_accept_share", ratio(accepted, d(ls.txs_generated)),
           "ratio");
  r.metric("core.tx_inclusion_share", ratio(d(ls.txs_included), accepted),
           "ratio");

  r.metric("evm.ops_per_tx", ratio(d(ls.evm_ops), d(ls.evm_txs)), "count");
  r.metric("evm.gas_per_tx", ratio(ls.evm_gas, d(ls.evm_txs)), "gas");
  r.metric("evm.txs_failed_share", ratio(d(ls.evm_failed), d(ls.evm_txs)),
           "ratio");
  r.metric("evm.txs_per_s", ratio(d(ls.evm_txs), ls.run_s), "1/s");

  r.metric("db.appends", d(ls.db_appends), "count");
  r.metric("db.records_scanned", d(ls.db_records_scanned), "count");
  r.metric("db.blocks_replayed", d(ls.db_blocks_replayed), "count");

  r.metric("p2p.messages_per_import", per_import(d(ls.messages)), "count");
  r.metric("p2p.bytes_per_import", per_import(d(ls.message_bytes)), "B");
  r.metric("p2p.sched_pops", d(ls.sched.pops), "count");
  r.metric("p2p.sched_sift_per_pop",
           ratio(d(ls.sched.sift_steps), d(ls.sched.pops)), "count");
  r.metric("p2p.sched_max_size", d(ls.sched.max_size), "count");
  r.metric("p2p.sched_cancels", d(ls.sched.cancels), "count");
  r.metric("p2p.topology_build_s", ls.topology_build_s, "s");
  r.metric("p2p.geo_build_s", ls.geo_build_s, "s");

  r.metric("sim.cell_p50_s", median_of(ls.cell_s), "s");
  r.metric("sim.cell_max_s",
           ls.cell_s.empty() ? 0.0
                             : *std::max_element(ls.cell_s.begin(),
                                                 ls.cell_s.end()),
           "s");
  r.metric("sim.phase_pre_s", ls.phase_pre_s, "s");
  r.metric("sim.phase_fork_s", ls.phase_fork_s, "s");
  r.metric("sim.phase_drain_s", ls.phase_drain_s, "s");
  r.metric("sim.dup_share", ls.dup_share, "ratio");
  r.metric("sim.cross_shard_share", ls.cross_shard_share, "ratio");
  r.metric("sim.events_per_epoch", ls.events_per_epoch, "count");
  r.metric("sim.shard_busy_share", ls.shard_busy_share, "ratio");
  r.metric("sim.tracing_overhead", tracing_overhead, "ratio");
}

/// The exact counts behind the per-layer ratios, each with its base.
void print_counts(std::ostream& os, const LayerStats& ls) {
  const core::EngineCounters& e = ls.engine;
  os << "per-layer counts over the first traced pass:\n"
     << "  trie: " << ls.trie.hash_recomputations << " node hashes, "
     << ls.trie.node_visits << " node visits, " << ls.trie.writes
     << " writes over " << ls.imports << " imports\n"
     << "  core: " << e.root_commits_incremental << " of "
     << e.root_commits_full + e.root_commits_incremental
     << " root commits incremental; " << e.header_cache_hits << " of "
     << e.header_cache_hits + e.header_cache_misses
     << " header hashes from cache\n"
     << "  evm: " << ls.evm_ops << " ops, " << ls.evm_failed << " of "
     << ls.evm_txs << " tx executions failed\n"
     << "  txpool: " << ls.txs_generated - ls.txs_rejected << " of "
     << ls.txs_generated << " generated txs accepted, " << ls.txs_included
     << " included\n"
     << "  db: " << ls.db_appends << " appends, " << ls.db_records_scanned
     << " records scanned, " << ls.db_blocks_replayed << " blocks replayed\n"
     << "  p2p: " << ls.messages << " messages, " << ls.message_bytes
     << " bytes, " << ls.sched.pops << " scheduler pops\n";
}

/// How the untraced passes' CPU time compares with their wall time, and
/// their work per wall second, so a reader sees what the CPU-time rates
/// leave out: steal by other guests and, on the sharded workload, the
/// parallelism.
void print_wall_time(std::ostream& os, const std::vector<Pass>& passes) {
  double host_s = 0.0, cpu_s = 0.0, sim_s = 0.0;
  for (const Pass& p : passes)
    for (const Unit& u : p.units) {
      host_s += u.time.host_s;
      cpu_s += u.time.cpu_s;
      sim_s += u.sim_s;
    }
  os << "measured runs: " << cpu_s << " CPU s over " << host_s
     << " wall s; " << ratio(sim_s, host_s) << " sim-s per wall second\n";
}

void print_spans(std::ostream& os, const SpanRecorder& spans) {
  os << "traced spans (host seconds): name count total self\n";
  for (const SpanRecorder::Totals& t : spans.totals())
    os << "  " << t.name << " " << t.count << " " << t.total << " " << t.self
       << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: forkbench --workload <name> --seed <n> --seconds <s>"
                 " --trace <0|1> [--trace-file <path>]\n";
    return 2;
  }
  const Workload w = make_workload(args.workload, args.seed);
  if (w.name.empty()) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }

  Report r;
  r.workload = w.name;
  r.seed = args.seed;
  w.describe(r);
  std::cout << "forkbench " << w.name << " seed " << args.seed << "\n";

  SpanRecorder untraced(false);
  // a traced run's digest check also compares against its traced pass
  const std::vector<Pass> passes =
      args.trace
          ? run_passes(w, args.seconds / 2.0, 1, untraced, nullptr, 0)
          : run_passes(w, args.seconds, kMinPasses, untraced, nullptr, 0);
  const double rate = sim_rate(passes);
  r.metric("setup_s", typical_setup_s(passes), "s");
  r.metric("sim_rate", rate, "sim_s/s");
  r.metric("events_per_s",
           rate_of(passes, [](const Unit& u) { return u.events; }), "1/s");
  r.metric("imports_per_s",
           rate_of(passes, [](const Unit& u) { return u.imports; }), "1/s");

  std::vector<Pass> all = passes;
  if (args.trace) {
    SpanRecorder traced(true);
    LayerStats layers;
    const std::vector<Pass> traced_passes =
        run_passes(w, args.seconds / 2.0, 1, traced, &layers,
                   static_cast<std::uint32_t>(passes.size()));
    all.insert(all.end(), traced_passes.begin(), traced_passes.end());
    {
      traced.set_run(static_cast<std::uint32_t>(all.size()));
      auto span = traced.scope("layer_probes");
      probe_chains(layers.chains, traced, r);
    }
    add_layer_metrics(r, layers,
                      1.0 - ratio(sim_rate(traced_passes), rate));
    print_counts(std::cout, layers);
    print_spans(std::cout, traced);
    if (!args.trace_file.empty() && !traced.write_chrome_json(args.trace_file))
      r.check("trace_file_written", false);
  }

  bool digests_agree = true;
  std::vector<std::pair<std::string, bool>> checks;
  for (const Pass& p : all) {
    digests_agree = digests_agree && p.digest == all.front().digest;
    r.attempted += p.attempted;
    r.failed += p.failed;
    for (const auto& [name, ok] : p.checks) {
      auto it = std::find_if(checks.begin(), checks.end(),
                             [&](const auto& c) { return c.first == name; });
      if (it == checks.end()) checks.emplace_back(name, ok);
      else it->second = it->second && ok;
    }
  }
  for (const auto& [name, ok] : checks) r.check(name, ok);
  r.check("outcome_digest_repeats_across_passes", digests_agree);
  r.digest = all.front().digest.hex();

  const double attempted = static_cast<double>(r.attempted);
  std::vector<double> rss;
  for (const Pass& p : passes) rss.push_back(p.peak_rss_mb);
  r.metric("peak_rss_mb", median_of(rss), "MB");
  r.metric("success_share",
           ratio(attempted - static_cast<double>(r.failed), attempted),
           "ratio");
  std::cout << all.size() << " passes (" << passes.size() << " untraced)\n";
  print_wall_time(std::cout, passes);
  r.print_human(std::cout);
  r.print_json(std::cout);
  bool ok = true;
  for (const auto& c : r.checks) ok = ok && c.second;
  return ok ? 0 : 1;
}
