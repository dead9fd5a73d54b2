#include "workloads.hpp"

#include <algorithm>
#include <memory>

#include "evm/assembler.hpp"
#include "evm/contracts.hpp"
#include "evm/vm.hpp"
#include "obs/metrics.hpp"
#include "p2p/geo.hpp"
#include "p2p/topology.hpp"
#include "sim/matrix.hpp"
#include "sim/scalesim.hpp"
#include "sim/scenario.hpp"
#include "sim/txgen.hpp"

namespace perfbench {

using namespace forksim;

namespace {

/// Brackets a measured run with the process-wide trie and state-engine
/// counters.
struct CounterWindow {
  trie::TrieCounters trie0 = trie::counters();
  core::EngineCounters engine0 = core::engine_counters();

  /// Adds the work counted since the window opened to `ls`.
  void add_to(LayerStats& ls) const {
    const trie::TrieCounters& t = trie::counters();
    ls.trie.writes += t.writes - trie0.writes;
    ls.trie.node_visits += t.node_visits - trie0.node_visits;
    ls.trie.hash_recomputations +=
        t.hash_recomputations - trie0.hash_recomputations;
    const core::EngineCounters& e = core::engine_counters();
    ls.engine.root_commits_full +=
        e.root_commits_full - engine0.root_commits_full;
    ls.engine.root_commits_incremental +=
        e.root_commits_incremental - engine0.root_commits_incremental;
    ls.engine.header_cache_hits +=
        e.header_cache_hits - engine0.header_cache_hits;
    ls.engine.header_cache_misses +=
        e.header_cache_misses - engine0.header_cache_misses;
  }
};

/// CPU seconds one construction of a `T` from `args` takes; the
/// destruction is not timed.
template <typename T, typename... Args>
double time_construction(const Args&... args) {
  std::unique_ptr<T> built;
  return timed([&] { built = std::make_unique<T>(args...); }).cpu_s;
}

double histogram_sum(const obs::Snapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return h.sum;
  return 0.0;
}

void add_sched(p2p::TimedQueueProfile& into,
               const p2p::TimedQueueProfile& p) {
  into.pushes += p.pushes;
  into.pops += p.pops;
  into.cancels += p.cancels;
  into.sift_steps += p.sift_steps;
  into.max_size = std::max(into.max_size, p.max_size);
}

/// The genesis allocation ForkScenario funds every node with.
core::GenesisAlloc scenario_alloc(const sim::ForkScenario& scen) {
  core::GenesisAlloc alloc;
  for (const PrivateKey& key : scen.accounts())
    alloc.emplace_back(derive_address(key), core::ether(10000));
  return alloc;
}

/// Captures both fork sides' anchor chains (node 0 and the first ETC node).
void capture_anchors(sim::ForkScenario& scen, LayerStats& ls) {
  const core::GenesisAlloc alloc = scenario_alloc(scen);
  for (const std::size_t i : {std::size_t{0}, scen.params().nodes_eth})
    ls.chains.push_back(capture_chain(scen.node(i), alloc,
                                      scen.params().genesis_difficulty));
}

/// Every node's liveness, head hash and height.
void fold_heads(OutcomeDigest& d, sim::ForkScenario& scen) {
  for (std::size_t i = 0; i < scen.node_count(); ++i) {
    const sim::FullNode& node = scen.node(i);
    d.add(node.running());
    d.add(node.chain().head().hash());
    d.add(std::uint64_t{node.chain().height()});
  }
}

// ---- fork_matrix -----------------------------------------------------------

/// Extra timed constructions of each cell's runner in an untraced pass.
constexpr int kExtraCellSetups = 2;

/// The A9 composed-failure grid (bench/ablate_matrix): 3 byzantine x 3
/// offline x 2 partitioned x 2 duration = 36 cells of 9 full nodes, every
/// crash a cold restart off a corrupting disk.
sim::MatrixParams matrix_params(std::uint64_t seed) {
  sim::MatrixParams mp;
  sim::ChaosParams& cp = mp.base;
  cp.scenario.nodes_eth = 6;
  cp.scenario.nodes_etc = 3;
  cp.scenario.miners_per_side_eth = 2;
  cp.scenario.miners_per_side_etc = 1;
  cp.scenario.total_hashrate = 3e4;
  cp.scenario.etc_hashpower_fraction = 0.25;
  cp.scenario.fork_block = 8;
  cp.scenario.seed = seed;
  cp.extra_loss = 0.0;
  cp.duplicate_prob = 0.0;
  cp.reorder_prob = 0.0;
  cp.restart_prob = 1.0;
  cp.mean_downtime = 60.0;
  cp.cold_restart_prob = 1.0;
  cp.storage_faults.torn_write_prob = 0.3;
  cp.storage_faults.tail_truncate_prob = 0.3;
  cp.storage_faults.bit_rot_prob = 0.2;
  cp.mining_duration = 1000.0;
  cp.settle_deadline = 800.0;
  cp.probe.interval = 5.0;
  cp.probe.quorum_fraction = 0.6;
  cp.probe.max_head_lag = 2;
  cp.probe.heal_sustain = 30.0;
  mp.failure_start = 300.0;
  mp.axes.byzantine_share = {0.0, 0.1, 0.25};
  mp.axes.offline_share = {0.0, 0.2, 0.4};
  mp.axes.partitioned_share = {0.0, 0.5};
  mp.axes.partition_duration = {30.0, 60.0};
  return mp;
}

/// Cell `index` of the grid with its own scenario seed. A9 runs every cell
/// on one seed so the heatmap isolates the axes; here each cell draws an
/// independent seed from the workload seed, so a run averages 36 failure
/// episodes instead of 36 variations of one.
sim::ChaosParams cell_params(const sim::MatrixParams& mp,
                             const sim::MatrixCellSpec& spec,
                             std::size_t index) {
  sim::ChaosParams cp = sim::compose_cell(mp, spec);
  cp.scenario.seed = mp.base.scenario.seed * 100 + index;
  return cp;
}

void fold_cell(OutcomeDigest& d, const sim::MatrixCellSpec& spec,
               const sim::ChaosReport& r, sim::ForkScenario& scen) {
  for (const double axis : {spec.byzantine_share, spec.offline_share,
                            spec.partitioned_share, spec.partition_duration})
    d.add(axis);
  d.add(r.converged);
  d.add(r.time_to_convergence);
  d.add(std::uint64_t{r.height_eth});
  d.add(std::uint64_t{r.height_etc});
  d.add(std::uint64_t{r.survivors_eth});
  d.add(std::uint64_t{r.survivors_etc});
  d.add(std::uint64_t{r.crashes});
  d.add(std::uint64_t{r.restarts});
  d.add(std::uint64_t{r.cold_restarts});
  const sim::AvailabilityStats& a = r.availability;
  for (const double v : {a.pre, a.during_failure, a.post, a.degraded_seconds,
                         a.time_to_heal})
    d.add(v);
  d.add(std::uint64_t{a.samples});
  fold_heads(d, scen);
}

Workload fork_matrix(std::uint64_t seed) {
  const sim::MatrixParams mp = matrix_params(seed);
  const std::vector<sim::MatrixCellSpec> specs = sim::MatrixRunner(mp).specs();
  Workload w;
  w.name = "fork_matrix";
  w.describe = [mp, cells = specs.size()](Report& r) {
    const sim::ChaosParams& cp = mp.base;
    r.param("cells", static_cast<double>(cells));
    r.param("nodes_per_cell", static_cast<double>(cp.scenario.nodes_eth +
                                                  cp.scenario.nodes_etc));
    r.param("mining_duration_s", cp.mining_duration);
    r.param("settle_deadline_s", cp.settle_deadline);
    r.param("failure_start_s", mp.failure_start);
    r.param("cold_restart_prob", cp.cold_restart_prob);
  };
  w.pass = [mp, specs](SpanRecorder& spans, LayerStats* ls) {
    Pass p;
    p.setup_s.resize(specs.size());
    OutcomeDigest digest;
    bool evm_idle = true, replays_clean = true;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const sim::MatrixCellSpec& spec = specs[i];
      auto cell_span = spans.scope("sim.cell");
      std::unique_ptr<sim::ChaosRunner> runner;
      {
        auto span = spans.scope("sim.setup");
        const sim::ChaosParams cp = cell_params(mp, spec, i);
        for (int k = 0; ls == nullptr && k < kExtraCellSetups; ++k)
          p.setup_s[i].push_back(time_construction<sim::ChaosRunner>(cp));
        p.setup_s[i].push_back(
            timed([&] { runner = std::make_unique<sim::ChaosRunner>(cp); })
                .cpu_s);
      }
      sim::ChaosReport rep;
      Timing run;
      {
        auto span = spans.scope("sim.run");
        const CounterWindow window;
        run = timed([&] { rep = runner->run(); });
        if (ls != nullptr) window.add_to(*ls);
      }
      sim::ForkScenario& scen = runner->scenario();
      const obs::Snapshot& t = rep.telemetry;
      p.units.push_back({run, scen.loop().now(),
                         scen.loop().scheduler_profile().pops,
                         t.counter_value("node.blocks_imported")});
      ++p.attempted;
      if (!rep.converged) ++p.failed;
      evm_idle = evm_idle && t.counter_value("evm.ops") == 0;
      replays_clean = replays_clean && rep.store_replay_rejected == 0;
      fold_cell(digest, spec, rep, scen);
      if (ls != nullptr) {
        ls->cell_s.push_back(run.host_s);
        ls->imports += t.counter_value("node.blocks_imported");
        ls->evm_txs += t.counter_value("evm.txs_executed");
        ls->evm_ops += t.counter_value("evm.ops");
        ls->evm_failed += t.counter_value("evm.txs_failed");
        ls->evm_gas += histogram_sum(t, "evm.gas_used");
        ls->db_appends += rep.store_appends;
        ls->db_records_scanned += rep.store_records_scanned;
        ls->db_blocks_replayed += rep.store_blocks_replayed;
        ls->messages += t.counter_value("net.messages_delivered");
        ls->message_bytes += t.counter_value("net.bytes_sent");
        add_sched(ls->sched, scen.loop().scheduler_profile());
        auto span = spans.scope("capture");
        capture_anchors(scen, *ls);
      }
    }
    p.digest = digest.finish();
    p.checks = {{"fork_matrix_executes_no_evm_ops", evm_idle},
                {"store_replay_rejects_nothing", replays_clean}};
    if (ls != nullptr) ls->run_s = p.run_s();
    return p;
  };
  return w;
}

// ---- fork_txload -----------------------------------------------------------

/// Open-loop transaction load through the default 20-node fork scenario:
/// transfers and counter-contract calls half and half, exponential
/// inter-arrival in sim time, entering at every node. The rate stays below
/// pool saturation so rejected txs measure the program, not an overload.
struct TxloadParams {
  sim::ScenarioParams scenario;
  double tx_interval = 0.5;        // mean sim-seconds between txs
  double contract_fraction = 0.5;
  double deploy_deadline = 120.0;  // sim time the counter must be mined by
  double generate_until = 420.0;   // generator stops here...
  double mine_until = 450.0;       // ...miners here, so pools drain
  double settle_limit = 300.0;     // then each side must agree on a head
};

/// The workload seed draws the transaction stream (senders, entry nodes,
/// gaps, transfer or call, gas price). The network and the miners keep the
/// scenario's default seed, so every seed loads the same block history.
TxloadParams txload_params() {
  TxloadParams tp;
  tp.scenario.funded_accounts = 64;
  return tp;
}

/// Registry first, so it outlives the nodes holding handles into it.
struct TxloadWorld {
  explicit TxloadWorld(const sim::ScenarioParams& params) : scenario(params) {
    scenario.attach_telemetry(registry);
  }
  obs::Registry registry;
  sim::ForkScenario scenario;
};

bool side_agrees(sim::ForkScenario& scen, bool eth_side) {
  std::optional<Hash256> head;
  for (std::size_t i = 0; i < scen.node_count(); ++i) {
    if (scen.is_eth_node(i) != eth_side) continue;
    const core::Blockchain& chain = scen.node(i).chain();
    const Hash256 h = *chain.canonical_hash(chain.height());
    if (head && *head != h) return false;
    head = h;
  }
  return true;
}

/// Counter calls the chain should have applied: successful calls to
/// `counter` after the deploy tx, in canonical order.
std::uint64_t counter_calls(const core::Blockchain& chain,
                            const Hash256& deploy, const Address& counter) {
  bool deployed = false;
  std::uint64_t calls = 0;
  for (core::BlockNumber n = 1; n <= chain.height(); ++n) {
    const core::Block& block = *chain.block_by_number(n);
    const auto& receipts = *chain.receipts_of(block.hash());
    for (std::size_t i = 0; i < block.transactions.size(); ++i) {
      const core::Transaction& tx = block.transactions[i];
      if (tx.hash() == deploy) deployed = true;
      else if (deployed && tx.to == counter && receipts[i].success) ++calls;
    }
  }
  return calls;
}

Workload fork_txload(std::uint64_t seed) {
  const TxloadParams tp = txload_params();
  Workload w;
  w.name = "fork_txload";
  w.describe = [tp](Report& r) {
    r.param("nodes_eth", static_cast<double>(tp.scenario.nodes_eth));
    r.param("nodes_etc", static_cast<double>(tp.scenario.nodes_etc));
    r.param("funded_accounts",
            static_cast<double>(tp.scenario.funded_accounts));
    r.param("fork_block", static_cast<double>(tp.scenario.fork_block));
    r.param("tx_interval_s", tp.tx_interval);
    r.param("contract_fraction", tp.contract_fraction);
    r.param("generate_until_s", tp.generate_until);
    r.param("mine_until_s", tp.mine_until);
  };
  w.pass = [tp, seed](SpanRecorder& spans, LayerStats* ls) {
    Pass p;
    std::unique_ptr<TxloadWorld> world;
    {
      auto span = spans.scope("sim.setup");
      p.setup_s = {{timed([&] {
                      world = std::make_unique<TxloadWorld>(tp.scenario);
                    }).cpu_s}};
    }
    sim::ForkScenario& scen = world->scenario;

    const PrivateKey& deployer = scen.accounts().front();
    const core::Transaction deploy = core::make_transaction(
        deployer, 0, std::nullopt, core::Wei(0), std::nullopt, core::gwei(20),
        1'000'000, evm::wrap_as_init_code(evm::contracts::counter_runtime()));
    const Address counter =
        evm::Vm::create_address(derive_address(deployer), 0);
    std::vector<sim::FullNode*> entries;
    for (std::size_t i = 0; i < scen.node_count(); ++i)
      entries.push_back(&scen.node(i));
    sim::TxGenerator::Options options;
    options.mean_interval = tp.tx_interval;
    options.contract_fraction = tp.contract_fraction;
    options.contract_target = counter;
    sim::TxGenerator gen(
        entries,
        std::vector<PrivateKey>(scen.accounts().begin() + 1,
                                scen.accounts().end()),
        Rng(seed ^ 0x74786c6f6164ull), options);
    const auto deployed = [&](std::size_t node) {
      const core::Account* acct =
          scen.node(node).chain().head_state().account(counter);
      return acct != nullptr && acct->is_contract();
    };

    auto& loop = scen.loop();
    obs::Registry& reg = world->registry;
    // the run advances in 5 sim-s slices; every five make one unit, and an
    // untraced pass times one more construction after each unit
    Unit unit;
    int slices = 0;
    const auto close_unit = [&] {
      if (slices == 0) return;
      p.units.push_back(unit);
      unit = Unit{};
      slices = 0;
      if (ls == nullptr)
        p.setup_s[0].push_back(time_construction<TxloadWorld>(tp.scenario));
    };
    const auto slice = [&] {
      const double sim0 = loop.now();
      const std::uint64_t pops0 = loop.scheduler_profile().pops;
      const std::uint64_t imports0 = reg.counter_value("node.blocks_imported");
      const Timing t = timed([&] { scen.run_for(5.0); });
      unit.time.host_s += t.host_s;
      unit.time.cpu_s += t.cpu_s;
      unit.sim_s += loop.now() - sim0;
      unit.events += loop.scheduler_profile().pops - pops0;
      unit.imports += reg.counter_value("node.blocks_imported") - imports0;
      if (++slices == 5) close_unit();
    };
    const CounterWindow window;
    const auto run_start = Clock::now();
    double pre_s = 0.0, fork_s = 0.0, drain_s = 0.0;
    bool deploy_accepted = false;
    {
      auto span = spans.scope("sim.phase_pre");
      const auto start = Clock::now();
      deploy_accepted = scen.node(0).submit_transaction(deploy) ==
                        core::PoolAddResult::kAdded;
      while (!deployed(0) && loop.now() < tp.deploy_deadline)
        slice();
      gen.start();
      while (scen.best_height_eth() < tp.scenario.fork_block &&
             loop.now() < tp.generate_until)
        slice();
      pre_s = seconds_since(start);
    }
    {
      auto span = spans.scope("sim.phase_fork");
      const auto start = Clock::now();
      while (loop.now() < tp.generate_until) slice();
      gen.stop();
      fork_s = seconds_since(start);
    }
    bool converged = false;
    {
      auto span = spans.scope("sim.phase_drain");
      const auto start = Clock::now();
      while (loop.now() < tp.mine_until) slice();
      for (std::size_t m = 0; m < scen.miner_count(); ++m)
        scen.miner(m).stop();
      const double settle_end = loop.now() + tp.settle_limit;
      while (!(converged =
                   side_agrees(scen, true) && side_agrees(scen, false)) &&
             loop.now() < settle_end)
        slice();
      drain_s = seconds_since(start);
    }
    close_unit();
    const double run_s = seconds_since(run_start);
    if (ls != nullptr) window.add_to(*ls);
    // a snapshot runs the collectors that mirror the per-opcode EVM tallies
    const obs::Snapshot t = world->registry.snapshot();
    p.attempted = 1 + gen.submitted() + gen.rejected();
    p.failed = (deploy_accepted ? 0 : 1) + gen.rejected();

    // outcome: heads, per-side counter values, and the distinct txs the two
    // sides' canonical chains include
    const std::size_t anchors[2] = {0, tp.scenario.nodes_eth};
    OutcomeDigest digest;
    fold_heads(digest, scen);
    bool counters_match = true, deployed_both = true;
    std::vector<Hash256> included;
    for (const std::size_t a : anchors) {
      const core::Blockchain& chain = scen.node(a).chain();
      const U256 value = chain.head_state().storage_at(counter, U256(0));
      const std::uint64_t calls = counter_calls(chain, deploy.hash(), counter);
      counters_match = counters_match && value == U256(calls);
      deployed_both = deployed_both && deployed(a);
      digest.add(value.as_u64());
      for (core::BlockNumber n = 1; n <= chain.height(); ++n)
        for (const core::Transaction& tx :
             chain.block_by_number(n)->transactions)
          included.push_back(tx.hash());
    }
    std::sort(included.begin(), included.end());
    included.erase(std::unique(included.begin(), included.end()),
                   included.end());
    digest.add(std::uint64_t{gen.submitted()});
    digest.add(std::uint64_t{gen.rejected()});
    digest.add(std::uint64_t{included.size()});
    digest.add(converged);
    p.digest = digest.finish();
    p.checks = {{"counter_deployed_on_both_sides", deployed_both},
                {"counter_value_equals_mined_calls", counters_match},
                {"each_side_agrees_on_one_head", converged},
                {"included_txs_were_accepted",
                 included.size() <= gen.submitted() + 1}};

    if (ls != nullptr) {
      ls->imports = t.counter_value("node.blocks_imported");
      ls->txs_generated = p.attempted;
      ls->txs_rejected = p.failed;
      ls->txs_included = included.size();
      ls->evm_txs = t.counter_value("evm.txs_executed");
      ls->evm_ops = t.counter_value("evm.ops");
      ls->evm_failed = t.counter_value("evm.txs_failed");
      ls->evm_gas = histogram_sum(t, "evm.gas_used");
      ls->messages = t.counter_value("net.messages_delivered");
      ls->message_bytes = t.counter_value("net.bytes_sent");
      ls->sched = loop.scheduler_profile();
      ls->phase_pre_s = pre_s;
      ls->phase_fork_s = fork_s;
      ls->phase_drain_s = drain_s;
      ls->run_s = run_s;
      auto span = spans.scope("capture");
      capture_anchors(scen, *ls);
    }
    return p;
  };
  return w;
}

// ---- scale_partition -------------------------------------------------------

/// 5000 block-granular nodes on a degree-16 uniform mesh with the
/// six-continent latency profile; a seeded half of the network is cut off
/// for the middle 600 s of an 1800 s run. Four PDES shards. The workload
/// seed draws the mesh and the region placement; the mining race, the cut
/// membership and the per-hop jitter keep the engine's seed 1, so every
/// seed replays the same block history on a different network.
sim::ScaleParams scale_params(std::uint64_t seed) {
  sim::ScaleParams sp;
  sp.nodes = 5000;
  sp.topology.degree = 16;
  sp.topology.seed = seed;
  sp.geo = p2p::GeoParams::internet();
  sp.geo.seed = seed;
  sp.miners = 24;
  sp.block_interval = 13.0;
  sp.duration = 1800.0;
  sp.cut_start = 600.0;
  sp.cut_duration = 600.0;
  sp.cut_fraction = 0.5;
  sp.num_shards = 4;
  return sp;
}

Workload scale_partition(std::uint64_t seed) {
  const sim::ScaleParams sp = scale_params(seed);
  Workload w;
  w.name = "scale_partition";
  w.describe = [sp](Report& r) {
    r.param("nodes", static_cast<double>(sp.nodes));
    r.param("degree", static_cast<double>(sp.topology.degree));
    r.param("miners", static_cast<double>(sp.miners));
    r.param("duration_s", sp.duration);
    r.param("cut_start_s", sp.cut_start);
    r.param("cut_duration_s", sp.cut_duration);
    r.param("cut_fraction", sp.cut_fraction);
    r.param("shards", static_cast<double>(sp.num_shards));
  };
  w.pass = [sp](SpanRecorder& spans, LayerStats* ls) {
    Pass p;
    std::unique_ptr<sim::ScaleSim> sim;
    {
      auto span = spans.scope("sim.setup");
      p.setup_s = {{timed([&] {
                      sim = std::make_unique<sim::ScaleSim>(sp);
                    }).cpu_s}};
    }
    const CounterWindow window;
    sim::ScaleReport rep;
    Timing run;
    {
      auto span = spans.scope("sim.run");
      run = timed([&] { rep = sim->run(); });
    }
    LayerStats work;
    window.add_to(work);
    p.units.push_back({run, sp.duration, rep.events, rep.deliveries});
    p.attempted = 1;
    p.failed = rep.converged ? 0 : 1;
    OutcomeDigest digest;
    digest.add(rep.fingerprint);
    digest.add(rep.converged);
    digest.add(std::uint64_t{rep.distinct_heads});
    digest.add(rep.canonical_height);
    digest.add(rep.blocks_mined);
    digest.add(rep.stale_blocks);
    p.digest = digest.finish();
    p.checks = {{"scale_run_converges", rep.converged},
                {"partition_cut_dropped_traffic", rep.cut_dropped > 0},
                {"scale_run_hashes_no_trie_nodes",
                 work.trie.hash_recomputations == 0 && work.trie.writes == 0},
                {"scale_run_commits_no_state_roots",
                 work.engine.root_commits_full +
                         work.engine.root_commits_incremental ==
                     0}};
    if (ls != nullptr) {
      ls->imports = rep.deliveries;
      ls->trie = work.trie;
      ls->engine = work.engine;
      // every delivery event but a miner's own block is a gossip message
      const std::uint64_t arrivals = rep.deliveries + rep.dup_suppressed;
      ls->messages = arrivals - rep.blocks_mined;
      ls->sched = rep.scheduler;
      ls->dup_share = static_cast<double>(rep.dup_suppressed) /
                      static_cast<double>(arrivals);
      ls->cross_shard_share = static_cast<double>(rep.cross_shard_messages) /
                              static_cast<double>(ls->messages);
      ls->events_per_epoch = rep.epochs > 0
                                 ? static_cast<double>(rep.events) /
                                       static_cast<double>(rep.epochs)
                                 : 0.0;
      ls->run_s = run.host_s;
      ls->shard_busy_share =
          run.cpu_s / (run.host_s * static_cast<double>(sp.num_shards));
      std::vector<double> topo_s, geo_s;
      for (int rep_i = 0; rep_i < 3; ++rep_i) {
        {
          auto span = spans.scope("p2p.topology_build");
          const auto start = Clock::now();
          const p2p::Topology topo =
              p2p::generate_topology(sp.topology, sp.nodes);
          topo_s.push_back(seconds_since(start));
        }
        {
          auto span = spans.scope("p2p.geo_build");
          const auto start = Clock::now();
          const p2p::GeoModel geo(sp.geo, sp.nodes);
          geo_s.push_back(seconds_since(start));
        }
      }
      ls->topology_build_s = median_of(topo_s);
      ls->geo_build_s = median_of(geo_s);
    }
    return p;
  };
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "fork_matrix") return fork_matrix(seed);
  if (name == "fork_txload") return fork_txload(seed);
  if (name == "scale_partition") return scale_partition(seed);
  return {};
}

}  // namespace perfbench
