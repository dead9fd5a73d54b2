// Per-layer probes for the traced run: the canonical chains a full-node
// workload produced are captured after its pass, then fed back through the
// crypto, rlp, core (import), db and p2p codec layers one at a time, each
// call timed from the benchmark's side.
#pragma once

#include <vector>

#include "core/chain.hpp"
#include "report.hpp"
#include "sim/node.hpp"
#include "spans.hpp"

namespace perfbench {

/// A live node's canonical chain plus what a fresh chain needs to rebuild
/// it: the config and genesis allocation, and the head hash and state root
/// the rebuild must end on.
struct CapturedChain {
  forksim::core::ChainConfig config;
  forksim::core::GenesisAlloc alloc;
  forksim::U256 genesis_difficulty;
  forksim::Hash256 genesis_hash;
  std::vector<forksim::core::Block> blocks;  // heights 1..head
  std::vector<forksim::U256> total_difficulty;
  forksim::Hash256 head_hash;
  forksim::Hash256 state_root;
};

/// `alloc` and `genesis_difficulty` are the scenario's genesis inputs; the
/// replay check fails if they do not rebuild the node's genesis.
CapturedChain capture_chain(const forksim::sim::FullNode& node,
                            forksim::core::GenesisAlloc alloc,
                            forksim::U256 genesis_difficulty);

/// Runs every chain probe and adds its metrics (crypto.*, rlp.*,
/// core.import_*, core.imports_per_s, db.recover_ms_per_block,
/// p2p.codec_msgs_per_s) and checks to `report`. With no chains (the scale
/// workload has none) every probe metric reads 0 and no check is added.
void probe_chains(const std::vector<CapturedChain>& chains,
                  SpanRecorder& spans, Report& report);

}  // namespace perfbench
