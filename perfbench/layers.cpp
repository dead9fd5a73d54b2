#include "layers.hpp"

#include "db/blockstore.hpp"
#include "db/simdisk.hpp"
#include "evm/executor.hpp"
#include "p2p/messages.hpp"
#include "support/stats.hpp"

namespace perfbench {

using namespace forksim;

namespace {

// Each throughput probe repeats its loop until this much host time has
// passed, so a short chain still gives a rate well above timer resolution.
constexpr double kMinProbeSeconds = 0.15;
constexpr std::size_t kMinImportSamples = 1000;

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// Calls `pass` (which returns the units it processed) until
/// kMinProbeSeconds have passed; returns units per second.
template <typename Pass>
double rate_of(Pass&& pass) {
  double units = 0.0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    units += pass();
    elapsed = seconds_since(start);
  } while (elapsed < kMinProbeSeconds);
  return units / elapsed;
}

struct ReplayStats {
  std::vector<double> import_ms;
  double total_s = 0.0;
  bool faithful = true;
};

/// Re-imports each captured chain into a fresh Blockchain, timing every
/// Blockchain::import. The rebuild must end on the live head hash and state
/// root, or the probe describes a different chain than the workload ran.
ReplayStats replay(const std::vector<CapturedChain>& chains,
                   SpanRecorder& spans) {
  ReplayStats out;
  evm::EvmExecutor executor;
  std::size_t blocks = 0;
  for (const CapturedChain& c : chains) blocks += c.blocks.size();
  if (blocks == 0) return out;
  // whole replays, repeated until p99 has kMinImportSamples / 100 samples
  // beyond it
  const std::size_t rounds = (kMinImportSamples + blocks - 1) / blocks;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (const CapturedChain& c : chains) {
      auto chain_span = spans.scope("core.replay_chain");
      core::Blockchain fresh(c.config, executor, c.alloc, 0,
                             c.genesis_difficulty);
      bool ok = fresh.genesis().hash() == c.genesis_hash;
      for (const core::Block& block : c.blocks) {
        auto span = spans.scope("core.import");
        const auto start = Clock::now();
        const core::ImportOutcome outcome = fresh.import(block);
        const double s = seconds_since(start);
        out.import_ms.push_back(s * 1e3);
        out.total_s += s;
        ok = ok && outcome.result == core::ImportResult::kImported;
      }
      ok = ok && fresh.head().hash() == c.head_hash &&
           fresh.head_state().root() == c.state_root;
      out.faithful = out.faithful && ok;
    }
  }
  return out;
}

}  // namespace

CapturedChain capture_chain(const sim::FullNode& node,
                            core::GenesisAlloc alloc,
                            U256 genesis_difficulty) {
  const core::Blockchain& chain = node.chain();
  CapturedChain c;
  c.config = chain.config();
  c.alloc = std::move(alloc);
  c.genesis_difficulty = genesis_difficulty;
  c.genesis_hash = chain.genesis().hash();
  for (core::BlockNumber n = 1; n <= chain.height(); ++n) {
    const core::Block& block = *chain.block_by_number(n);
    c.blocks.push_back(block);
    c.total_difficulty.push_back(chain.total_difficulty_of(block.hash()));
  }
  c.head_hash = chain.head().hash();
  c.state_root = chain.head_state().root();
  return c;
}

void probe_chains(const std::vector<CapturedChain>& chains,
                  SpanRecorder& spans, Report& report) {
  // every header and tx encoding, with the hash it must produce
  std::vector<Bytes> hash_inputs;
  std::vector<Hash256> expected;
  std::vector<const core::Block*> blocks;
  std::vector<const U256*> tds;
  for (const CapturedChain& c : chains) {
    for (std::size_t i = 0; i < c.blocks.size(); ++i) {
      blocks.push_back(&c.blocks[i]);
      tds.push_back(&c.total_difficulty[i]);
      hash_inputs.push_back(c.blocks[i].header.encode());
      expected.push_back(c.blocks[i].hash());
      for (const core::Transaction& tx : c.blocks[i].transactions) {
        hash_inputs.push_back(tx.encode());
        expected.push_back(tx.hash());
      }
    }
  }
  const bool have = !blocks.empty();

  double keccak_rate = 0.0;
  if (have) {
    auto span = spans.scope("crypto.keccak");
    bool matches = true;
    keccak_rate = rate_of([&] {
      double bytes = 0.0;
      for (std::size_t i = 0; i < hash_inputs.size(); ++i) {
        matches =
            matches && keccak256(BytesView(hash_inputs[i])) == expected[i];
        bytes += static_cast<double>(hash_inputs[i].size());
      }
      return bytes;
    });
    report.check("keccak_reproduces_header_and_tx_hashes", matches);
  }
  report.metric("crypto.keccak_mb_per_s", keccak_rate / 1e6, "MB/s");

  std::vector<Bytes> encoded;
  for (const core::Block* b : blocks) encoded.push_back(b->encode());
  double encode_rate = 0.0, decode_rate = 0.0;
  if (have) {
    {
      auto span = spans.scope("rlp.encode");
      encode_rate = rate_of([&] {
        double bytes = 0.0;
        for (const core::Block* b : blocks)
          bytes += static_cast<double>(b->encode().size());
        return bytes;
      });
    }
    bool decoded_all = true;
    {
      auto span = spans.scope("rlp.decode");
      decode_rate = rate_of([&] {
        double bytes = 0.0;
        for (const Bytes& wire : encoded) {
          decoded_all = decoded_all && core::Block::decode(BytesView(wire));
          bytes += static_cast<double>(wire.size());
        }
        return bytes;
      });
    }
    for (std::size_t i = 0; i < blocks.size() && decoded_all; ++i)
      decoded_all = core::Block::decode(BytesView(encoded[i]))->hash() ==
                    blocks[i]->hash();
    report.check("rlp_block_round_trip", decoded_all);
  }
  report.metric("rlp.block_encode_mb_per_s", encode_rate / 1e6, "MB/s");
  report.metric("rlp.block_decode_mb_per_s", decode_rate / 1e6, "MB/s");

  const ReplayStats rs = replay(chains, spans);
  if (have) report.check("replay_matches_live_head_and_state_root",
                         rs.faithful);
  report.metric("core.import_p50_ms",
                have ? percentile(rs.import_ms, 50.0) : 0.0, "ms");
  report.metric("core.import_p99_ms",
                have ? percentile(rs.import_ms, 99.0) : 0.0, "ms");
  report.metric("core.imports_per_s",
                share(static_cast<double>(rs.import_ms.size()), rs.total_s),
                "1/s");

  double db_s = 0.0;
  bool db_ok = true;
  for (const CapturedChain& c : chains) {
    if (c.blocks.empty()) continue;
    db::SimDisk disk(Rng(1));
    db::BlockStore store(disk, "probe");
    const auto start = Clock::now();
    {
      auto span = spans.scope("db.append");
      for (const core::Block& b : c.blocks) store.append(b);
    }
    std::vector<core::Block> recovered;
    {
      auto span = spans.scope("db.recover");
      recovered = store.recover();
    }
    db_s += seconds_since(start);
    db_ok = db_ok && recovered.size() == c.blocks.size() &&
            recovered.back().hash() == c.head_hash;
  }
  if (have) report.check("db_recovers_every_block", db_ok);
  report.metric("db.recover_ms_per_block",
                share(db_s * 1e3, static_cast<double>(blocks.size())), "ms");

  double codec_rate = 0.0;
  if (have) {
    std::vector<p2p::Message> messages;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      messages.emplace_back(p2p::NewBlock{*blocks[i], *tds[i]});
      messages.emplace_back(p2p::Transactions{blocks[i]->transactions});
    }
    bool decoded_all = true;
    auto span = spans.scope("p2p.codec");
    codec_rate = rate_of([&] {
      for (const p2p::Message& m : messages)
        decoded_all = decoded_all &&
                      p2p::decode_message(p2p::encode_message(m)).has_value();
      return static_cast<double>(messages.size());
    });
    report.check("codec_round_trip", decoded_all);
  }
  report.metric("p2p.codec_msgs_per_s", codec_rate, "1/s");
}

}  // namespace perfbench
