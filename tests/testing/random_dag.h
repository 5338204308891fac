// Random block-DAG generator for property tests.
//
// Generates DAGs that look like the output of honest gossip: per-server
// chains with parent links, cross-references to other servers' blocks
// following the reference-once discipline (Lemma A.6), and broadcast
// requests sprinkled into early blocks. Randomness is fully seeded.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "dag/dag.h"
#include "protocols/brb.h"
#include "testing/builders.h"
#include "util/rng.h"

namespace blockdag::testing {

struct RandomDagConfig {
  std::uint32_t n_servers = 4;
  std::uint32_t rounds = 8;
  // Probability a server produces a block in a round.
  double block_probability = 0.8;
  // Probability an available (unreferenced) foreign block gets referenced.
  double reference_probability = 0.7;
  // Number of broadcast requests inscribed into random early blocks.
  std::uint32_t broadcasts = 2;
  // Encodes a broadcast request; BRB and FIFO-BRB share the wire format but
  // each protocol names its own encoder.
  Bytes (*make_request)(const Bytes&) = brb::make_broadcast;
  // 0: every broadcast gets a fresh label. k > 0: broadcasts cycle over
  // labels 1..k, so a stream protocol (FIFO-BRB) carries several values
  // per label.
  std::uint32_t streams = 0;
};

struct RandomDag {
  BlockDag dag;
  // label → (origin server, value) of each inscribed broadcast (the last
  // one per label when `streams` reuses labels).
  std::map<Label, std::pair<ServerId, std::uint8_t>> broadcasts;
};

inline RandomDag make_random_dag(BlockForge& forge, const RandomDagConfig& cfg,
                                 std::uint64_t seed) {
  Rng rng(seed);
  RandomDag out;

  // Per server: ref of own previous block; set of foreign blocks already
  // referenced; foreign blocks seen but not yet referenced.
  std::vector<BlockPtr> parents(cfg.n_servers);
  std::vector<std::vector<Hash256>> unreferenced(cfg.n_servers);
  std::vector<SeqNo> next_k(cfg.n_servers, 0);
  std::uint32_t broadcasts_left = cfg.broadcasts;
  Label next_label = 1;

  for (std::uint32_t round = 0; round < cfg.rounds; ++round) {
    std::vector<BlockPtr> created;
    for (ServerId s = 0; s < cfg.n_servers; ++s) {
      const bool must = round + 1 == cfg.rounds;  // last round: all speak
      if (!must && !rng.chance(cfg.block_probability)) continue;

      std::vector<Hash256> preds;
      if (parents[s]) preds.push_back(parents[s]->ref());
      std::vector<Hash256> still_unreferenced;
      for (const Hash256& ref : unreferenced[s]) {
        if (must || rng.chance(cfg.reference_probability)) {
          preds.push_back(ref);
        } else {
          still_unreferenced.push_back(ref);
        }
      }
      unreferenced[s] = std::move(still_unreferenced);

      std::vector<LabeledRequest> rs;
      if (broadcasts_left > 0 && rng.chance(0.5)) {
        --broadcasts_left;
        const auto value = static_cast<std::uint8_t>(rng.below(200));
        rs.push_back({next_label, cfg.make_request(Bytes{value})});
        out.broadcasts[next_label] = {s, value};
        next_label = cfg.streams == 0 ? next_label + 1 : next_label % cfg.streams + 1;
      }

      BlockPtr block = forge.block(s, next_k[s]++, std::move(preds), std::move(rs));
      out.dag.insert(block);
      parents[s] = block;
      created.push_back(std::move(block));
    }
    // Everyone "receives" this round's blocks before the next round.
    for (const BlockPtr& b : created) {
      for (ServerId s = 0; s < cfg.n_servers; ++s) {
        if (s != b->n()) unreferenced[s].push_back(b->ref());
      }
    }
  }
  return out;
}

// Per block: every label requested at the block or at one of its ancestors
// — the range Algorithm 2 line 7 quantifies over, computed from the DAG
// alone (Lemma A.12 says interpretation state never leaves it).
inline std::map<Hash256, std::set<Label>> requested_in_ancestry(const BlockDag& dag) {
  std::map<Hash256, std::set<Label>> out;
  for (const BlockPtr& b : dag.topological_order()) {
    std::set<Label>& labels = out[b->ref()];
    for (const LabeledRequest& lr : b->rs()) labels.insert(lr.label);
    for (const Hash256& p : b->preds()) {
      const auto it = out.find(p);
      if (it != out.end()) labels.insert(it->second.begin(), it->second.end());
    }
  }
  return out;
}

// An ancestor-closed subset of `dag` containing roughly `fraction` of its
// blocks (taken as a prefix of the topological order — always closed).
inline BlockDag prefix_of(const BlockDag& dag, double fraction) {
  BlockDag out;
  const auto& order = dag.topological_order();
  const auto take = static_cast<std::size_t>(static_cast<double>(order.size()) * fraction);
  for (std::size_t i = 0; i < take; ++i) out.insert(order[i]);
  return out;
}

}  // namespace blockdag::testing
