// Interpretation across pruning (§7 bounded-memory extension): after
// prune_below + forget_pruned, blocks above the checkpoint keep their
// states, and *new* blocks extending the pruned DAG interpret correctly
// as long as their instance state flows through surviving parents. With
// retain_frontier as the prune observer, each builder's oldest survivor
// keeps its B.PIs, so a fork of any live block interprets exactly as on an
// unpruned server; only a fork of a checkpoint-restored non-tip starts
// from empty state, counted in states_lost (DESIGN §10).
#include <gtest/gtest.h>

#include <optional>

#include "interpret/interpreter.h"
#include "protocols/brb.h"
#include "testing/builders.h"
#include "testing/late_fork.h"

namespace blockdag {
namespace {

using testing::BlockForge;

Bytes val(std::uint8_t v) { return Bytes{v}; }

struct PruningInterpret : ::testing::Test {
  BlockForge forge{4};
  BlockDag dag;
  brb::BrbFactory factory;

  // Builds a chain of `len` blocks for server 0, request at the head.
  std::vector<BlockPtr> chain;
  void build_chain(std::size_t len) {
    chain.push_back(forge.block(0, 0, {}, {{1, brb::make_broadcast(val(7))}}));
    dag.insert(chain.back());
    for (SeqNo k = 1; k < len; ++k) {
      chain.push_back(forge.block(0, k, {chain.back()->ref()}));
      dag.insert(chain.back());
    }
  }
};

TEST_F(PruningInterpret, ForgetPrunedDropsOnlyPrunedStates) {
  build_chain(10);
  Interpreter interp(dag, factory, 4);
  interp.run();
  ASSERT_TRUE(interp.is_interpreted(chain[9]->ref()));

  dag.prune_below({chain[7]->ref()});
  interp.forget_pruned();

  for (SeqNo k = 0; k < 7; ++k) {
    EXPECT_EQ(interp.state_of(chain[k]->ref()), nullptr) << "k=" << k;
  }
  for (SeqNo k = 7; k < 10; ++k) {
    ASSERT_NE(interp.state_of(chain[k]->ref()), nullptr) << "k=" << k;
    EXPECT_TRUE(interp.is_interpreted(chain[k]->ref()));
  }
}

TEST_F(PruningInterpret, NewBlocksInterpretAfterPruning) {
  build_chain(6);
  Interpreter interp(dag, factory, 4);
  interp.run();
  const Bytes digest_before_prune = interp.digest_of(chain[5]->ref());

  dag.prune_below({chain[5]->ref()});
  interp.forget_pruned();

  // Extend the surviving tip; the parent's retained state carries the
  // instance forward (echoed=true persists — no re-echo).
  const BlockPtr next = forge.block(0, 6, {chain[5]->ref()});
  ASSERT_TRUE(dag.insert(next));
  EXPECT_EQ(interp.run(), 1u);
  ASSERT_TRUE(interp.is_interpreted(next->ref()));
  // Tip state unchanged by pruning.
  EXPECT_EQ(interp.digest_of(chain[5]->ref()), digest_before_prune);
  // The new block materialized nothing (state already echoed, no quorum).
  const auto* st = interp.state_of(next->ref());
  EXPECT_TRUE(st->ms_out.empty() ||
              std::all_of(st->ms_out.begin(), st->ms_out.end(),
                          [](const auto& kv) { return kv.second.empty(); }));
}

TEST_F(PruningInterpret, StatsSurvivePruning) {
  build_chain(5);
  Interpreter interp(dag, factory, 4);
  interp.run();
  const auto blocks_before = interp.stats().blocks_interpreted;
  dag.prune_below({chain[4]->ref()});
  interp.forget_pruned();
  EXPECT_EQ(interp.stats().blocks_interpreted, blocks_before);
  EXPECT_EQ(interp.run(), 0u);  // nothing new to do, cursor resets safely
}

TEST_F(PruningInterpret, ForkAboveTheFrontierReplaysBeforePruning) {
  // Without pruning a fork of a non-tip block re-derives its parent's
  // state by replaying the chain from genesis: nothing is lost.
  build_chain(10);
  Interpreter interp(dag, factory, 4);
  interp.run();
  const BlockPtr fork =
      forge.block(0, 9, {chain[8]->ref()}, {{2, brb::make_broadcast(val(9))}});
  ASSERT_TRUE(dag.insert(fork));
  EXPECT_EQ(interp.run(), 1u);
  EXPECT_EQ(interp.stats().chain_replays, 1u);
  EXPECT_EQ(interp.stats().states_lost, 0u);
  const auto pis = interp.instances_at(fork->ref());
  ASSERT_TRUE(pis.has_value());
  EXPECT_NE(pis->find(1), pis->end());  // label 1 came from the chain
}

TEST_F(PruningInterpret, ForkAcrossTheGcFrontierMatchesAnUnprunedServer) {
  // chain[7..9] survive prune_below(chain[7]); chain[9] holds the
  // builder's B.PIs and chain[8] gave its own to chain[9]. retain_frontier
  // re-derives chain[7]'s before chain[0..6] go, so a fork of chain[8]
  // replays from there and matches a server that never pruned.
  build_chain(10);
  BlockDag unpruned;
  for (const BlockPtr& b : chain) ASSERT_TRUE(unpruned.insert(b));
  Interpreter reference(unpruned, factory, 4);
  reference.run();
  Interpreter interp(dag, factory, 4);
  interp.run();
  EXPECT_EQ(interp.stats().blocks_holding_pis, 1u);
  dag.prune_below({chain[7]->ref()}, [&](const std::vector<char>& doomed) {
    interp.retain_frontier(doomed);
  });
  interp.forget_pruned();
  EXPECT_EQ(interp.stats().blocks_holding_pis, 2u);
  EXPECT_TRUE(interp.state_of(chain[7]->ref())->lends);
  for (SeqNo k = 7; k < 10; ++k) {
    EXPECT_EQ(testing::serialized_instances(interp, chain[k]->ref()),
              testing::serialized_instances(reference, chain[k]->ref()))
        << "k=" << k;
  }

  const BlockPtr fork =
      forge.block(0, 9, {chain[8]->ref()}, {{2, brb::make_broadcast(val(9))}});
  const BlockPtr next = forge.block(0, 10, {chain[9]->ref()});
  for (const BlockPtr& b : {fork, next}) {
    ASSERT_TRUE(dag.insert(b));
    ASSERT_TRUE(unpruned.insert(b));
  }
  EXPECT_EQ(interp.run(), 2u);
  EXPECT_EQ(reference.run(), 2u);
  for (const BlockPtr& b : {fork, next}) {
    EXPECT_EQ(interp.digest_of(b->ref()), reference.digest_of(b->ref()));
    EXPECT_EQ(testing::serialized_instances(interp, b->ref()),
              testing::serialized_instances(reference, b->ref()));
  }
  EXPECT_EQ(interp.stats().chain_replays, 1u);
  EXPECT_EQ(interp.stats().states_lost, 0u);
  EXPECT_EQ(reference.stats().states_lost, 0u);
}

TEST_F(PruningInterpret, PruningWithoutRetainFrontierLosesForksCounted) {
  // The same fork when the prune skipped retain_frontier: chain[8]'s chain
  // runs into the pruned blocks, the replay's digest check fails, and the
  // fork starts from empty state — counted, not silent.
  build_chain(10);
  Interpreter interp(dag, factory, 4);
  interp.run();
  dag.prune_below({chain[7]->ref()});
  interp.forget_pruned();
  EXPECT_EQ(interp.stats().blocks_holding_pis, 1u);
  EXPECT_TRUE(interp.instances_at(chain[9]->ref()).has_value());
  EXPECT_FALSE(interp.instances_at(chain[8]->ref()).has_value());

  const BlockPtr fork =
      forge.block(0, 9, {chain[8]->ref()}, {{2, brb::make_broadcast(val(9))}});
  ASSERT_TRUE(dag.insert(fork));
  EXPECT_EQ(interp.run(), 1u);
  EXPECT_EQ(interp.stats().chain_replays, 1u);
  EXPECT_EQ(interp.stats().states_lost, 1u);
  const auto pis = interp.instances_at(fork->ref());
  ASSERT_TRUE(pis.has_value());
  EXPECT_EQ(pis->find(1), pis->end());  // label 1's state was lost
  EXPECT_NE(pis->find(2), pis->end());
}

TEST_F(PruningInterpret, ForkBelowTheCheckpointFrontierIsCounted) {
  // A restored server holds B.PIs only for the checkpoint's tips, and has
  // no Ms[in] to replay the blocks below them. A fork of a restored
  // non-tip therefore starts from empty state, counted; a child of the
  // restored tip matches what the live interpreter computes.
  build_chain(3);
  Interpreter live(dag, factory, 4);
  live.run();
  Interpreter restored(dag, factory, 4);
  for (const BlockPtr& b : chain) {
    const BlockInterpretation& st = *live.state_of(b->ref());
    std::optional<Sha256::Digest> pis_digest;
    std::vector<std::pair<Label, Bytes>> pis;
    if (b == chain.back()) {
      pis_digest = st.pis_digest;
      const std::optional<InstanceMap> tip = live.instances_at(b->ref());
      ASSERT_TRUE(tip.has_value());
      for (const auto& [label, proc] : *tip) {
        pis.emplace_back(label, proc->serialize());
      }
    }
    ASSERT_TRUE(restored.restore_block(b->ref(), st.digest, st.ms_out, pis_digest, pis));
  }
  EXPECT_EQ(restored.stats().blocks_holding_pis, 1u);
  EXPECT_FALSE(restored.instances_at(chain[1]->ref()).has_value());

  const BlockPtr next = forge.block(0, 3, {chain[2]->ref()});
  const BlockPtr fork =
      forge.block(0, 2, {chain[1]->ref()}, {{2, brb::make_broadcast(val(9))}});
  ASSERT_TRUE(dag.insert(next));
  ASSERT_TRUE(dag.insert(fork));
  EXPECT_EQ(live.run(), 2u);
  EXPECT_EQ(restored.run(), 2u);
  EXPECT_EQ(restored.digest_of(next->ref()), live.digest_of(next->ref()));
  // The restored tip lent its state: it still holds it for a later fork.
  EXPECT_TRUE(restored.state_of(chain[2]->ref())->pis.has_value());
  EXPECT_EQ(live.stats().states_lost, 0u);
  EXPECT_EQ(restored.stats().states_lost, 1u);
  EXPECT_NE(restored.digest_of(fork->ref()), live.digest_of(fork->ref()));
}

}  // namespace
}  // namespace blockdag
