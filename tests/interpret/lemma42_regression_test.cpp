// Lemma 4.2 / Lemma A.11 regression: interpretation is a pure function of
// the DAG — the digest of every block's post-interpretation state must not
// depend on which eligible order the interpreter happened to pick. This is
// the semantic guard for the flattened hot path: run() (dense index order)
// and a shuffled interpret_one() walk over any other eligibility-
// respecting order must agree byte-for-byte on digest_of.
//
// The structures this pins down: copy-on-write PIs, flat Ms buffers keyed
// by dense BlockIdx, and the sort+unique inbox realization of the Ms[in]
// union semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "interpret/interpreter.h"
#include "protocols/brb.h"
#include "testing/random_dag.h"
#include "util/rng.h"

namespace blockdag {
namespace {

using testing::BlockForge;
using testing::RandomDagConfig;
using testing::make_random_dag;
using testing::requested_in_ancestry;

// Interprets every block of `dag` in a random eligibility-respecting order.
void interpret_shuffled(Interpreter& interp, const BlockDag& dag, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Hash256> remaining;
  for (const BlockPtr& b : dag.topological_order()) remaining.push_back(b->ref());
  while (!remaining.empty()) {
    // Pick a random eligible block; one must exist (order_ is topological).
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      if (interp.eligible(remaining[i])) eligible.push_back(i);
    }
    ASSERT_FALSE(eligible.empty());
    const std::size_t pick = eligible[rng.below(eligible.size())];
    ASSERT_TRUE(interp.interpret_one(remaining[pick]));
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(pick));
  }
}

TEST(Lemma42Regression, RunAndShuffledOrdersAgreeOnEveryDigest) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    BlockForge forge(5);
    RandomDagConfig cfg;
    cfg.n_servers = 5;
    cfg.rounds = 8;
    cfg.broadcasts = 4;
    const auto rd = make_random_dag(forge, cfg, seed);
    brb::BrbFactory factory;

    Interpreter sequential(rd.dag, factory, 5);
    EXPECT_EQ(sequential.run(), rd.dag.size());

    Interpreter shuffled(rd.dag, factory, 5);
    interpret_shuffled(shuffled, rd.dag, seed * 977 + 13);

    for (const BlockPtr& b : rd.dag.topological_order()) {
      EXPECT_EQ(sequential.digest_of(b->ref()), shuffled.digest_of(b->ref()))
          << "seed=" << seed << " block=" << b->ref().short_hex();
      // Buffer contents agree too, not just digests (rules out digest
      // collisions hiding order dependence).
      const auto* a = sequential.state_of(b->ref());
      const auto* s = shuffled.state_of(b->ref());
      ASSERT_NE(a, nullptr);
      ASSERT_NE(s, nullptr);
      EXPECT_TRUE(a->ms_in == s->ms_in);
      EXPECT_TRUE(a->ms_out == s->ms_out);
    }
    // Aggregate effort is order-independent as well.
    EXPECT_EQ(sequential.stats().messages_delivered, shuffled.stats().messages_delivered);
    EXPECT_EQ(sequential.stats().messages_materialized,
              shuffled.stats().messages_materialized);
    EXPECT_EQ(sequential.stats().requests_processed, shuffled.stats().requests_processed);
  }
}

TEST(Lemma42Regression, IncrementalRunMatchesOneShotRun) {
  // Growing the DAG between run() calls (the gossip pattern) must land on
  // the same digests as interpreting the finished DAG in one pass.
  BlockForge forge(4);
  RandomDagConfig cfg;
  cfg.n_servers = 4;
  cfg.rounds = 7;
  cfg.broadcasts = 3;
  const auto rd = make_random_dag(forge, cfg, 42);
  brb::BrbFactory factory;

  BlockDag growing;
  Interpreter incremental(growing, factory, 4);
  for (const BlockPtr& b : rd.dag.topological_order()) {
    ASSERT_TRUE(growing.insert(b));
    incremental.run();
  }

  Interpreter oneshot(rd.dag, factory, 4);
  oneshot.run();
  for (const BlockPtr& b : rd.dag.topological_order()) {
    EXPECT_EQ(incremental.digest_of(b->ref()), oneshot.digest_of(b->ref()));
  }
}

// Every label a block's state names — in Ms[in], Ms[out] or PIs.
std::set<Label> labels_named(const Interpreter& interp, const Hash256& ref) {
  std::set<Label> out;
  const BlockInterpretation* st = interp.state_of(ref);
  EXPECT_NE(st, nullptr);
  if (!st) return out;
  for (const auto& [label, msgs] : st->ms_in) out.insert(label);
  for (const auto& [label, msgs] : st->ms_out) out.insert(label);
  const auto pis = interp.instances_at(ref);
  EXPECT_TRUE(pis.has_value());
  if (pis) {
    for (const auto& [label, proc] : *pis) out.insert(label);
  }
  return out;
}

TEST(Lemma42Regression, StateStaysWithinRequestedAncestryLabels) {
  // Lemma A.12 provenance, with the line-7 label range read off the DAG
  // instead of kept per block: a label reaches a block's state only if it
  // was requested at that block or above it, so a label requested on one
  // branch never leaks into a sibling branch or back up the chain.
  BlockForge forge(4);
  BlockDag dag;
  const BlockPtr g0 = forge.block(0, 0, {}, {{1, brb::make_broadcast(Bytes{1})}});
  const BlockPtr b1 = forge.block(0, 1, {g0->ref()});
  const BlockPtr b2 = forge.block(0, 2, {b1->ref()}, {{2, brb::make_broadcast(Bytes{2})}});
  const BlockPtr sib = forge.block(1, 0, {g0->ref()}, {{3, brb::make_broadcast(Bytes{3})}});
  const BlockPtr join = forge.block(2, 0, {b2->ref(), sib->ref()});
  for (const BlockPtr& b : {g0, b1, b2, sib, join}) ASSERT_TRUE(dag.insert(b));
  brb::BrbFactory factory;
  Interpreter interp(dag, factory, 4);
  interp.run();

  const auto named = [&](const BlockPtr& b) { return labels_named(interp, b->ref()); };
  EXPECT_EQ(named(g0), (std::set<Label>{1}));
  EXPECT_EQ(named(b1), (std::set<Label>{1}));
  EXPECT_EQ(named(b2), (std::set<Label>{1, 2}));
  EXPECT_EQ(named(sib), (std::set<Label>{1, 3}));
  EXPECT_EQ(named(join), (std::set<Label>{1, 2, 3}));

  // The same bound over random DAGs, block by block.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    BlockForge rforge(5);
    RandomDagConfig cfg;
    cfg.n_servers = 5;
    cfg.rounds = 8;
    cfg.broadcasts = 4;
    const auto rd = make_random_dag(rforge, cfg, seed);
    Interpreter rinterp(rd.dag, factory, 5);
    rinterp.run();
    const auto requested = requested_in_ancestry(rd.dag);
    for (const BlockPtr& b : rd.dag.topological_order()) {
      const std::set<Label>& allowed = requested.at(b->ref());
      for (Label l : labels_named(rinterp, b->ref())) {
        EXPECT_TRUE(allowed.count(l)) << "seed=" << seed << " label=" << l;
      }
    }
  }
}

TEST(Lemma42Regression, CursorSurvivesPruning) {
  // forget_pruned() must not reset the incremental cursor to zero: after a
  // prune, run() resumes at the first live uninterpreted slot instead of
  // rescanning the whole order (dense indices are stable across pruning).
  BlockForge forge(4);
  BlockDag dag;
  std::vector<BlockPtr> chain;
  chain.push_back(forge.block(0, 0, {}, {{1, brb::make_broadcast(Bytes{7})}}));
  ASSERT_TRUE(dag.insert(chain.back()));
  for (SeqNo k = 1; k < 12; ++k) {
    chain.push_back(forge.block(0, k, {chain.back()->ref()}));
    ASSERT_TRUE(dag.insert(chain.back()));
  }
  brb::BrbFactory factory;
  Interpreter interp(dag, factory, 4);
  EXPECT_EQ(interp.run(), 12u);
  EXPECT_EQ(interp.resume_index(), 12u);

  dag.prune_below({chain[9]->ref()});
  interp.forget_pruned();
  EXPECT_EQ(interp.resume_index(), 12u);  // not reset to 0

  const BlockPtr next = forge.block(0, 12, {chain[11]->ref()});
  ASSERT_TRUE(dag.insert(next));
  EXPECT_EQ(interp.run(), 1u);
  EXPECT_TRUE(interp.is_interpreted(next->ref()));
  EXPECT_EQ(interp.resume_index(), 13u);
}

}  // namespace
}  // namespace blockdag
