// Retention bound (interpret/interpreter.h, "Retention"): B.PIs is kept
// only while B can still be a parent. On an honest run that is one block
// per builder at any quiescent point, whatever the run's length (two
// after a GC, which keeps each builder's oldest survivor); every
// other block answers instances_at() by replaying its builder's chain,
// and must answer exactly what a prefix interpreter held when that block
// was the builder's tip. The parallel engine retains the same blocks.
#include <gtest/gtest.h>

#include <map>

#include "interpret/interpreter.h"
#include "interpret/parallel_interpreter.h"
#include "protocols/fifo_brb.h"
#include "rt/threaded_runtime.h"
#include "runtime/cluster.h"
#include "testing/late_fork.h"

namespace blockdag {
namespace {

constexpr std::uint32_t kServers = 4;

// A payments-shaped simulated run: FIFO-BRB over a few long-lived account
// labels, 2 ms beats, long enough for well over 2,000 blocks per server.
struct HonestRun {
  fifo::FifoBrbFactory factory;
  Cluster cluster{factory, config()};

  static ClusterConfig config() {
    ClusterConfig cfg;
    cfg.n_servers = kServers;
    cfg.seed = 77;
    cfg.pacing.interval = sim_ms(2);
    return cfg;
  }

  HonestRun() {
    cluster.start();
    for (std::uint32_t i = 0; i < 120; ++i) {
      cluster.request(i % kServers, 1 + i % 8,
                      fifo::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
      cluster.run_for(sim_ms(5));
    }
    cluster.run_for(sim_ms(600));
    EXPECT_TRUE(cluster.quiesce_and_converge());
  }
};

HonestRun& honest_run() {
  static HonestRun run;
  return run;
}

std::size_t holding(const Interpreter& interp, const BlockDag& dag) {
  std::size_t n = 0;
  for (const BlockPtr& b : dag.topological_order()) {
    if (interp.state_of(b->ref())->pis.has_value()) ++n;
  }
  return n;
}

TEST(Retention, AtMostOneBlockPerBuilderHoldsInstances) {
  HonestRun& run = honest_run();
  for (ServerId s = 0; s < kServers; ++s) {
    const Shim& shim = run.cluster.shim(s);
    const InterpreterStats& stats = shim.interpreter().stats();
    ASSERT_GE(shim.dag().size(), 2000u) << "server " << s;
    EXPECT_EQ(stats.blocks_interpreted, shim.dag().size());
    EXPECT_LE(stats.blocks_holding_pis, kServers) << "server " << s;
    EXPECT_EQ(stats.blocks_holding_pis, holding(shim.interpreter(), shim.dag()));
    EXPECT_EQ(stats.chain_replays, 0u);
    EXPECT_EQ(stats.states_lost, 0u);
  }
}

TEST(Retention, NonTipInstancesMatchWhatThePrefixHeldAtTheTip) {
  HonestRun& run = honest_run();
  const Shim& shim = run.cluster.shim(0);
  const auto& order = shim.dag().topological_order();

  // Re-grow server 0's DAG block by block: right after a block is
  // interpreted it is its builder's tip, so the prefix interpreter still
  // holds its B.PIs.
  BlockDag prefix_dag;
  Interpreter prefix(prefix_dag, run.factory, kServers);
  std::map<Hash256, std::vector<std::pair<Label, Bytes>>> at_tip;
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_TRUE(prefix_dag.insert(order[i]));
    prefix.run();
    if (i % 101 != 50) continue;
    ASSERT_TRUE(prefix.state_of(order[i]->ref())->pis.has_value());
    const auto held = testing::serialized_instances(prefix, order[i]->ref());
    ASSERT_TRUE(held.has_value());
    at_tip.emplace(order[i]->ref(), *held);
  }
  ASSERT_GE(at_tip.size(), 20u);
  std::size_t non_tips = 0;
  for (const auto& [ref, held] : at_tip) {
    if (!shim.interpreter().state_of(ref)->pis) ++non_tips;
    EXPECT_EQ(testing::serialized_instances(shim.interpreter(), ref), held)
        << ref.short_hex();
  }
  EXPECT_GE(non_tips, 20u);
  EXPECT_EQ(holding(prefix, prefix_dag), holding(shim.interpreter(), shim.dag()));
}

TEST(Retention, EngineRetainsTheSameBlocks) {
  HonestRun& run = honest_run();
  const Shim& shim = run.cluster.shim(1);
  ParallelInterpretConfig pcfg;
  pcfg.workers = 2;
  pcfg.min_batch_work = 0;
  ParallelInterpreter engine(pcfg);
  engine.start();
  BlockDag dag;
  Interpreter interp(dag, run.factory, kServers);
  const auto& order = shim.dag().topological_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_TRUE(dag.insert(order[i]));
    if (i % 16 == 15 || i + 1 == order.size()) engine.run(interp);
  }
  EXPECT_GT(interp.stats().parallel_batches, 0u);
  EXPECT_EQ(interp.stats().blocks_holding_pis,
            shim.interpreter().stats().blocks_holding_pis);
  for (const BlockPtr& b : order) {
    EXPECT_EQ(interp.digest_of(b->ref()), shim.interpreter().digest_of(b->ref()));
    EXPECT_EQ(interp.state_of(b->ref())->pis.has_value(),
              shim.interpreter().state_of(b->ref())->pis.has_value());
  }
}

TEST(Retention, GcKeepsEveryLiveBlockDerivable) {
  // Server 0 collects garbage as it goes; server 1 never does. Each GC
  // leaves every builder's oldest survivor holding its B.PIs (lending
  // them), so at most two blocks per builder hold state, nothing is lost,
  // and every live block's instances match the unpruned server's.
  fifo::FifoBrbFactory factory;
  ClusterConfig cfg = HonestRun::config();
  cfg.seed = 78;
  Cluster cluster(factory, cfg);
  cluster.start();
  std::size_t pruned = 0;
  for (std::uint32_t i = 0; i < 60; ++i) {
    cluster.request(i % kServers, 1 + i % 4,
                    fifo::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
    cluster.run_for(sim_ms(5));
    if (i % 6 == 5) pruned += cluster.shim(0).collect_garbage();
  }
  cluster.run_for(sim_ms(600));  // server 0's pruned DAG never "converges"
  pruned += cluster.shim(0).collect_garbage();
  ASSERT_GT(pruned, 0u);
  const Shim& gc = cluster.shim(0);
  const Shim& full = cluster.shim(1);
  const InterpreterStats& stats = gc.interpreter().stats();
  EXPECT_LE(stats.blocks_holding_pis, 2 * kServers);
  EXPECT_EQ(stats.blocks_holding_pis, holding(gc.interpreter(), gc.dag()));
  EXPECT_EQ(stats.states_lost, 0u);
  EXPECT_EQ(stats.chain_replays, 0u);
  std::size_t checked = 0;
  for (const BlockPtr& b : gc.dag().topological_order()) {
    const Hash256& ref = b->ref();
    if (!full.dag().contains(ref)) continue;
    const auto held = testing::serialized_instances(gc.interpreter(), ref);
    ASSERT_TRUE(held.has_value()) << ref.short_hex();
    EXPECT_EQ(held, testing::serialized_instances(full.interpreter(), ref))
        << ref.short_hex();
    ++checked;
  }
  EXPECT_GE(checked, std::size_t{kServers});
}

TEST(Retention, ThreadedRuntimeAtQuiescence) {
  // The real runtime with the engine mounted: after convergence each
  // server holds B.PIs for at most one block per builder.
  fifo::FifoBrbFactory factory;
  rt::ThreadedConfig cfg;
  cfg.n_servers = kServers;
  cfg.pacing.interval = sim_ms(2);
  cfg.interpret_workers = 2;
  cfg.interpret.min_batch_work = 0;
  rt::ThreadedRuntime runtime(factory, cfg);
  runtime.start();
  for (std::uint32_t i = 0; i < 16; ++i) {
    runtime.request(i % kServers, 1 + i % 4,
                    fifo::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
  }
  ASSERT_TRUE(runtime.quiesce_and_converge());
  for (ServerId s = 0; s < kServers; ++s) {
    const InterpreterStats st = runtime.call(
        s, [](Shim& shim) { return shim.interpreter().stats(); });
    EXPECT_GT(st.blocks_interpreted, 0u);
    EXPECT_LE(st.blocks_holding_pis, kServers) << "server " << s;
    EXPECT_EQ(st.states_lost, 0u);
  }
  runtime.shutdown();
}

}  // namespace
}  // namespace blockdag
