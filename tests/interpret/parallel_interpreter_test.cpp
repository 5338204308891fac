// Differential oracle for the parallel interpretation engine
// (interpret/parallel_interpreter.h): sharding Algorithm 2 across a worker
// pool must be *observationally invisible*. For any DAG and any worker
// count, the engine must produce byte-identical digest_of() on every
// block, identical Ms[in]/Ms[out] buffers, the identical indication
// sequence (same tuples, same order), and identical WHAT-stats
// (requests/messages/clones) — only the HOW-counters (parallel_batches,
// work_units, ...) may differ from the serial interpreter.
//
// Covered here: honest random DAGs across seeds and worker counts 1/2/8,
// FIFO-BRB streams (slot history shared between clones) at 2 and 8 workers,
// shard-claim-order independence (salted claim permutations), incremental
// batch-by-batch interpretation, the serial fallbacks (stopped pool, work
// below min_batch_work), equivocation forks in the parent chain (also one
// arriving after its sibling took the parent's B.PIs), an
// adversarial byzantine-mix DAG grown by the sim cluster and re-interpreted
// offline, and the engine mounted on a live ThreadedRuntime.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "interpret/interpreter.h"
#include "interpret/parallel_interpreter.h"
#include "protocols/brb.h"
#include "protocols/fifo_brb.h"
#include "rt/threaded_runtime.h"
#include "runtime/cluster.h"
#include "testing/late_fork.h"
#include "testing/random_dag.h"

namespace blockdag {
namespace {

using testing::BlockForge;
using testing::RandomDagConfig;
using testing::make_random_dag;

// One indication as raised by Algorithm 2 line 14; the full tuple, so
// order *and* attribution are compared.
using Raised = std::tuple<Label, Bytes, ServerId>;

struct InterpretedRun {
  std::vector<Bytes> digests;  // digest_of per block, topological order
  std::vector<Raised> indications;
  InterpreterStats stats;
};

// Interprets `dag` start-to-finish with the serial interpreter.
InterpretedRun run_serial(const BlockDag& dag, const ProtocolFactory& factory,
                          std::uint32_t n_servers) {
  InterpretedRun out;
  Interpreter interp(dag, factory, n_servers);
  interp.set_indication_handler(
      [&out](Label label, const Bytes& ind, ServerId on_behalf) {
        out.indications.emplace_back(label, ind, on_behalf);
      });
  interp.run();
  for (const BlockPtr& b : dag.topological_order()) {
    out.digests.push_back(interp.digest_of(b->ref()));
  }
  out.stats = interp.stats();
  return out;
}

// Interprets `dag` start-to-finish through a parallel engine.
InterpretedRun run_parallel(const BlockDag& dag, const ProtocolFactory& factory,
                            std::uint32_t n_servers,
                            ParallelInterpretConfig config) {
  InterpretedRun out;
  ParallelInterpreter engine(config);
  engine.start();
  Interpreter interp(dag, factory, n_servers);
  interp.set_indication_handler(
      [&out](Label label, const Bytes& ind, ServerId on_behalf) {
        out.indications.emplace_back(label, ind, on_behalf);
      });
  engine.run(interp);
  for (const BlockPtr& b : dag.topological_order()) {
    out.digests.push_back(interp.digest_of(b->ref()));
  }
  out.stats = interp.stats();
  return out;
}

// The WHAT-half of the stats contract: everything except the parallel_*
// HOW-counters must match the serial run exactly.
void expect_same_effort(const InterpreterStats& a, const InterpreterStats& b) {
  EXPECT_EQ(a.blocks_interpreted, b.blocks_interpreted);
  EXPECT_EQ(a.requests_processed, b.requests_processed);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.messages_materialized, b.messages_materialized);
  EXPECT_EQ(a.indications, b.indications);
  EXPECT_EQ(a.instance_clones, b.instance_clones);
  EXPECT_EQ(a.blocks_holding_pis, b.blocks_holding_pis);
  EXPECT_EQ(a.chain_replays, b.chain_replays);
  EXPECT_EQ(a.states_lost, b.states_lost);
}

TEST(ParallelInterpreter, DifferentialAcrossWorkerCounts) {
  brb::BrbFactory factory;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::uint32_t n = 3 + static_cast<std::uint32_t>(seed % 4);  // 3..6
    BlockForge forge(n);
    RandomDagConfig cfg;
    cfg.n_servers = n;
    cfg.rounds = 10;
    cfg.broadcasts = 6;
    const auto rd = make_random_dag(forge, cfg, seed);

    const InterpretedRun serial = run_serial(rd.dag, factory, n);
    ASSERT_EQ(serial.stats.blocks_interpreted, rd.dag.size());
    // Serial interpretation never touches the engine counters.
    EXPECT_EQ(serial.stats.parallel_batches, 0u);
    EXPECT_EQ(serial.stats.work_units, 0u);

    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      ParallelInterpretConfig pcfg;
      pcfg.workers = workers;
      pcfg.min_batch_work = 0;  // force the parallel path for every batch
      const InterpretedRun par = run_parallel(rd.dag, factory, n, pcfg);
      EXPECT_EQ(par.digests, serial.digests)
          << "seed=" << seed << " workers=" << workers;
      EXPECT_EQ(par.indications, serial.indications)
          << "seed=" << seed << " workers=" << workers;
      expect_same_effort(par.stats, serial.stats);
      EXPECT_EQ(par.stats.parallel_batches, 1u);
      EXPECT_EQ(par.stats.serial_batches, 0u);
      EXPECT_GT(par.stats.work_units, 0u);
      EXPECT_GE(par.stats.work_units, par.stats.max_shard_width);
    }
  }
}

TEST(ParallelInterpreter, FifoStreamsMatchSerialAcrossWorkerCounts) {
  // FIFO-BRB instances share slot history between clones, and the engine's
  // workers clone committed instances concurrently: the sharing must stay
  // invisible in every digest, indication and clone count.
  fifo::FifoBrbFactory factory;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    BlockForge forge(4);
    RandomDagConfig cfg;
    cfg.rounds = 12;
    cfg.broadcasts = 10;
    cfg.streams = 3;
    cfg.make_request = fifo::make_broadcast;
    const auto rd = make_random_dag(forge, cfg, seed);

    const InterpretedRun serial = run_serial(rd.dag, factory, 4);
    ASSERT_EQ(serial.stats.blocks_interpreted, rd.dag.size());
    ASSERT_GT(serial.stats.instance_clones, 0u);
    for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
      ParallelInterpretConfig pcfg;
      pcfg.workers = workers;
      pcfg.min_batch_work = 0;
      const InterpretedRun par = run_parallel(rd.dag, factory, 4, pcfg);
      EXPECT_EQ(par.digests, serial.digests) << "seed=" << seed << " workers=" << workers;
      EXPECT_EQ(par.indications, serial.indications)
          << "seed=" << seed << " workers=" << workers;
      expect_same_effort(par.stats, serial.stats);
    }
  }
}

TEST(ParallelInterpreter, BuffersMatchSerialExactly) {
  brb::BrbFactory factory;
  BlockForge forge(5);
  RandomDagConfig cfg;
  cfg.n_servers = 5;
  cfg.rounds = 8;
  cfg.broadcasts = 5;
  const auto rd = make_random_dag(forge, cfg, 42);

  Interpreter serial(rd.dag, factory, 5);
  serial.run();

  ParallelInterpretConfig pcfg;
  pcfg.workers = 4;
  pcfg.min_batch_work = 0;
  ParallelInterpreter engine(pcfg);
  engine.start();
  Interpreter parallel(rd.dag, factory, 5);
  engine.run(parallel);

  // Digest agreement could in principle hide a collision; compare the
  // buffers structurally too (the lemma42 test's discipline).
  for (const BlockPtr& b : rd.dag.topological_order()) {
    const auto* s = serial.state_of(b->ref());
    const auto* p = parallel.state_of(b->ref());
    ASSERT_NE(s, nullptr);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(s->ms_in == p->ms_in) << b->ref().short_hex();
    EXPECT_TRUE(s->ms_out == p->ms_out) << b->ref().short_hex();
    const auto s_pis = serial.instances_at(b->ref());
    const auto p_pis = parallel.instances_at(b->ref());
    ASSERT_TRUE(s_pis.has_value());
    ASSERT_TRUE(p_pis.has_value());
    ASSERT_EQ(s_pis->size(), p_pis->size());
    for (auto si = s_pis->begin(), pi = p_pis->begin(); si != s_pis->end();
         ++si, ++pi) {
      EXPECT_EQ(si->first, pi->first);
      EXPECT_EQ(si->second->state_digest(), pi->second->state_digest());
    }
  }
}

TEST(ParallelInterpreter, ShardClaimOrderIsIrrelevant) {
  brb::BrbFactory factory;
  BlockForge forge(4);
  RandomDagConfig cfg;
  cfg.broadcasts = 6;
  cfg.rounds = 9;
  const auto rd = make_random_dag(forge, cfg, 7);

  const InterpretedRun serial = run_serial(rd.dag, factory, 4);
  for (const std::uint64_t salt : {0ull, 1ull, 0xdecafbadull, ~0ull}) {
    ParallelInterpretConfig pcfg;
    pcfg.workers = 3;
    pcfg.min_batch_work = 0;
    pcfg.shards_per_thread = 3;
    pcfg.shard_order_salt = salt;  // permutes which shard is claimed first
    const InterpretedRun par = run_parallel(rd.dag, factory, 4, pcfg);
    EXPECT_EQ(par.digests, serial.digests) << "salt=" << salt;
    EXPECT_EQ(par.indications, serial.indications) << "salt=" << salt;
  }
}

TEST(ParallelInterpreter, IncrementalBatchesMatchOneShot) {
  brb::BrbFactory factory;
  BlockForge forge(4);
  RandomDagConfig cfg;
  cfg.broadcasts = 6;
  const auto rd = make_random_dag(forge, cfg, 11);
  const InterpretedRun serial = run_serial(rd.dag, factory, 4);

  // Re-grow the DAG chunk by chunk, running the engine at every step —
  // the live deployment's shape (gossip inserts, then interpretation runs).
  ParallelInterpretConfig pcfg;
  pcfg.workers = 2;
  pcfg.min_batch_work = 0;
  ParallelInterpreter engine(pcfg);
  engine.start();
  BlockDag growing;
  Interpreter interp(growing, factory, 4);
  std::vector<Raised> indications;
  interp.set_indication_handler(
      [&indications](Label label, const Bytes& ind, ServerId on_behalf) {
        indications.emplace_back(label, ind, on_behalf);
      });
  const auto& order = rd.dag.topological_order();
  std::size_t batches = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    growing.insert(order[i]);
    if (i % 3 == 2 || i + 1 == order.size()) {
      engine.run(interp);
      ++batches;
    }
  }
  EXPECT_EQ(interp.stats().blocks_interpreted, rd.dag.size());
  EXPECT_EQ(interp.stats().parallel_batches + interp.stats().serial_batches,
            batches);
  std::vector<Bytes> digests;
  for (const BlockPtr& b : rd.dag.topological_order()) {
    digests.push_back(interp.digest_of(b->ref()));
  }
  EXPECT_EQ(digests, serial.digests);
  EXPECT_EQ(indications, serial.indications);
  expect_same_effort(interp.stats(), serial.stats);
}

TEST(ParallelInterpreter, FallsBackToSerialBelowMinBatchWork) {
  brb::BrbFactory factory;
  BlockForge forge(4);
  RandomDagConfig cfg;
  cfg.broadcasts = 3;
  const auto rd = make_random_dag(forge, cfg, 3);
  const InterpretedRun serial = run_serial(rd.dag, factory, 4);

  ParallelInterpretConfig pcfg;
  pcfg.workers = 2;
  pcfg.min_batch_work = 1u << 20;  // nothing clears this bar
  const InterpretedRun par = run_parallel(rd.dag, factory, 4, pcfg);
  EXPECT_EQ(par.digests, serial.digests);
  EXPECT_EQ(par.indications, serial.indications);
  EXPECT_EQ(par.stats.parallel_batches, 0u);
  EXPECT_EQ(par.stats.serial_batches, 1u);
  EXPECT_EQ(par.stats.work_units, 0u);
}

TEST(ParallelInterpreter, StoppedPoolDegradesToSerial) {
  brb::BrbFactory factory;
  BlockForge forge(4);
  RandomDagConfig cfg;
  cfg.broadcasts = 4;
  const auto rd = make_random_dag(forge, cfg, 5);
  const InterpretedRun serial = run_serial(rd.dag, factory, 4);

  // Never start()ed: zero pool threads, every batch takes the serial path.
  ParallelInterpretConfig pcfg;
  pcfg.workers = 4;
  pcfg.min_batch_work = 0;
  InterpretedRun par;
  {
    ParallelInterpreter engine(pcfg);
    Interpreter interp(rd.dag, factory, 4);
    interp.set_indication_handler(
        [&par](Label label, const Bytes& ind, ServerId on_behalf) {
          par.indications.emplace_back(label, ind, on_behalf);
        });
    engine.run(interp);
    for (const BlockPtr& b : rd.dag.topological_order()) {
      par.digests.push_back(interp.digest_of(b->ref()));
    }
    par.stats = interp.stats();
  }
  EXPECT_EQ(par.digests, serial.digests);
  EXPECT_EQ(par.indications, serial.indications);
  EXPECT_EQ(par.stats.parallel_batches, 0u);
  EXPECT_EQ(par.stats.serial_batches, 1u);
}

TEST(ParallelInterpreter, EquivocationForksInParentChain) {
  // Equivocating builder: two distinct blocks at (server 0, k=1), both
  // children of b0 and both referenced by server 1 — the engine's
  // inherited-state walk must resolve parents exactly as the serial
  // interpreter does, forks included.
  brb::BrbFactory factory;
  BlockForge forge(2);
  const testing::LateFork f(forge);
  ASSERT_NE(f.fork_a->ref(), f.fork_b->ref());

  BlockDag dag;
  for (const BlockPtr& b : {f.b0, f.fork_a, f.fork_b, f.c, f.d}) {
    ASSERT_TRUE(dag.insert(b));
  }

  const InterpretedRun serial = run_serial(dag, factory, 2);
  ParallelInterpretConfig pcfg;
  pcfg.workers = 2;
  pcfg.min_batch_work = 0;
  const InterpretedRun par = run_parallel(dag, factory, 2, pcfg);
  EXPECT_EQ(par.digests, serial.digests);
  EXPECT_EQ(par.indications, serial.indications);
  expect_same_effort(par.stats, serial.stats);
  EXPECT_EQ(par.stats.chain_replays, 1u);

  // Late fork: fork_b arrives only after fork_a was interpreted and took
  // b0's B.PIs, so the engine re-derives them before fanning out — one
  // replay, and none for the later forks. Every digest and instance state
  // must match the serial interpreter fed the same batches, and one that
  // received fork_b first.
  BlockDag reference_dag;
  for (const BlockPtr& b : f.fork_b_first()) ASSERT_TRUE(reference_dag.insert(b));
  Interpreter reference(reference_dag, factory, 2);
  reference.run();

  ParallelInterpreter engine(pcfg);
  engine.start();
  BlockDag serial_dag;
  BlockDag engine_dag;
  Interpreter serial_late(serial_dag, factory, 2);
  Interpreter engine_late(engine_dag, factory, 2);
  const std::vector<BlockPtr> stages[] = {f.early(), f.late(), f.later()};
  const std::uint64_t replays_after[] = {0, 1, 1};
  for (std::size_t i = 0; i < 3; ++i) {
    for (const BlockPtr& b : stages[i]) {
      ASSERT_TRUE(serial_dag.insert(b));
      ASSERT_TRUE(engine_dag.insert(b));
    }
    serial_late.run();
    engine.run(engine_late);
    EXPECT_EQ(engine_late.stats().chain_replays, replays_after[i]) << "stage " << i;
    expect_same_effort(engine_late.stats(), serial_late.stats());
  }
  EXPECT_GT(engine_late.stats().parallel_batches, 0u);
  for (const BlockPtr& b : f.fork_b_first()) {
    EXPECT_EQ(engine_late.digest_of(b->ref()), reference.digest_of(b->ref()));
    EXPECT_EQ(serial_late.digest_of(b->ref()), reference.digest_of(b->ref()));
    const auto want = testing::serialized_instances(reference, b->ref());
    ASSERT_TRUE(want.has_value());
    EXPECT_EQ(testing::serialized_instances(engine_late, b->ref()), want);
  }
}

TEST(ParallelInterpreter, ByzantineClusterDagOffline) {
  // An adversarial DAG grown by the deterministic cluster (equivocator +
  // duplicate-referencer in the mix), then re-interpreted offline: the
  // engine must agree with the serial interpreter on hostile shapes too.
  brb::BrbFactory factory;
  ClusterConfig cfg;
  cfg.n_servers = 5;
  cfg.seed = 1234;
  cfg.byzantine[3] = ByzantineKind::kEquivocator;
  cfg.byzantine[4] = ByzantineKind::kDuplicateReferencer;
  Cluster cluster(factory, cfg);
  cluster.start();
  for (std::uint32_t i = 0; i < 6; ++i) {
    cluster.request(i % 3, 1 + i, brb::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
  }
  cluster.run_for(sim_ms(400));
  cluster.stop();

  const BlockDag& dag = cluster.shim(0).dag();
  ASSERT_GT(dag.size(), 0u);
  const InterpretedRun serial = run_serial(dag, factory, 5);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    ParallelInterpretConfig pcfg;
    pcfg.workers = workers;
    pcfg.min_batch_work = 0;
    const InterpretedRun par = run_parallel(dag, factory, 5, pcfg);
    EXPECT_EQ(par.digests, serial.digests) << "workers=" << workers;
    EXPECT_EQ(par.indications, serial.indications) << "workers=" << workers;
    expect_same_effort(par.stats, serial.stats);
  }
}

TEST(ParallelInterpreter, EngineOnThreadedRuntimeConverges) {
  // End-to-end: the engine mounted by ThreadedRuntime (forced on with two
  // workers and a zero fan-out bar), live traffic, then the standard
  // Lemma 3.7 / 4.2 convergence check plus proof the parallel path ran.
  brb::BrbFactory factory;
  rt::ThreadedConfig cfg;
  cfg.n_servers = 4;
  cfg.pacing.interval = sim_ms(2);
  cfg.interpret_workers = 2;
  cfg.interpret.min_batch_work = 0;
  rt::ThreadedRuntime runtime(factory, cfg);
  ASSERT_EQ(runtime.interpret_workers(), 2u);
  runtime.start();
  for (std::uint32_t i = 0; i < 8; ++i) {
    runtime.request(i % 4, 1 + i,
                    brb::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
  }
  ASSERT_TRUE(runtime.quiesce_and_converge());
  const Bytes interp0 = runtime.interpretation_digest(0);
  const Bytes dag0 = runtime.dag_digest(0);
  for (ServerId s = 1; s < 4; ++s) {
    EXPECT_EQ(runtime.dag_digest(s), dag0);
    EXPECT_EQ(runtime.interpretation_digest(s), interp0);
  }
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(runtime.indicated_count(1 + i), 4u);
  }
  const InterpreterStats stats = runtime.interpreter_stats();
  EXPECT_GT(stats.parallel_batches, 0u);
  EXPECT_GT(stats.work_units, 0u);
  runtime.shutdown();
}

}  // namespace
}  // namespace blockdag
