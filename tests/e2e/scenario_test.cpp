// Scenario engine (DESIGN.md §6), tier-1 slice: a pinned seed set across
// all five embedded protocols runs the full randomized fault schedule —
// partitions, latency/drop regimes, crash/recovery churn, byzantine mixes,
// request bursts — with every checker on. The wide sweep lives in the
// `slow` ctest target tools/simctl_fuzz (seeds 0..200).
#include <gtest/gtest.h>

#include <set>

#include "runtime/scenario.h"
#include "testing/legacy_digest.h"
#include "util/hex.h"

namespace blockdag {
namespace {

struct PinnedSeed {
  const char* protocol;
  std::uint64_t seed;
  std::uint32_t n;
};

TEST(Scenario, PinnedSeedSweep) {
  // Seeds 11 (bcb/10) and 24 (beacon/7) are the regressions that surfaced
  // while standing the engine up: persistent drop regimes starved the
  // post-quiesce convergence flush (Cluster::quiesce_and_converge) — keep
  // them pinned.
  const PinnedSeed pinned[] = {
      {"brb", 5, 4},     {"brb", 12, 7},   {"bcb", 1, 4},   {"bcb", 11, 10},
      {"fifo", 7, 4},    {"fifo", 22, 7},  {"pbft", 3, 4},  {"pbft", 33, 7},
      {"beacon", 24, 7}, {"beacon", 9, 4},
  };
  for (const PinnedSeed& p : pinned) {
    ScenarioConfig cfg;
    cfg.seed = p.seed;
    cfg.protocol = p.protocol;
    cfg.n_servers = p.n;
    const ScenarioResult result = run_scenario(cfg);
    EXPECT_TRUE(result.ok())
        << p.protocol << " seed " << p.seed << ": " << result.violations.front();
    EXPECT_TRUE(result.converged) << p.protocol << " seed " << p.seed;
    EXPECT_EQ(result.labels_complete, cfg.instances)
        << p.protocol << " seed " << p.seed;
    EXPECT_GT(result.blocks, 0u);
    EXPECT_GT(result.deliveries, 0u);
  }
}

TEST(Scenario, DeterministicReplay) {
  // The seed-replay contract: a scenario is a pure function of its config,
  // down to the run digest (DAG + interpretation digests + indication
  // logs). This is what makes a one-line fuzz repro exact.
  ScenarioConfig cfg;
  cfg.seed = 42;
  cfg.protocol = "brb";
  cfg.n_servers = 7;
  const ScenarioResult a = run_scenario(cfg);
  const ScenarioResult b = run_scenario(cfg);
  ASSERT_TRUE(a.ok()) << a.violations.front();
  EXPECT_EQ(a.run_digest, b.run_digest);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.violations, b.violations);

  // A different seed is (overwhelmingly) a different execution.
  cfg.seed = 43;
  const ScenarioResult c = run_scenario(cfg);
  EXPECT_NE(a.run_digest, c.run_digest);
}

TEST(Scenario, GoldenRunDigests) {
  // Cross-commit pin: run_digest folds a digest of every block's
  // interpretation state (Lemma 4.2), so fixed values prove that state
  // stays byte-identical across representation changes of B.PIs, of its
  // retention, or of a protocol's internal state. Two encodings are pinned
  // side by side. `legacy` folds the flat digest every value was first
  // recorded under, rebuilt from Interpreter::instances_at and the
  // buffers (tests/testing/legacy_digest.h); these strings predate chained
  // digests and must never change. `chained` folds Interpreter::digest_of
  // itself, as every runtime does. Reproduce a chained value with
  // `simctl replay --seed S --protocol P --n 4 --trace F`.
  struct Golden {
    const char* protocol;
    std::uint64_t seed;
    const char* legacy;
    const char* chained;
  };
  const Golden golden[] = {
      {"brb", 5, "ce36574c92140668e572cf36d187b31fe590d655cda4a437f2dc2180d14b997e",
       "133dec2625b2432db5f18b3472d34a3253653109545e0e9295e92fc1331855d0"},
      {"bcb", 1, "eb01cf35213b2e5fe58fcd4c2d3cf9c6dbcc6951bfb7931dc72e81535c7dd99f",
       "4af64c715cc8bb82028446516737100e700436619f5def983c51095bd0954578"},
      {"fifo", 7, "c0d19019efadfcf1bf64bc443d1efe1ad3740a97d638c10c7687897051aef58a",
       "a34cd2d111be4f165e5597712ed7e747106c01473fc794374cc8e3e788f2a42e"},
      {"pbft", 3, "cf77a7351a5cb1460e57ecd595addd9ec156b836db197813efbceb8dd76bfb6d",
       "714f2e2313e40ce29d094dda1ea7e2c8212559ff616e4bb22c5fbfa9006497f3"},
      {"beacon", 9, "e80313fdddb314fd735dd5bb64fc04e86296218f256368d46f141591dcbea6d1",
       "b8d948ced0090aa3a90139e7e01a1508713a1f3ea52225e327cc5c94d844e4fc"},
  };
  const auto hex = [](const Bytes& b) { return to_hex(std::span(b.data(), b.size())); };
  for (const Golden& g : golden) {
    ScenarioConfig cfg;
    cfg.seed = g.seed;
    cfg.protocol = g.protocol;
    cfg.n_servers = 4;
    const ScenarioResult chained = run_scenario(cfg);
    ASSERT_TRUE(chained.ok()) << g.protocol << " seed " << g.seed;
    EXPECT_EQ(hex(chained.run_digest), g.chained) << g.protocol << " seed " << g.seed;
    const ScenarioResult legacy = run_scenario(cfg, testing::legacy_digest_of);
    ASSERT_TRUE(legacy.ok()) << g.protocol << " seed " << g.seed;
    EXPECT_EQ(hex(legacy.run_digest), g.legacy) << g.protocol << " seed " << g.seed;
  }
}

TEST(Scenario, UnknownProtocolIsAnError) {
  EXPECT_EQ(protocol_factory("paxos"), nullptr);
  ScenarioConfig cfg;
  cfg.protocol = "paxos";
  const ScenarioResult result = run_scenario(cfg);
  EXPECT_FALSE(result.ok());
}

TEST(FaultPlan, InvariantsAcrossSeeds) {
  // The checkers' soundness rests on every derived plan obeying the
  // invariants documented in faultplan.h; sweep them over many seeds and
  // sizes (a pure-function sweep — no simulation, so it is cheap).
  const std::uint32_t sizes[] = {4, 7, 10, 13};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    ScenarioConfig cfg;
    cfg.seed = seed;
    cfg.n_servers = sizes[seed % 4];
    const SimTime d = effective_duration(cfg);
    const FaultPlan plan = derive_fault_plan(cfg);

    // Determinism of the derivation itself.
    EXPECT_EQ(plan.summary(), derive_fault_plan(cfg).summary());

    EXPECT_LE(plan.byzantine.size(), max_faulty(cfg.n_servers)) << seed;
    EXPECT_GE(plan.pacing.interval, sim_ms(5));
    EXPECT_LE(plan.pacing.interval, sim_ms(12));

    std::set<ServerId> crashed;
    for (const auto& churn : plan.churn) {
      EXPECT_FALSE(plan.byzantine.count(churn.server)) << seed;
      EXPECT_TRUE(crashed.insert(churn.server).second) << seed;
      EXPECT_GE(churn.crash_at, (d * 45) / 100) << seed;
      EXPECT_GT(churn.recover_at, churn.crash_at) << seed;
      EXPECT_LE(churn.recover_at, (d * 85) / 100) << seed;
    }

    // Bursts cover every instance exactly once (they are sorted by time,
    // not by instance range).
    std::set<std::uint32_t> covered;
    for (const auto& burst : plan.bursts) {
      for (std::uint32_t i = 0; i < burst.count; ++i) {
        EXPECT_TRUE(covered.insert(burst.first_instance + i).second) << seed;
      }
      // Bursts finish (plus a few dissemination beats) before any crash
      // window opens: a burst's requests are always inscribed before their
      // target can crash, since the request buffer is not persisted.
      for (const auto& churn : plan.churn) {
        EXPECT_LT(burst.at + 3 * plan.pacing.interval, churn.crash_at) << seed;
      }
    }
    EXPECT_EQ(covered.size(), cfg.instances) << seed;
    if (!covered.empty()) {
      EXPECT_EQ(*covered.begin(), 0u) << seed;
      EXPECT_EQ(*covered.rbegin(), cfg.instances - 1) << seed;
    }

    for (const auto& partition : plan.partitions) {
      EXPECT_FALSE(partition.side_a.empty()) << seed;
      EXPECT_FALSE(partition.side_b.empty()) << seed;
      EXPECT_EQ(partition.side_a.size() + partition.side_b.size(), cfg.n_servers)
          << seed;
      EXPECT_GT(partition.heal_at, partition.at) << seed;
      EXPECT_LE(partition.heal_at, (d * 9) / 10) << seed;
    }

    for (const auto& regime : plan.regimes) {
      EXPECT_GE(regime.at, d / 10) << seed;
      EXPECT_LE(regime.at, (d * 8) / 10) << seed;
      EXPECT_GE(regime.max_drops_per_pair, 12u) << seed;
      EXPECT_LE(regime.drop_probability, 0.25) << seed;
    }
  }
}

TEST(Scenario, CrashChurnScenarioStaysCorrect) {
  // A seed whose plan actually crashes servers (pinning the crash-recovery
  // path end-to-end through the engine): derive plans until one has churn,
  // then run it.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    ScenarioConfig cfg;
    cfg.seed = seed;
    cfg.protocol = "brb";
    cfg.n_servers = 4;
    if (derive_fault_plan(cfg).churn.empty()) continue;
    const ScenarioResult result = run_scenario(cfg);
    EXPECT_TRUE(result.ok()) << "seed " << seed << ": "
                             << result.violations.front();
    EXPECT_TRUE(result.converged);
    return;
  }
  FAIL() << "no seed below 64 derives a crash-churn plan";
}

}  // namespace
}  // namespace blockdag
