// Scenario engine: seeded adversarial executions with always-on property
// checking (DESIGN.md §6).
//
// Every run in this repository is a pure function of (configuration, seed)
// — DESIGN.md §2 — so FoundationDB-style seeded exploration comes almost
// for free: derive a randomized FaultPlan from the seed, drive a Cluster
// through it, and assert the paper's properties on the way out:
//   * Theorem 5.1 via the protocol checkers (runtime/checkers.h) with
//     run_completed = true once the run has quiesced;
//   * Lemma 3.7 joint-DAG convergence (identical vertex sets after the
//     convergence flush);
//   * Lemma 4.2 via interpretation digests: every block present at two
//     correct servers must carry bit-identical interpretation state.
// A failing seed reproduces exactly with `simctl replay --seed S …`.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "protocol/protocol.h"
#include "runtime/faultplan.h"

namespace blockdag {

// Scenario instances live on labels kScenarioLabelBase + i, clear of the
// low labels byzantine behaviours inscribe garbage requests on.
inline constexpr Label kScenarioLabelBase = 100;

struct ScenarioResult {
  // Checker violations, digest divergences, convergence/termination
  // failures. Empty ⇔ the scenario passed.
  std::vector<std::string> violations;
  bool converged = false;       // Lemma 3.7: identical DAGs after the flush
  std::size_t blocks = 0;       // joint-DAG size at the witness server
  std::size_t deliveries = 0;   // user indications across correct servers
  std::size_t labels_complete = 0;  // instances indicated at every correct server
  Bytes run_digest;  // deterministic digest of the whole execution (DAG +
                     // interpretation digests + indication logs); equal
                     // digests ⇔ equal runs, pinning seed-replayability

  bool ok() const { return violations.empty(); }
};

// The factory of the embeddable P `protocol` names (brb, bcb, fifo, pbft,
// beacon); nullptr for any other name.
const ProtocolFactory* protocol_factory(const std::string& protocol);

// Runs one scenario to completion. Deterministic: equal configs produce
// equal results (including run_digest). run_digest folds every block's
// Interpreter::digest_of, or `block_digest` where a test passes one to pin
// another encoding; the Lemma 4.2 divergence check always compares
// digest_of.
class Interpreter;
using BlockDigestFn = std::function<Bytes(const Interpreter&, const Hash256&)>;
ScenarioResult run_scenario(const ScenarioConfig& config,
                            const BlockDigestFn& block_digest = nullptr);

// JSON document describing the run: config, derived fault plan, result.
// Written by `simctl replay --trace`.
std::string scenario_trace_json(const ScenarioConfig& config,
                                const FaultPlan& plan,
                                const ScenarioResult& result);

}  // namespace blockdag
