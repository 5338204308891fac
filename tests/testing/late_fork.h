// An equivocating builder whose second child of a parent arrives late:
// after the first child was interpreted and took the parent's B.PIs
// (interpret/interpreter.h, "Retention"). Shared by the serial and the
// parallel-engine late-fork tests.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "interpret/interpreter.h"
#include "protocols/brb.h"
#include "testing/builders.h"

namespace blockdag::testing {

struct LateFork {
  // Server 0 builds b0, then two children at k = 1: fork_a, and fork_b,
  // which arrives after fork_a was interpreted. Server 1's c references
  // both; server 0's d extends fork_a. fork_c (a third child of b0) and e
  // (a second child of fork_a, next to d) are later forks by the same
  // builder.
  BlockPtr b0, fork_a, fork_b, c, d, fork_c, e;

  explicit LateFork(BlockForge& forge) {
    b0 = forge.block(0, 0, {}, {{1, brb::make_broadcast(Bytes{7})}});
    fork_a = forge.block(0, 1, {b0->ref()});
    fork_b = forge.block(0, 1, {b0->ref()}, {{2, brb::make_broadcast(Bytes{9})}});
    c = forge.block(1, 0, {fork_a->ref(), fork_b->ref()});
    d = forge.block(0, 2, {fork_a->ref(), c->ref()});
    fork_c = forge.block(0, 1, {b0->ref()}, {{3, brb::make_broadcast(Bytes{5})}});
    e = forge.block(0, 2, {fork_a->ref()}, {{4, brb::make_broadcast(Bytes{3})}});
  }

  // Arrival order of the late run: fork_b only after fork_a was
  // interpreted, the later forks last.
  std::vector<BlockPtr> early() const { return {b0, fork_a}; }
  std::vector<BlockPtr> late() const { return {fork_b, c, d}; }
  std::vector<BlockPtr> later() const { return {fork_c, e}; }
  // The reference run's order: fork_b first, so fork_a is the fork.
  std::vector<BlockPtr> fork_b_first() const {
    return {b0, fork_b, fork_a, c, d, fork_c, e};
  }
};

// B.PIs as (label, serialize()) pairs; nullopt when not derivable.
inline std::optional<std::vector<std::pair<Label, Bytes>>> serialized_instances(
    const Interpreter& interp, const Hash256& ref) {
  const std::optional<InstanceMap> pis = interp.instances_at(ref);
  if (!pis) return std::nullopt;
  std::vector<std::pair<Label, Bytes>> out;
  for (const auto& [label, proc] : *pis) out.emplace_back(label, proc->serialize());
  return out;
}

}  // namespace blockdag::testing
