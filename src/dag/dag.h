// Block DAG (Definitions 2.1, 3.4).
//
// A directed acyclic graph whose vertices are blocks and whose edges run
// from each B ∈ B'.preds to B'. Insertion follows the restricted
// Definition 2.1: a new vertex may only be added together with edges *into*
// it from vertices already present. Lemma 2.2 then gives: insertion is
// idempotent, the old graph is a subgraph (G ⩽ G') of the new one, and the
// graph stays acyclic by construction. The precondition of Definition 3.4
// (all preds present, block valid for the owner) is asserted by the caller
// (gossip) via the Validator; the DAG itself enforces the structural part.
//
// Representation: every inserted block gets a dense BlockIdx (assigned in
// insertion = topological order), and all graph structure — pred lists,
// child lists, the parent link of Definition 3.1 — is resolved to indices
// once, at insert time. Consumers on the hot path (the interpreter, graph
// walks) work purely on indices over contiguous arrays; the Hash256-keyed
// methods remain as a thin lookup shell for everything else. Pruning
// (§7 extension) tombstones slots instead of compacting, so indices stay
// stable across prune_below — the interpreter's per-index state never needs
// remapping. A tombstone keeps only the empty Node shell (~48 bytes); the
// block payload and interpretation state are freed, which is what the §7
// memory bound is about.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dag/block.h"
#include "dag/block_store.h"

namespace blockdag {

// Dense index of a block in its BlockDag, assigned at insert in
// topological order. Stable for the lifetime of the DAG (pruning
// tombstones, it does not compact).
using BlockIdx = std::uint32_t;

inline constexpr BlockIdx kNoBlockIdx = std::numeric_limits<BlockIdx>::max();

class BlockDag {
 public:
  // Inserts `block`; every pred must already be in the DAG (Definition 3.4
  // precondition). Returns false (and leaves the DAG unchanged) if a pred
  // is missing; returns true (idempotently) if the block was or is now
  // present. Duplicate entries in `preds` collapse to one edge — the edge
  // set is a set, and Ms[in] union semantics (Algorithm 2 line 9) make the
  // duplicate-reference byzantine behaviour harmless.
  bool insert(BlockPtr block);

  // True iff `ref` is a LIVE block of this DAG (pruned blocks are gone).
  bool contains(const Hash256& ref) const {
    const auto it = index_.find(ref);
    return it != index_.end() && alive(it->second);
  }
  // True iff `ref` was ever inserted (live or since pruned) or registered
  // as a pruned tombstone. Gossip uses this to drop re-deliveries of
  // pruned history (state sync can replay old blocks) without re-accepting
  // or FWD-requesting them.
  bool known(const Hash256& ref) const { return index_.count(ref) > 0; }
  BlockPtr get(const Hash256& ref) const;

  // Dense index of `ref`, kNoBlockIdx if never present. Pruned blocks keep
  // their (tombstone) slot and index entry.
  BlockIdx index_of(const Hash256& ref) const;

  // ------------------------------------------------------------------
  // Index-based hot-path API. Valid indices are [0, node_count()); a slot
  // may be a pruned tombstone — check alive() before dereferencing.
  // ------------------------------------------------------------------
  std::size_t node_count() const { return nodes_.size(); }  // incl. tombstones
  bool alive(BlockIdx i) const {
    return i < nodes_.size() && nodes_[i].block != nullptr;
  }
  const BlockPtr& block_at(BlockIdx i) const { return nodes_[i].block; }
  // Pred indices, deduplicated, in block-order of first occurrence. Entries
  // may be tombstones after pruning.
  const std::vector<BlockIdx>& preds_of(BlockIdx i) const { return nodes_[i].preds; }
  const std::vector<BlockIdx>& children_of(BlockIdx i) const {
    return nodes_[i].children;
  }
  // The parent of Definition 3.1 (unique pred with the same builder),
  // resolved once at insert; kNoBlockIdx for genesis blocks or when absent.
  BlockIdx parent_of(BlockIdx i) const { return nodes_[i].parent; }

  std::size_t size() const { return order_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  // Blocks in insertion order — a valid topological order, because every
  // block is inserted only after all its preds (Definition 3.4).
  const std::vector<BlockPtr>& topological_order() const { return order_; }

  // Direct successors of `ref`: blocks B' with ref ∈ B'.preds.
  std::vector<Hash256> children(const Hash256& ref) const;

  // The parent of `block` — the unique pred with the same builder
  // (Definition 3.1); nullptr for genesis blocks or when absent.
  BlockPtr parent_of(const Block& block) const;

  // G1 ⩽ G2: V1 ⊆ V2 and E1 = E2 ∩ (V1 × V1) (Section 2). For block DAGs
  // built by insert() the edge condition is automatic (edges are fully
  // determined by preds lists), so this reduces to vertex containment.
  bool subgraph_of(const BlockDag& other) const;

  // True if `ancestor ⇀+ descendant` (strict reachability). Both blocks
  // must currently be in the DAG.
  bool reachable(const Hash256& ancestor, const Hash256& descendant) const;

  // All blocks B' with B' ⇀* B (ancestors including B itself).
  std::vector<BlockPtr> ancestors_of(const Hash256& ref) const;

  // Merges every block of `other` that this DAG can accept (used by tests
  // exercising joint DAGs, Lemma 3.7 / A.7).
  void absorb(const BlockDag& other);

  // Called by the prune operations with the set they are about to remove
  // (doomed[i] != 0, indexed by BlockIdx) while those blocks are still
  // live: Interpreter::retain_frontier keeps what it must re-derive from
  // them.
  using PruneObserver = std::function<void(const std::vector<char>& doomed)>;

  // Removes all blocks strictly below the given checkpoint refs (their
  // proper ancestors) — the §7 bounded-memory extension. Returns the number
  // of blocks removed. Slots are tombstoned; indices of survivors are
  // unchanged.
  std::size_t prune_below(const std::vector<Hash256>& checkpoints,
                          const PruneObserver& before = nullptr);

  // Removes exactly the blocks that are proper ancestors of EVERY tip —
  // the epoch-GC rule (src/sync): once all n servers' latest blocks sit
  // above a block, every server has referenced it exactly once (Lemma A.6)
  // and no crash-fault execution can reference it again. Returns the number
  // of blocks removed; returns 0 (and prunes nothing) if any tip is missing
  // or dead. Tips themselves are never pruned (a block is not its own
  // proper ancestor).
  std::size_t prune_common_ancestors(const std::vector<Hash256>& tips,
                                     const PruneObserver& before = nullptr);

  // Registers `ref` as a pruned tombstone without ever having held the
  // block: checkpoint restore uses this for horizon refs (pruned preds of
  // live blocks) so that re-inserted live blocks resolve all their preds.
  // Idempotent; returns the (possibly pre-existing) slot index.
  BlockIdx register_pruned(const Hash256& ref);

 private:
  // Shared tombstone pass of the prune operations. `doomed` must be
  // ancestor-closed over live blocks.
  std::size_t tombstone_doomed(const std::vector<char>& doomed,
                               const PruneObserver& before);

  struct Node {
    BlockPtr block;  // nullptr ⇒ pruned tombstone
    std::vector<BlockIdx> preds;
    std::vector<BlockIdx> children;
    BlockIdx parent = kNoBlockIdx;
  };

  std::unordered_map<Hash256, BlockIdx> index_;
  std::vector<Node> nodes_;       // indexed by BlockIdx
  std::vector<BlockPtr> order_;   // live blocks only, insertion order
  std::size_t edge_count_ = 0;
};

}  // namespace blockdag
