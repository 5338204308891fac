#include "dag/dag.h"

#include <algorithm>
#include <deque>

namespace blockdag {

bool BlockDag::insert(BlockPtr block) {
  const Hash256& ref = block->ref();
  // Lemma 2.2(1): idempotent — including re-delivery of since-pruned
  // blocks (their tombstones keep the index entry), which state sync can
  // legitimately replay.
  if (index_.count(ref)) return true;

  // Resolve preds to dense indices up front; a missing pred aborts before
  // any mutation (Definition 3.4 precondition). Duplicates collapse — the
  // edge set is a set.
  std::vector<BlockIdx> preds;
  preds.reserve(block->preds().size());
  for (const Hash256& p : block->preds()) {
    const auto it = index_.find(p);
    if (it == index_.end()) return false;
    if (std::find(preds.begin(), preds.end(), it->second) == preds.end()) {
      preds.push_back(it->second);
    }
  }

  // Resolve the Definition 3.1 parent once: first pred with the same
  // builder and a smaller sequence number.
  BlockIdx parent = kNoBlockIdx;
  if (!block->is_genesis()) {
    for (BlockIdx p : preds) {
      const BlockPtr& cand = nodes_[p].block;
      // Preds may be registered tombstones (register_pruned) after a
      // checkpoint restore; a tombstone cannot be the parent.
      if (cand && cand->n() == block->n() && cand->k() < block->k()) {
        parent = p;
        break;
      }
    }
  }

  const BlockIdx idx = static_cast<BlockIdx>(nodes_.size());
  for (BlockIdx p : preds) {
    nodes_[p].children.push_back(idx);
    ++edge_count_;
  }
  Node node;
  node.block = block;
  node.preds = std::move(preds);
  node.parent = parent;
  nodes_.push_back(std::move(node));
  index_.emplace(ref, idx);
  order_.push_back(std::move(block));
  return true;
}

BlockPtr BlockDag::get(const Hash256& ref) const {
  const auto it = index_.find(ref);
  return it == index_.end() ? nullptr : nodes_[it->second].block;
}

BlockIdx BlockDag::index_of(const Hash256& ref) const {
  const auto it = index_.find(ref);
  return it == index_.end() ? kNoBlockIdx : it->second;
}

std::vector<Hash256> BlockDag::children(const Hash256& ref) const {
  std::vector<Hash256> out;
  const BlockIdx i = index_of(ref);
  if (i == kNoBlockIdx) return out;
  out.reserve(nodes_[i].children.size());
  for (BlockIdx c : nodes_[i].children) {
    if (alive(c)) out.push_back(nodes_[c].block->ref());
  }
  return out;
}

BlockPtr BlockDag::parent_of(const Block& block) const {
  if (block.is_genesis()) return nullptr;
  const BlockIdx i = index_of(block.ref());
  if (i != kNoBlockIdx) {
    const BlockIdx p = nodes_[i].parent;
    return p != kNoBlockIdx && alive(p) ? nodes_[p].block : nullptr;
  }
  // The block itself is not (or no longer) in this DAG: fall back to
  // scanning its pred hashes, as callers may hold foreign blocks.
  for (const Hash256& p : block.preds()) {
    const BlockPtr cand = get(p);
    if (cand && cand->n() == block.n() && cand->k() < block.k()) return cand;
  }
  return nullptr;
}

bool BlockDag::subgraph_of(const BlockDag& other) const {
  if (size() > other.size()) return false;
  return std::all_of(order_.begin(), order_.end(), [&](const BlockPtr& b) {
    return other.contains(b->ref());
  });
}

bool BlockDag::reachable(const Hash256& ancestor, const Hash256& descendant) const {
  const BlockIdx anc = index_of(ancestor);
  const BlockIdx desc = index_of(descendant);
  if (anc == kNoBlockIdx || desc == kNoBlockIdx) return false;
  if (anc == desc) return false;  // strict ⇀+
  // Walk backwards from descendant over preds with an index bitvector.
  std::vector<char> visited(nodes_.size(), 0);
  std::deque<BlockIdx> frontier{desc};
  visited[desc] = 1;
  while (!frontier.empty()) {
    const BlockIdx cur = frontier.front();
    frontier.pop_front();
    for (BlockIdx p : nodes_[cur].preds) {
      if (p == anc) return true;
      if (!visited[p]) {
        visited[p] = 1;
        if (alive(p)) frontier.push_back(p);
      }
    }
  }
  return false;
}

std::vector<BlockPtr> BlockDag::ancestors_of(const Hash256& ref) const {
  std::vector<BlockPtr> out;
  const BlockIdx start = index_of(ref);
  if (start == kNoBlockIdx) return out;
  std::vector<char> visited(nodes_.size(), 0);
  std::deque<BlockIdx> frontier{start};
  visited[start] = 1;
  while (!frontier.empty()) {
    const BlockIdx cur = frontier.front();
    frontier.pop_front();
    if (!alive(cur)) continue;  // pruned-away ancestor
    out.push_back(nodes_[cur].block);
    for (BlockIdx p : nodes_[cur].preds) {
      if (!visited[p]) {
        visited[p] = 1;
        frontier.push_back(p);
      }
    }
  }
  return out;
}

void BlockDag::absorb(const BlockDag& other) {
  // Other's insertion order is topological, so one pass suffices for blocks
  // whose preds are all present in either DAG.
  for (const BlockPtr& b : other.topological_order()) {
    insert(b);
  }
}

std::size_t BlockDag::prune_below(const std::vector<Hash256>& checkpoints,
                                  const PruneObserver& before) {
  // Collect proper ancestors of all checkpoints with an index bitvector.
  std::vector<char> doomed(nodes_.size(), 0);
  std::deque<BlockIdx> frontier;
  const auto mark = [&](BlockIdx p) {
    // Only live blocks count; earlier prunes may have left tombstones
    // (which is fine — pruned history is gone by design).
    if (alive(p) && !doomed[p]) {
      doomed[p] = 1;
      frontier.push_back(p);
    }
  };
  for (const Hash256& c : checkpoints) {
    const BlockIdx ci = index_of(c);
    if (ci == kNoBlockIdx || !alive(ci)) continue;
    for (BlockIdx p : nodes_[ci].preds) mark(p);
  }
  while (!frontier.empty()) {
    const BlockIdx cur = frontier.front();
    frontier.pop_front();
    for (BlockIdx p : nodes_[cur].preds) mark(p);
  }

  return tombstone_doomed(doomed, before);
}

std::size_t BlockDag::prune_common_ancestors(const std::vector<Hash256>& tips,
                                             const PruneObserver& before) {
  if (tips.empty()) return 0;
  // Per-tip ancestor sweeps accumulated into a counter; a block is doomed
  // iff it is a proper ancestor of EVERY tip. Each tip's proper-ancestor
  // set is ancestor-closed, so the intersection is ancestor-closed too —
  // the precondition of the tombstone pass.
  std::vector<std::uint32_t> hits(nodes_.size(), 0);
  std::vector<char> visited(nodes_.size(), 0);
  std::deque<BlockIdx> frontier;
  for (const Hash256& t : tips) {
    const BlockIdx ti = index_of(t);
    // All tips must be live blocks of this DAG; anything else means the
    // caller's tip census is stale — refuse to prune rather than guess.
    if (ti == kNoBlockIdx || !alive(ti)) return 0;
    std::fill(visited.begin(), visited.end(), 0);
    const auto mark = [&](BlockIdx p) {
      if (alive(p) && !visited[p]) {
        visited[p] = 1;
        ++hits[p];
        frontier.push_back(p);
      }
    };
    for (BlockIdx p : nodes_[ti].preds) mark(p);
    while (!frontier.empty()) {
      const BlockIdx cur = frontier.front();
      frontier.pop_front();
      for (BlockIdx p : nodes_[cur].preds) mark(p);
    }
  }
  std::vector<char> doomed(nodes_.size(), 0);
  bool any = false;
  for (BlockIdx i = 0; i < nodes_.size(); ++i) {
    if (hits[i] == tips.size()) {
      doomed[i] = 1;
      any = true;
    }
  }
  return any ? tombstone_doomed(doomed, before) : 0;
}

BlockIdx BlockDag::register_pruned(const Hash256& ref) {
  const auto it = index_.find(ref);
  if (it != index_.end()) return it->second;
  const BlockIdx idx = static_cast<BlockIdx>(nodes_.size());
  nodes_.emplace_back();  // block == nullptr ⇒ tombstone from birth
  index_.emplace(ref, idx);
  return idx;
}

std::size_t BlockDag::tombstone_doomed(const std::vector<char>& doomed,
                                       const PruneObserver& before) {
  // The doomed set is ancestor-closed, so every pred of a doomed block is
  // itself doomed. Hence every edge incident to a doomed block is an
  // *out*-edge of some doomed block (doomed → doomed or doomed → survivor),
  // and no surviving child list references a doomed block. Survivors' pred
  // lists may keep tombstone indices — consumers check alive().
  if (before) before(doomed);
  std::size_t removed = 0;
  order_.erase(std::remove_if(order_.begin(), order_.end(),
                              [&](const BlockPtr& b) {
                                const BlockIdx i = index_of(b->ref());
                                return i != kNoBlockIdx && doomed[i];
                              }),
               order_.end());
  for (BlockIdx i = 0; i < nodes_.size(); ++i) {
    if (!doomed[i]) continue;
    Node& node = nodes_[i];
    edge_count_ -= node.children.size();
    // The index entry stays: a pruned ref remains known(), so gossip can
    // drop replayed history instead of FWD-chasing it. The tombstone shell
    // was already part of the §7 memory model; the map entry adds O(1).
    node.block.reset();
    node.preds = {};
    node.children = {};
    node.parent = kNoBlockIdx;
    ++removed;
  }
  return removed;
}

}  // namespace blockdag
