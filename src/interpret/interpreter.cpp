#include "interpret/interpreter.h"

#include <cassert>
#include <utility>

#include "crypto/sha256.h"
#include "util/serialize.h"

namespace blockdag {

Interpreter::Interpreter(const BlockDag& dag, const ProtocolFactory& factory,
                         std::uint32_t n_servers)
    : dag_(dag), factory_(factory), n_servers_(n_servers) {}

bool Interpreter::is_interpreted(const Hash256& ref) const {
  return interpreted_at(dag_.index_of(ref));
}

bool Interpreter::eligible_at(BlockIdx idx) const {
  // eligible(B): B ∈ G, I[B] = false, and I[Bi] for every Bi ∈ B.preds.
  // A pruned-then-forgotten pred reads as uninterpreted, exactly like the
  // hash-keyed representation did.
  if (!dag_.alive(idx) || interpreted_at(idx)) return false;
  for (BlockIdx p : dag_.preds_of(idx)) {
    if (!interpreted_at(p)) return false;
  }
  return true;
}

bool Interpreter::eligible(const Hash256& ref) const {
  const BlockIdx idx = dag_.index_of(ref);
  return idx != kNoBlockIdx && eligible_at(idx);
}

const BlockInterpretation* Interpreter::state_at(BlockIdx idx) const {
  return interpreted_at(idx) ? &states_[idx] : nullptr;
}

const BlockInterpretation* Interpreter::state_of(const Hash256& ref) const {
  return state_at(dag_.index_of(ref));
}

std::size_t Interpreter::run() {
  assert(!batch_active_ && "serial run inside a parallel batch");
  sync_states();
  const std::size_t n = dag_.node_count();
  std::size_t done = 0;
  while (cursor_ < n) {
    if (!dag_.alive(cursor_) || states_[cursor_].interpreted) {
      ++cursor_;
      continue;
    }
    if (!eligible_at(cursor_)) break;  // can only happen after pruning
    interpret_block(cursor_);
    ++cursor_;
    ++done;
  }
  return done;
}

bool Interpreter::interpret_one(const Hash256& ref) {
  sync_states();
  const BlockIdx idx = dag_.index_of(ref);
  if (idx == kNoBlockIdx || !eligible_at(idx)) return false;
  interpret_block(idx);
  return true;
}

BlockInterpretation Interpreter::inherit(BlockIdx idx) {
  BlockInterpretation st;
  st.pis.emplace();
  const BlockIdx parent = dag_.parent_of(idx);
  if (parent == kNoBlockIdx) return st;  // genesis: fresh instances
  assert(interpreted_at(parent));  // the parent is a pred
  const Block& block = *dag_.block_at(idx);
  // Line 4. The parent's PIs are gone only if another child took them: B is
  // a fork by its builder.
  if (!states_[parent].pis) materialize(block.n());
  BlockInterpretation& from = states_[parent];
  if (!from.pis) {
    // The parent was restored from a checkpoint without its B.PIs, or its
    // chain runs into a frontier pruned without retain_frontier().
    ++stats_.states_lost;
    return st;
  }
  st.pis_digest = from.pis_digest;
  if (from.lends || keeps_all(block.n())) {
    st.pis = *from.pis;  // copies chunk handles only
  } else {
    st.pis = std::move(from.pis);
    from.pis.reset();
    --stats_.blocks_holding_pis;
  }
  return st;
}

std::vector<Interpreter::Advanced> Interpreter::advance(
    BlockIdx idx, const InstanceMap& pis,
    const FlatMap<Label, std::vector<Message>>& inbox, std::uint64_t* clones,
    const StepSink& sink) const {
  const Block& block = *dag_.block_at(idx);
  const ServerId owner = block.n();
  // Tracks per-label mutable working copies so multiple events to the same
  // label within this block clone at most once. A label with no inherited
  // instance starts fresh directly as the working copy (lazy start of
  // P(ℓ, B.n), Section 4) — no immutable placeholder + clone double
  // allocation, and fresh creates are not counted as clones.
  FlatMap<Label, std::unique_ptr<Process>> working;
  const auto working_for = [&](Label label) -> Process& {
    auto wit = working.find(label);
    if (wit == working.end()) {
      std::unique_ptr<Process> instance;
      const auto pit = pis.find(label);
      if (pit != pis.end()) {
        if (clones) ++*clones;
        instance = pit->second->clone();
      } else {
        instance = factory_.create(label, owner, n_servers_);
      }
      wit = working.emplace(label, std::move(instance)).first;
    }
    return *wit->second;
  };
  // Lines 5–6: the literal requests carried by this block, in the order
  // they were inscribed.
  for (const LabeledRequest& lr : block.rs()) {
    sink(lr.label, working_for(lr.label).on_request(lr.request));
  }
  // Lines 10–11: each in-message in <M order.
  for (const auto& [label, msgs] : inbox) {
    for (const Message& m : msgs) sink(label, working_for(label).on_message(m));
  }
  std::vector<Advanced> advanced;
  advanced.reserve(working.size());
  for (auto& [label, proc] : working) {
    Bytes digest = proc->change_digest();
    advanced.push_back({label, std::shared_ptr<const Process>(std::move(proc)),
                        std::move(digest)});
  }
  return advanced;
}

Sha256::Digest Interpreter::commit_instances(InstanceMap& pis,
                                             const Sha256::Digest& base,
                                             std::vector<Advanced> advanced) {
  Writer w;
  w.raw(base);
  std::vector<std::pair<Label, std::shared_ptr<const Process>>> batch;
  batch.reserve(advanced.size());
  for (Advanced& a : advanced) {
    w.u64(a.label);
    w.bytes(a.change_digest);
    batch.emplace_back(a.label, std::move(a.instance));
  }
  pis.apply(std::move(batch));
  return Sha256::digest(w.data());
}

void Interpreter::commit(BlockIdx idx, BlockInterpretation st,
                         std::vector<Advanced> advanced) {
  st.pis_digest = commit_instances(*st.pis, st.pis_digest, std::move(advanced));
  Writer w;
  w.u8(1);
  w.raw(st.pis_digest);
  const auto put_buffers = [&w](const FlatMap<Label, std::vector<Message>>& ms) {
    w.u32(static_cast<std::uint32_t>(ms.size()));
    for (const auto& [label, msgs] : ms) {
      w.u64(label);
      w.u32(static_cast<std::uint32_t>(msgs.size()));
      for (const Message& m : msgs) w.raw(m.canonical());
    }
  };
  put_buffers(st.ms_in);
  put_buffers(st.ms_out);
  st.digest = Sha256::digest(w.data());
  // Line 12: I[B] = true.
  st.interpreted = true;
  ++stats_.blocks_interpreted;
  ++stats_.blocks_holding_pis;
  states_[idx] = std::move(st);
}

void Interpreter::interpret_block(BlockIdx idx) {
  const Block& block = *dag_.block_at(idx);
  const ServerId owner = block.n();
  BlockInterpretation st = inherit(idx);

  // Lines 7–9: collect in-messages addressed to B.n from the out-buffers
  // of direct predecessors. Every label with out-messages was requested in
  // B's ancestry (Lemma A.12), so this walk covers exactly line 7's labels.
  // Ms[in, ℓ] has set semantics (∪), realized by sorting each flat
  // per-label buffer in <M order and dropping duplicates — which also
  // provides the line 10 iteration order.
  FlatMap<Label, std::vector<Message>> inbox;
  for (BlockIdx p : dag_.preds_of(idx)) {  // deduplicated
    if (!interpreted_at(p)) continue;  // pruned-away ancestor
    for (const auto& [label, msgs] : states_[p].ms_out) {
      for (const Message& m : msgs) {
        if (m.receiver == owner) inbox[label].push_back(m);
      }
    }
  }
  for (auto& [label, msgs] : inbox) {
    std::sort(msgs.begin(), msgs.end(), MessageOrder{});
    msgs.erase(std::unique(msgs.begin(), msgs.end()), msgs.end());
    stats_.messages_delivered += msgs.size();
  }
  stats_.requests_processed += block.rs().size();

  std::vector<std::pair<Label, Bytes>> raised;  // indications to emit last
  std::vector<Advanced> advanced = advance(
      idx, *st.pis, inbox, &stats_.instance_clones,
      [&](Label label, StepResult&& result) {
        auto& out = st.ms_out[label];
        for (auto& m : result.messages) {
          ++stats_.messages_materialized;
          out.push_back(std::move(m));
        }
        for (auto& i : result.indications) {
          raised.emplace_back(label, std::move(i));
        }
      });
  // The fed buffers are exactly B.Ms[in].
  st.ms_in = std::move(inbox);
  commit(idx, std::move(st), std::move(advanced));

  // Lines 13–14: surface indications as (ℓ, i, B.n).
  for (auto& [label, indication] : raised) {
    ++stats_.indications;
    if (on_indication_) on_indication_(label, indication, owner);
  }
}

std::optional<InstanceMap> Interpreter::instances_at(BlockIdx idx) const {
  if (!interpreted_at(idx)) return std::nullopt;
  // Walk up B.n's chain to the nearest block that holds its PIs, or to
  // where the chain starts over from empty state: no parent, a pruned one,
  // or a restored one that holds nothing (its Ms[in] was not saved).
  std::vector<BlockIdx> path;
  std::optional<InstanceMap> state;
  Sha256::Digest digest{};
  for (BlockIdx cur = idx;;) {
    const BlockInterpretation& st = states_[cur];
    if (st.pis) {
      state = *st.pis;
      digest = st.pis_digest;
      break;
    }
    if (st.restored) break;
    path.push_back(cur);
    cur = dag_.parent_of(cur);
    if (cur == kNoBlockIdx || !interpreted_at(cur)) break;
  }
  // Replay down the chain: B.rs, then the retained Ms[in], each step
  // checked against the stored pis_digest. A step with no state to start
  // from starts empty, which is where inherit() started it in that case.
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    const BlockInterpretation& st = states_[*it];
    InstanceMap pis = state ? std::move(*state) : InstanceMap{};
    std::vector<Advanced> advanced =
        advance(*it, pis, st.ms_in, nullptr, [](Label, StepResult&&) {});
    const Sha256::Digest from = state ? digest : Sha256::Digest{};
    if (commit_instances(pis, from, std::move(advanced)) == st.pis_digest) {
      state = std::move(pis);
    } else {
      state.reset();
    }
    digest = st.pis_digest;
  }
  return state;
}

std::optional<InstanceMap> Interpreter::instances_at(const Hash256& ref) const {
  const BlockIdx idx = dag_.index_of(ref);
  if (idx == kNoBlockIdx) return std::nullopt;
  return instances_at(idx);
}

void Interpreter::materialize(ServerId builder) {
  if (keeps_all(builder)) return;
  if (keeps_all_.size() <= builder) keeps_all_.resize(builder + 1, false);
  keeps_all_[builder] = true;
  ++stats_.chain_replays;
  // Dense order is topological: each block's parent holds its PIs again
  // by the time the block is reached, so instances_at() replays one step
  // per block.
  for (BlockIdx i = 0; i < states_.size(); ++i) {
    BlockInterpretation& st = states_[i];
    if (!st.interpreted || st.pis || !dag_.alive(i) ||
        dag_.block_at(i)->n() != builder) {
      continue;
    }
    st.pis = instances_at(i);
    if (st.pis) ++stats_.blocks_holding_pis;
  }
}

void Interpreter::retain_frontier(const std::vector<char>& doomed) {
  assert(!batch_active_ && "retain_frontier inside a parallel batch");
  sync_states();
  const auto is_doomed = [&](BlockIdx i) { return i < doomed.size() && doomed[i]; };
  for (BlockIdx i = 0; i < states_.size(); ++i) {
    BlockInterpretation& st = states_[i];
    if (!st.interpreted || !dag_.alive(i) || is_doomed(i)) continue;
    const BlockIdx parent = dag_.parent_of(i);
    if (parent == kNoBlockIdx || !is_doomed(parent)) continue;
    // The oldest survivor of its builder's chain: the replay that would
    // re-derive it needs the doomed blocks, so re-derive it now and keep
    // it for every later replay and fork.
    if (!st.pis) {
      st.pis = instances_at(i);
      if (st.pis) ++stats_.blocks_holding_pis;
    }
    st.lends = st.pis.has_value();
  }
}

bool Interpreter::restore_block(
    const Hash256& ref, const Sha256::Digest& digest,
    FlatMap<Label, std::vector<Message>> ms_out,
    const std::optional<Sha256::Digest>& pis_digest,
    const std::vector<std::pair<Label, Bytes>>& pis_serialized) {
  // Checkpoint restore happens only at batch quiescence: the engine's run()
  // is synchronous on the owner thread, so a restore can never observe (or
  // race) a half-merged batch.
  assert(!batch_active_ && "restore_block inside a parallel batch");
  sync_states();
  const BlockIdx idx = dag_.index_of(ref);
  if (idx == kNoBlockIdx || !dag_.alive(idx) || states_[idx].interpreted) {
    return false;
  }
  if (!pis_digest && !pis_serialized.empty()) return false;
  BlockInterpretation st;
  const ServerId owner = dag_.block_at(idx)->n();
  if (pis_digest) {
    std::vector<std::pair<Label, std::shared_ptr<const Process>>> pis;
    pis.reserve(pis_serialized.size());
    for (const auto& [label, bytes] : pis_serialized) {
      if (!pis.empty() && label <= pis.back().first) return false;
      auto instance = factory_.deserialize(label, owner, n_servers_, bytes);
      if (!instance) return false;
      pis.emplace_back(label, std::shared_ptr<const Process>(std::move(instance)));
    }
    st.pis.emplace();
    st.pis->apply(std::move(pis));
    st.pis_digest = *pis_digest;
    st.lends = true;
    ++stats_.blocks_holding_pis;
  }
  st.ms_out = std::move(ms_out);
  st.digest = digest;
  st.restored = true;
  st.interpreted = true;
  states_[idx] = std::move(st);
  return true;
}

Bytes Interpreter::digest_of(const Hash256& ref) const {
  const BlockInterpretation* st = state_of(ref);
  if (st) return Bytes(st->digest.begin(), st->digest.end());
  static constexpr std::uint8_t kUninterpreted[1] = {0};
  const auto digest = Sha256::digest(kUninterpreted);
  return Bytes(digest.begin(), digest.end());
}

void Interpreter::forget_pruned() {
  assert(!batch_active_ && "forget_pruned inside a parallel batch");
  sync_states();
  const std::size_t n = dag_.node_count();
  // Slot stability: pruning tombstones slots, it never compacts them —
  // node_count() is monotone, so every states_ slot keeps its meaning.
  assert(states_.size() == n);
  for (BlockIdx i = 0; i < n; ++i) {
    if (dag_.alive(i)) continue;
    if (states_[i].pis) --stats_.blocks_holding_pis;
    states_[i] = BlockInterpretation{};
  }
  // Dense indices are stable across pruning, so the cursor's invariant
  // (every slot below it is interpreted or tombstoned) still holds — no
  // rescan from zero. Just skip ahead over now-dead slots so resume_index()
  // points at the first live uninterpreted block.
  while (cursor_ < n && (!dag_.alive(cursor_) || states_[cursor_].interpreted)) {
    ++cursor_;
  }
}

}  // namespace blockdag
