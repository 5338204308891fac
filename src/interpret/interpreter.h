// The interpret module (Algorithm 2): replaying a deterministic protocol P
// over a block DAG.
//
// For every block B (taken in an eligibility-respecting order: all preds
// interpreted first), the interpreter
//   1. takes the process-instance states from B.parent (line 4; genesis
//     blocks start fresh instances — lazily, as §4 suggests for
//     implementations). "Copy" is a move: B.PIs is a ChunkedMap, and B
//     takes its parent's map over, so the parent keeps no instance state
//     of its own afterwards (see "Retention" below); instances themselves
//     clone on their first event in B;
//   2. feeds every request (ℓ, r) ∈ B.rs to B.n's simulated instance of ℓ
//     (lines 5–6), collecting triggered messages into B.Ms[out, ℓ];
//   3. gathers in-messages addressed to B.n from the out-buffers of B's
//     *direct* predecessors (lines 7–9) and feeds them in the fixed order
//     <M (lines 10–11), collecting newly triggered messages into
//     B.Ms[out, ℓ]. Line 7 ranges over the labels requested in B's
//     ancestry; only those labels ever have out-messages (Lemma A.12), so
//     the preds' out-buffers already name exactly that range and no
//     per-block label set is kept;
//   4. raises every indication of the simulated instances as
//     (ℓ, i, B.n) (lines 13–14).
//
// Interpretation is a pure function of the DAG (Lemma 4.2): it never looks
// at who is interpreting, wall-clock time, or network state. The
// interpreter is incremental — as gossip grows the DAG, newly eligible
// blocks are interpreted on demand.
//
// Messages materialized here are never sent on any wire: this is the
// paper's message compression (Section 4 discussion).
//
// Retention. Line 4 reads B.PIs only from B.parent, and only a builder's
// latest block becomes the parent of its next one, so B.PIs is kept only
// while B can still be a parent: when B's child by the same builder is
// interpreted, it takes B's map by move. Every other block keeps Ms[in],
// Ms[out] and two 32-byte digests computed at commit:
//   pis_digest(B) = H(pis_digest(B.parent) ‖ (ℓ, change_digest) for every
//                     ℓ B advanced, ascending)       (zeros without parent)
//   digest_of(B)  = H(1 ‖ pis_digest(B) ‖ Ms[in] ‖ Ms[out])
// Process::change_digest() covers what the block changed in the instance
// (the full state_digest() unless a protocol narrows it), so pis_digest
// covers the state of every instance B.n ever advanced, by induction down
// the chain, and digest_of remains a Lemma 4.2 checker, answered by
// lookup. pis_digest costs O(what B touched) and is independent of chunk
// layout, interpretation order (Lemma A.11), serial vs parallel engine and
// live vs checkpoint-restored history.
//
// Any non-tip's B.PIs is re-derived by instances_at(): replaying B.n's
// chain (B.rs and the retained Ms[in]) from its nearest block that holds
// B.PIs. Three kinds of block keep more than the tip, so that this always
// has a start:
//   - a block that lends (BlockInterpretation::lends) hands its children
//     copies instead of moving its map: a block restored from a checkpoint
//     with its B.PIs (it has no Ms[in] to replay), and a builder's oldest
//     block surviving a GC, whose chain below is pruned (retain_frontier);
//   - a builder that equivocates — a second child of a parent whose PIs
//     are gone — is re-derived once through instances_at() and from then
//     on keeps B.PIs on every one of its blocks (materialize).
// So at a quiescent point of an honest run at most one block per builder
// holds B.PIs, two after a GC, and each forking builder costs one chain
// replay. A fork still starts from empty state, counted in states_lost,
// where its parent is a checkpoint-restored non-tip, whose chain has
// nothing to replay.
//
// Layout: interpretation state is a contiguous std::vector indexed by the
// DAG's dense BlockIdx. The per-block message buffers are sorted flat
// vectors (FlatMap) — one allocation per buffer instead of one per entry.
// B.PIs is a ChunkedMap whose untouched chunks are shared between
// versions, so a commit rebuilds only the chunks holding the labels B
// advanced.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/sha256.h"
#include "dag/dag.h"
#include "protocol/protocol.h"
#include "util/chunked_map.h"
#include "util/flat_map.h"

namespace blockdag {

// B.PIs[ℓ]: state of instance ℓ of server B.n after interpreting B. Shared
// instance pointers in shared chunks implement copy-on-write at both the
// instance and the map level.
using InstanceMap = ChunkedMap<Label, std::shared_ptr<const Process>>;

// Interpretation state attached to a block (the paper's B.PIs / B.Ms /
// I[B]). Exposed read-only so tests can check Figure 4 buffer contents.
struct BlockInterpretation {
  bool interpreted = false;  // I[B]
  // Restored from a checkpoint: Ms[in] was not saved, so B cannot be
  // replayed.
  bool restored = false;
  // B's children copy B.PIs instead of taking it (file comment).
  bool lends = false;

  // B.PIs while B holds it (see "Retention" in the file comment); read it
  // for any block through Interpreter::instances_at.
  std::optional<InstanceMap> pis;

  // B.Ms[in, ℓ] / B.Ms[out, ℓ].
  FlatMap<Label, std::vector<Message>> ms_in;
  FlatMap<Label, std::vector<Message>> ms_out;

  Sha256::Digest pis_digest{};  // chained digest of B.PIs (file comment)
  Sha256::Digest digest{};      // digest_of(B)
};

struct InterpreterStats {
  std::uint64_t blocks_interpreted = 0;
  std::uint64_t requests_processed = 0;
  std::uint64_t messages_delivered = 0;    // fed via receive(m), line 11
  std::uint64_t messages_materialized = 0; // appended to some Ms[out]
  std::uint64_t indications = 0;
  std::uint64_t instance_clones = 0;       // copy-on-write clones performed
                                           // (fresh creates are not clones)
  // Retention (file comment). blocks_holding_pis is a gauge: at a quiescent
  // point of an honest run it is at most one block per builder (two after
  // a GC).
  std::uint64_t blocks_holding_pis = 0;
  std::uint64_t chain_replays = 0;  // builders whose PIs a fork re-derived
  // Blocks that started from empty state although they have a parent: the
  // parent is a checkpoint-restored non-tip, whose B.PIs can no longer be
  // derived (DESIGN §10: safe against crash faults only).
  std::uint64_t states_lost = 0;

  // Parallel-engine counters (interpret/parallel_interpreter.h). All stay
  // zero on the serial path — the sim runtime never constructs the engine,
  // so these never perturb seed-replay state. They describe *how* batches
  // were executed, never *what* was computed: every field above is
  // byte-identical between the serial and parallel paths.
  std::uint64_t parallel_batches = 0;  // batches fanned out across the pool
  std::uint64_t serial_batches = 0;    // engine calls that fell back to serial
  std::uint64_t work_units = 0;        // (block, label) simulations in
                                       // parallel batches
  std::uint64_t max_shard_width = 0;   // widest single shard, in work units
  std::uint64_t merge_ns = 0;          // time spent in deterministic merges
};

class Interpreter {
 public:
  // Indication callback: (ℓ, indication, server-on-whose-behalf) —
  // Algorithm 2 line 14 `indicate(ℓj, i, B.n)`.
  using IndicationHandler =
      std::function<void(Label, const Bytes&, ServerId)>;

  Interpreter(const BlockDag& dag, const ProtocolFactory& factory,
              std::uint32_t n_servers);

  void set_indication_handler(IndicationHandler handler) {
    on_indication_ = std::move(handler);
  }

  // Interprets every currently-eligible uninterpreted block, following the
  // DAG's insertion (= topological) order. Returns blocks interpreted.
  std::size_t run();

  // Interprets exactly `ref` if it is eligible; returns false otherwise.
  // Lets tests exercise arbitrary eligible orders (the choice in line 3 —
  // Lemma A.11 says the result is order-independent).
  bool interpret_one(const Hash256& ref);

  bool is_interpreted(const Hash256& ref) const;
  bool eligible(const Hash256& ref) const;

  // Read access to B's interpretation state (nullptr if never touched).
  const BlockInterpretation* state_of(const Hash256& ref) const;
  const BlockInterpretation* state_at(BlockIdx idx) const;

  // digest_of(B) (file comment): a lookup of the digest computed when B
  // was committed, or restored with it — used by tests and runtimes
  // asserting Lemma 4.2 across different servers/DAG prefixes.
  Bytes digest_of(const Hash256& ref) const;

  // B.PIs for any interpreted block: a copy of the chunk handles where B
  // still holds them; otherwise re-derived by replaying B.n's chain (B.rs
  // and the retained Ms[in]) down from its nearest retained state, each
  // step checked against the stored pis_digest. nullopt when B is not
  // interpreted or its state cannot be re-derived — its chain runs into a
  // checkpoint-restored non-tip. Costs O(chain length) for a non-tip block.
  // A fork's parent is re-derived through here, too.
  std::optional<InstanceMap> instances_at(const Hash256& ref) const;

  const InterpreterStats& stats() const { return stats_; }

  // Checkpoint restore (src/sync): marks `ref` as interpreted with its
  // saved post-interpretation artifacts instead of re-running P over it.
  // Per-builder tips — the only blocks that become parents of new ones —
  // come with `pis_digest` and their B.PIs as Process::serialize()
  // outputs; every other block with neither. Returns false — without
  // mutating state — if the block is not live, already interpreted,
  // carries PIs without a pis_digest, its labels are not strictly
  // ascending, or an instance fails to deserialize.
  bool restore_block(const Hash256& ref, const Sha256::Digest& digest,
                     FlatMap<Label, std::vector<Message>> ms_out,
                     const std::optional<Sha256::Digest>& pis_digest,
                     const std::vector<std::pair<Label, Bytes>>& pis_serialized);

  // Pruning (extension §7) takes two calls. retain_frontier(doomed) runs
  // while the blocks a prune is about to remove are still live — pass it
  // as the BlockDag::PruneObserver: every survivor whose parent is doomed
  // re-derives and keeps its B.PIs, lending copies to its children, so
  // instances_at() and forks above the frontier stay exact. Without it
  // those survivors' chains become underivable. forget_pruned() then drops
  // the state of blocks no longer in the DAG. BlockIdx slots are stable
  // across pruning, so the run() cursor keeps its position instead of
  // rescanning the order from the start.
  void retain_frontier(const std::vector<char>& doomed);
  void forget_pruned();

  // Where the next run() resumes in the dense index order (diagnostics /
  // tests of the incremental cursor).
  BlockIdx resume_index() const { return cursor_; }

 private:
  // The parallel engine shards interpret_block's inner loops across a
  // worker pool and commits merged results through the private state below
  // (interpret/parallel_interpreter.cpp documents the determinism contract).
  friend class ParallelInterpreter;

  bool interpreted_at(BlockIdx idx) const {
    return idx < states_.size() && states_[idx].interpreted;
  }
  bool eligible_at(BlockIdx idx) const;

  // One advanced instance of a block's commit.
  struct Advanced {
    Label label;
    std::shared_ptr<const Process> instance;
    Bytes change_digest;
  };
  using StepSink = std::function<void(Label, StepResult&&)>;

  // The state B starts from before any event is fed: line 4's B.PIs, taken
  // from the parent (moved, or copied from a parent that lends), and the
  // parent's pis_digest. A parent whose PIs are gone means B is a fork:
  // the builder is materialized first. Shared by the serial pass and the
  // parallel engine's merge, whose parent is always committed by the time
  // it runs.
  BlockInterpretation inherit(BlockIdx idx);
  // Lines 5–6 and 10–11: feeds B.rs, then `inbox`, to B.n's instances in
  // `pis` — an instance cloned once per block (counted in `clones` when
  // non-null) or started fresh — passing every step's result to `sink`.
  // Returns the advanced instances, ascending by label.
  std::vector<Advanced> advance(BlockIdx idx, const InstanceMap& pis,
                                const FlatMap<Label, std::vector<Message>>& inbox,
                                std::uint64_t* clones, const StepSink& sink) const;
  // Applies `advanced` to `pis` and returns the pis_digest chained from
  // `base`.
  static Sha256::Digest commit_instances(InstanceMap& pis,
                                         const Sha256::Digest& base,
                                         std::vector<Advanced> advanced);
  // Line 12 for a block whose buffers are final: commits `advanced` into
  // st (which holds inherit()'s start state), computes both digests, marks
  // it interpreted and stores it at `idx`.
  void commit(BlockIdx idx, BlockInterpretation st, std::vector<Advanced> advanced);
  std::optional<InstanceMap> instances_at(BlockIdx idx) const;
  // A fork by `builder`: re-derives B.PIs through instances_at() for each
  // of its blocks that gave them away, in dense order so that each costs
  // one replay step, and keeps them on all of its blocks from now on. At
  // most once per builder (stats_.chain_replays).
  void materialize(ServerId builder);
  bool keeps_all(ServerId builder) const {
    return builder < keeps_all_.size() && keeps_all_[builder];
  }
  void interpret_block(BlockIdx idx);
  // Grows states_ to cover every DAG slot (call before index-based access).
  // Slots are only ever appended — BlockIdx slots are stable tombstones
  // across pruning — so this touches the vector only when the DAG actually
  // grew, and reserves geometrically so per-insert run() calls don't move
  // the (heavy) BlockInterpretation elements on every new block.
  void sync_states() {
    const std::size_t n = dag_.node_count();
    if (n <= states_.size()) return;
    if (n > states_.capacity()) {
      states_.reserve(std::max(n, states_.capacity() * 2));
    }
    states_.resize(n);
  }

  const BlockDag& dag_;
  const ProtocolFactory& factory_;
  std::uint32_t n_servers_;
  std::vector<BlockInterpretation> states_;  // indexed by BlockIdx
  BlockIdx cursor_ = 0;  // index into the DAG's dense slot array
  // True while the parallel engine has this interpreter's batch in flight.
  // State mutations that would race the shards (restore_block, pruning)
  // assert against it — restores happen only at batch quiescence.
  bool batch_active_ = false;
  std::vector<bool> keeps_all_;  // per builder: forked, so keeps every B.PIs
  IndicationHandler on_indication_;
  InterpreterStats stats_;
};

}  // namespace blockdag
