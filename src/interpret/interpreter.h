// The interpret module (Algorithm 2): replaying a deterministic protocol P
// over a block DAG.
//
// For every block B (taken in an eligibility-respecting order: all preds
// interpreted first), the interpreter
//   1. copies the process-instance states from B.parent (line 4; genesis
//     blocks start fresh instances — lazily, as §4 suggests for
//     implementations). The copy is structural: B.PIs is a ChunkedMap, so
//     B shares its parent's chunks of instance handles and, after step 2–3,
//     owns new storage only for the chunks holding the labels it advanced;
//     instances themselves clone on their first event in B;
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
// Layout: interpretation state is a contiguous std::vector indexed by the
// DAG's dense BlockIdx. The per-block message buffers are sorted flat
// vectors (FlatMap) — one allocation per buffer instead of one per entry.
// B.PIs, which every block inherits whole from its parent, is a ChunkedMap
// whose untouched chunks are shared between versions, so a block retains
// only what changed in it. Both iterate in std::map order, which keeps
// digest_of() byte-stable across representation changes.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "dag/dag.h"
#include "protocol/protocol.h"
#include "util/chunked_map.h"
#include "util/flat_map.h"

namespace blockdag {

// Interpretation state attached to a block (the paper's B.PIs / B.Ms /
// I[B]). Exposed read-only so tests can check Figure 4 buffer contents.
struct BlockInterpretation {
  bool interpreted = false;  // I[B]

  // B.PIs[ℓ]: state of instance ℓ of server B.n after interpreting B.
  // Shared instance pointers in shared chunks implement copy-on-write along
  // parent chains, at both the instance and the map level.
  ChunkedMap<Label, std::shared_ptr<const Process>> pis;

  // B.Ms[in, ℓ] / B.Ms[out, ℓ].
  FlatMap<Label, std::vector<Message>> ms_in;
  FlatMap<Label, std::vector<Message>> ms_out;

  // Checkpoint-restored blocks carry the digest_of() output computed when
  // the block was first interpreted instead of re-derivable state (ms_in is
  // not checkpointed); digest_of returns it verbatim. Empty for blocks
  // interpreted live.
  Bytes cached_digest;
};

struct InterpreterStats {
  std::uint64_t blocks_interpreted = 0;
  std::uint64_t requests_processed = 0;
  std::uint64_t messages_delivered = 0;    // fed via receive(m), line 11
  std::uint64_t messages_materialized = 0; // appended to some Ms[out]
  std::uint64_t indications = 0;
  std::uint64_t instance_clones = 0;       // copy-on-write clones performed
                                           // (fresh creates are not clones)

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

  // Deterministic digest over a block's post-interpretation state — used
  // by tests asserting Lemma 4.2 across different servers/DAG prefixes.
  Bytes digest_of(const Hash256& ref) const;

  const InterpreterStats& stats() const { return stats_; }

  // Checkpoint restore (src/sync): marks `ref` as interpreted with its
  // saved post-interpretation artifacts instead of re-running P over it.
  // `pis_serialized` holds Process::serialize() outputs and may be empty —
  // only per-builder tip blocks ever have their instance states read again
  // (line 4 copies from the parent, and only tips become parents of new
  // blocks). Returns false — without mutating state — if the block is not
  // live, already interpreted, its labels are not strictly ascending, or an
  // instance fails to deserialize.
  bool restore_block(const Hash256& ref, Bytes cached_digest,
                     FlatMap<Label, std::vector<Message>> ms_out,
                     const std::vector<std::pair<Label, Bytes>>& pis_serialized);

  // Drops interpretation state of blocks no longer in the DAG (pruning
  // extension §7; pairs with BlockDag::prune_below). BlockIdx slots are
  // stable across pruning, so the run() cursor keeps its position instead
  // of rescanning the order from the start.
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
  // The state B starts from before any event is fed: line 4's copy of the
  // parent's PIs. Shared by the serial pass and the parallel engine's
  // merge, whose parent is always committed by the time it runs.
  BlockInterpretation inherit(BlockIdx idx) const;
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
  IndicationHandler on_indication_;
  InterpreterStats stats_;
};

}  // namespace blockdag
