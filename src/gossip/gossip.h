// The gossip module (Algorithm 1): building the block DAG G and block B.
//
// A correct server:
//   * buffers received blocks it cannot yet validate (`blks`, lines 4–5);
//   * inserts any buffered block that becomes valid into G and appends a
//     reference to it to the block under construction — exactly once per
//     block (lines 6–9, Lemma A.6);
//   * requests missing predecessors from the builder of the referencing
//     block via FWD, re-issuing after a timeout Δ (lines 10–11, guarded by
//     a timer as the paper prescribes);
//   * answers FWD requests for blocks it holds (lines 12–13);
//   * on disseminate(): stamps the pending requests into B.rs, signs B,
//     inserts it into G, sends it to every server, and starts the next
//     block with preds = [ref(B)] (lines 14–18).
#pragma once

#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "crypto/signature.h"
#include "dag/dag.h"
#include "dag/validity.h"
#include "gossip/request_buffer.h"
#include "gossip/wire.h"
#include "net/env.h"

namespace blockdag {

struct GossipConfig {
  // Δ: wait before (re-)issuing a FWD request for a missing predecessor.
  SimTime fwd_retry_delay = sim_ms(20);
  // Upper bound on requests stamped into one block (rqsts.get() batch).
  std::size_t max_requests_per_block = 512;
  // Upper bound on FWD re-requests per missing block (0 = unlimited). Only
  // byzantine-built references can dangle forever; correct servers' blocks
  // always arrive (Lemma 3.6).
  std::uint32_t max_fwd_retries = 0;
  // Bound on the permanently-rejected-refs ring (0 = unbounded). A forger
  // flooding bad-signature blocks would otherwise grow the set forever;
  // evicting oldest-first only costs a re-verification if the same forged
  // ref is delivered again — which the verifier pool's verdict cache
  // absorbs on the threaded runtime.
  std::size_t rejected_capacity = 1024;
};

struct GossipStats {
  std::uint64_t blocks_built = 0;
  std::uint64_t blocks_received = 0;
  std::uint64_t blocks_inserted = 0;
  std::uint64_t blocks_rejected = 0;  // permanently invalid
  std::uint64_t fwd_requests_sent = 0;
  std::uint64_t fwd_replies_sent = 0;
  std::uint64_t gc_runs = 0;          // collect_garbage calls that pruned
  std::uint64_t blocks_pruned = 0;    // blocks removed by collect_garbage
  std::uint64_t rejected_evicted = 0; // rejected refs evicted from the ring
};

class GossipServer {
 public:
  // Called whenever a block enters G (both received and self-built), in
  // insertion = topological order; drives incremental interpretation.
  using BlockInsertedHandler = std::function<void(const BlockPtr&)>;

  // The server is written sans-io: it depends only on the Transport /
  // TimerService seam (net/env.h), so the same code runs on the
  // deterministic simulator and on the threaded runtime.
  GossipServer(ServerId self, TimerService& timers, Transport& net,
               SignatureProvider& sigs, RequestBuffer& rqsts,
               GossipConfig config = {}, SeqNoMode seq_mode = SeqNoMode::kConsecutive);
  GossipServer(ServerId self, NodeEnv env, SignatureProvider& sigs,
               RequestBuffer& rqsts, GossipConfig config = {},
               SeqNoMode seq_mode = SeqNoMode::kConsecutive)
      : GossipServer(self, env.timers, env.transport, sigs, rqsts, config, seq_mode) {}

  ServerId self() const { return self_; }
  const BlockDag& dag() const { return dag_; }
  const GossipStats& stats() const { return stats_; }
  const Validator& validator() const { return validator_; }

  void set_block_inserted_handler(BlockInsertedHandler handler) {
    on_inserted_ = std::move(handler);
  }

  // Off-thread verification seam (threaded runtime only). When set, the
  // receive path defers Definition 3.3(i) to `verifier` instead of calling
  // sigs_.verify inline: the block parks in a `verifying_` buffer (which
  // also dedupes re-deliveries while the check is in flight) and `done`
  // must later be invoked ON THIS SERVER'S OWN THREAD — the verifier pool
  // posts it through the owner mailbox. Never set on the simulator, where
  // synchronous verification keeps seed replay deterministic. Install only
  // after any checkpoint restore: log-replayed blocks must insert
  // synchronously.
  using AsyncVerifier =
      std::function<void(ServerId claimed, const Hash256& ref, Bytes sigma,
                         std::function<void(bool)> done)>;
  void set_async_verifier(AsyncVerifier verifier) {
    async_verify_ = std::move(verifier);
  }

  // Network ingress (attach to SimNetwork).
  void on_network(ServerId from, const Bytes& wire);

  // --- Egress batching (DESIGN.md §13; threaded runtime only) ---
  // When enabled, the gossip send sites (block broadcast, FWD request,
  // FWD reply) buffer their envelopes instead of hitting the Transport
  // per call; flush_egress() hands maximal consecutive same-destination
  // runs to send_many/broadcast_many so the transport can coalesce them
  // into batched frames. The threaded runtime flushes from its mailbox
  // drain hook BEFORE the drained batch's work units are released, so the
  // IdleTracker can never report quiescence while envelopes sit here.
  // Never enabled on the simulator: with batching off (the default) every
  // send goes to the Transport directly, byte-identical to before.
  void set_egress_batching(bool on);
  void flush_egress();

  // Algorithm 1 lines 14–18. Builds and sends the current block. When
  // `even_if_empty` is false, skips dissemination when there is nothing to
  // say (no pending requests and no new references) — a practical pacing
  // choice; liveness only needs *eventual* dissemination.
  void disseminate(bool even_if_empty = true);

  // Number of buffered, not-yet-inserted blocks: the `blks` set plus any
  // blocks whose signature check is still in flight at the verifier pool.
  std::size_t pending_blocks() const {
    return pending_.size() + verifying_.size();
  }

  // Construction state of the block being built (checkpointing reads these;
  // see the crash-recovery note below for why they must be persisted).
  SeqNo next_seq() const { return next_k_; }
  const std::vector<Hash256>& building_preds() const { return building_preds_; }

  // Feeds a block obtained out-of-band (state sync) through the exact
  // receive path used for network blocks: signature verification, pending
  // buffering, reference-once accounting. Idempotent for blocks already
  // held — including pruned history a provider may replay.
  void ingest(Block&& block) { handle_block(std::move(block)); }

  // Epoch GC: prunes every block that is a proper ancestor of ALL n
  // servers' tips (highest-seqno live block per builder). Once every
  // server's tip sits above a block, every server has referenced it exactly
  // once (Lemma A.6) and no crash-fault execution references it again — so
  // the block can never be needed for future interpretation or FWD replies.
  // No-op (returns 0) until every one of the n servers has a block in the
  // local DAG; in particular a fresh joiner that has not yet disseminated
  // holds GC back cluster-wide, which is what guarantees it can still fetch
  // the full DAG. `before` sees the doomed set first (BlockDag::
  // PruneObserver); callers pass Interpreter::retain_frontier there and
  // call Interpreter::forget_pruned() afterwards.
  std::size_t collect_garbage(std::uint32_t n_servers,
                              const BlockDag::PruneObserver& before = nullptr);

  // --- Crash recovery (§7 Limitations) ---
  //
  // A crash-recovering server must persist (and restore) its gossip state:
  // the block DAG, the next sequence number, and the references already
  // accumulated for the block under construction. Restoring the *latter
  // two* is what keeps a recovered server correct: re-referencing an
  // already-referenced block would violate the reference-once discipline
  // (Lemma A.6) and manufacture duplicate deliveries to itself.
  // Interpretation state needs no persistence at all — it is a
  // deterministic function of the DAG (Lemma 4.2) and is simply recomputed.

  // Serializes DAG + construction state.
  Bytes snapshot() const;

  // Restores from a snapshot; only callable on a fresh server (empty DAG).
  // All-or-nothing: the snapshot is decoded into staging state first and
  // committed only on full success, so a false return (malformed or
  // corrupted bytes anywhere in the snapshot) leaves the server exactly as
  // it was — a fresh construction can retry with a better snapshot.
  bool restore(const Bytes& snapshot);

  // Checkpoint restore (src/sync): rebuilds the DAG from a checkpoint's
  // horizon (refs of pruned preds of live blocks, registered as
  // tombstones), its live blocks (topological order, validated before the
  // checkpoint was signed), and the persisted construction state. Only
  // callable on a fresh server; all-or-nothing like restore(). Replays
  // on_inserted_ for every live block so the interpreter's slot table
  // covers them (the shim suppresses interpretation during restore — the
  // states come from the checkpoint, not from replay).
  bool restore_parts(const std::vector<Hash256>& horizon,
                     const std::vector<BlockPtr>& blocks, SeqNo next_k,
                     std::vector<Hash256> building_preds);

  // Replays one of this server's own blocks from the durable block log:
  // inserts it and — unlike the receive path — re-runs the line-18 side of
  // its original dissemination, resetting the block under construction to
  // (k+1, [ref]). Replaying own blocks through handle_block instead would
  // *append* the ref to building_preds, so the recovered server's next
  // block would re-reference everything its pre-crash blocks already
  // referenced — double deliveries, violating reference-once (Lemma A.6).
  bool restore_own_block(const BlockPtr& block);

  // Crashes this server: it permanently stops sending and reacting. Pending
  // scheduler events (the FWD retry timers) that still reference this object
  // become no-ops, so a crashed server emits no ghost traffic. Recovery
  // constructs a *fresh* GossipServer and calls restore() on it.
  void halt() { halted_ = true; }
  bool halted() const { return halted_; }

 private:
  void handle_block(Block&& block);
  void on_verified(const Hash256& ref, bool ok);
  void mark_rejected(const Hash256& ref);
  // Egress seams: direct Transport calls unless egress batching buffers
  // them (to == kInvalidServer marks a broadcast entry).
  void net_send(ServerId to, WireKind kind, Bytes payload);
  void net_broadcast(WireKind kind, const Bytes& payload);
  void handle_fwd_request(ServerId from, const Hash256& ref);
  void try_insert_pending();
  void insert_valid(const BlockPtr& block);
  void schedule_fwd(const Hash256& missing, ServerId ask);
  void fire_fwd(const Hash256& missing, ServerId ask, std::uint32_t attempt);

  ServerId self_;
  TimerService& timers_;
  Transport& net_;
  SignatureProvider& sigs_;
  RequestBuffer& rqsts_;
  GossipConfig config_;
  Validator validator_;

  BlockDag dag_;

  // The block under construction: next sequence number and accumulated
  // references (Algorithm 1 keeps a whole Block; we keep its mutable parts).
  SeqNo next_k_ = 0;
  std::vector<Hash256> building_preds_;

  // blks: received, not-yet-insertable blocks, keyed by ref.
  std::unordered_map<Hash256, BlockPtr> pending_;
  // Blocks parked while their signature check runs off-thread.
  std::unordered_map<Hash256, BlockPtr> verifying_;
  // Missing refs with an armed FWD timer (avoid duplicate timers).
  std::unordered_set<Hash256> fwd_armed_;
  // Permanently rejected refs (invalid once preds were known), bounded by
  // config_.rejected_capacity as a FIFO ring (rejected_order_ tracks age).
  std::unordered_set<Hash256> rejected_;
  std::deque<Hash256> rejected_order_;

  AsyncVerifier async_verify_;
  BlockInsertedHandler on_inserted_;
  GossipStats stats_;
  bool halted_ = false;

  // Egress batching buffer, in send order (grouping at flush time only
  // ever merges *consecutive* same-destination entries, so per-peer FIFO
  // is preserved exactly).
  struct EgressEntry {
    ServerId to = kInvalidServer;  // kInvalidServer = broadcast
    Envelope envelope;
  };
  bool egress_batching_ = false;
  std::vector<EgressEntry> egress_;
};

}  // namespace blockdag
