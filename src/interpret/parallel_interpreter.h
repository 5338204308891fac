// Parallel interpretation engine: Algorithm 2 sharded by label across a
// reusable worker pool, with a deterministic merge.
//
// Why this is sound: per-(block, label) instance simulation (lines 5–6 and
// 10–11) is a pure function of resolved inputs — the inherited instance
// state P(ℓ, B.n) from B's parent chain, B's own inscribed requests for ℓ,
// and the ℓ-entries of B's direct predecessors' Ms[out] buffers. Labels
// never interact: no event fed to instance ℓ can read or write instance
// ℓ'. The engine therefore partitions each *batch* of eligible blocks into
// per-(block, label) work units, assigns every label to exactly one shard
// (shard = ℓ mod n_shards), and lets each shard walk the batch's blocks in
// dense-BlockIdx order simulating only its own labels. Within a shard the
// per-label event order is exactly the serial interpreter's (inscribed
// requests in rs-order, then in-messages in <M order), so every instance
// steps through the identical state sequence regardless of worker count or
// shard completion order.
//
// The merge then reassembles each BlockInterpretation on the *calling*
// thread, in dense-BlockIdx order: each block starts from the serial
// pass's own Interpreter::inherit() — line 4's parent PIs, taken over from
// the parent (the parent is always merged first — dense order respects
// topological order) — shard cells, with the change digests the shards
// computed, commit into B.PIs through the serial Interpreter::commit(),
// and indications fire in the serial order — request-phase indications
// sorted by their rs-inscription index, then message-phase indications in
// sorted label order. digest_of() is therefore byte-identical to the
// serial interpreter (Lemma 4.2; lemma42_regression_test and
// tests/interpret/parallel_interpreter_test are the oracles). A fork whose
// parent gave its PIs away is re-derived before the shards fan out, so
// they only ever read committed state.
//
// Pool substrate follows crypto/verifier_pool: parked worker threads over a
// mutex/condvar queue. A batch is a bag of shards; the submitting (owner)
// thread claims shards alongside the workers and then blocks until the bag
// drains, so run() is synchronous, multiple owners (one per hosted server)
// can submit concurrently, and a stopped pool degrades to the owner doing
// every shard itself — correctness never depends on worker scheduling.
//
// Serial fallback: batches whose estimated work is below
// `min_batch_work` (or a pool with zero workers) run through the plain
// Interpreter::run() — fan-out overhead would dominate. The sim runtime
// never constructs an engine at all, so seeded replay determinism is
// untouched (same policy as the verifier pool).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "interpret/interpreter.h"

namespace blockdag {

struct ParallelInterpretConfig {
  std::size_t workers = 2;          // pool threads (the caller also works)
  // Estimated work units (labels touched across the batch) below which a
  // batch runs serially — fan-out costs more than it saves there.
  std::size_t min_batch_work = 32;
  // Shards per participating thread (workers + the owner). More shards
  // smooth imbalance between label buckets at slightly more merge input.
  std::size_t shards_per_thread = 2;
  // Permutes the order shards are *claimed* in (never the merge order).
  // Results are claim-order-independent by construction; tests vary the
  // salt to prove it.
  std::uint64_t shard_order_salt = 0;
};

class ParallelInterpreter {
 public:
  explicit ParallelInterpreter(ParallelInterpretConfig config = {});
  ~ParallelInterpreter();  // stop()s

  ParallelInterpreter(const ParallelInterpreter&) = delete;
  ParallelInterpreter& operator=(const ParallelInterpreter&) = delete;

  // Spawns the worker threads; they park until batches arrive. Idempotent.
  void start();
  // Joins the workers. In-flight run() calls still complete — their owner
  // threads claim the remaining shards themselves. Idempotent.
  void stop();

  const ParallelInterpretConfig& config() const { return config_; }

  // Drives `interp` to the same fixed point Interpreter::run() reaches and
  // returns the number of blocks interpreted. Must be called from the
  // thread that owns `interp` (the server thread); distinct interpreters
  // may run() concurrently on one engine. Synchronous: on return the batch
  // is fully merged and no shard references `interp` anymore. A re-entrant
  // call (from an indication handler during the merge) is a deferring
  // no-op — the next run() picks the new blocks up.
  std::size_t run(Interpreter& interp);

 private:
  struct Batch;

  bool claim_locked(Batch*& batch, std::size_t& shard) const;
  void process_shard(Batch& batch, std::size_t shard) const;
  void finish_shard(Batch& batch) const;
  std::size_t merge(Batch& batch) const;
  void worker_main();

  const ParallelInterpretConfig config_;

  mutable std::mutex mu_;  // guards queue_ and each queued batch's cursor
  std::condition_variable cv_;
  std::deque<Batch*> queue_;
  bool stopping_ = false;
  bool started_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace blockdag
