#include "interpret/parallel_interpreter.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <numeric>
#include <utility>

namespace blockdag {

namespace {
constexpr std::size_t shard_of(Label label, std::size_t n_shards) {
  return static_cast<std::size_t>(label % n_shards);
}
}  // namespace

// One batch = the exact set of blocks a serial Interpreter::run() call would
// interpret right now: the cursor scan admits a block when every pred (and
// the line-4 parent) is already interpreted or earlier in the batch — dense
// indices respect topological order, so "earlier in the batch" is sound.
struct ParallelInterpreter::Batch {
  // Result of simulating one (block, label) work unit. Mirrors the slices
  // of BlockInterpretation the serial interpreter builds for that label.
  struct Cell {
    std::unique_ptr<Process> working;      // live during the shard pass
    std::shared_ptr<const Process> pi;     // committed at end of block
    Bytes change_digest;                   // pi->change_digest()
    std::vector<Message> ms_in;            // sorted <M, deduplicated
    std::vector<Message> ms_out;
    // Request-phase indications keep their rs-inscription index so the
    // merge can interleave labels exactly as the serial absorb order did.
    struct Raised {
      std::uint32_t req_index;
      Bytes payload;
    };
    std::vector<Raised> req_raised;
    std::vector<Bytes> msg_raised;  // message-phase, in feed order
  };

  struct ShardStats {
    std::uint64_t requests_processed = 0;
    std::uint64_t messages_delivered = 0;
    std::uint64_t messages_materialized = 0;
    std::uint64_t instance_clones = 0;
    std::uint64_t work_units = 0;  // cells simulated
  };

  Interpreter* interp = nullptr;
  std::vector<BlockIdx> blocks;  // dense ascending (= a topological order)
  std::size_t n_shards = 0;
  std::vector<std::size_t> shard_order;  // claim order (salted permutation)
  std::size_t next = 0;                  // guarded by the pool's mu_
  // cells[shard][block position] → per-label results of that shard.
  std::vector<std::vector<FlatMap<Label, Cell>>> cells;
  std::vector<ShardStats> shard_stats;

  std::atomic<std::size_t> done{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool complete = false;

  std::size_t pos_of(BlockIdx p) const {
    const auto it = std::lower_bound(blocks.begin(), blocks.end(), p);
    assert(it != blocks.end() && *it == p);
    return static_cast<std::size_t>(it - blocks.begin());
  }
};

ParallelInterpreter::ParallelInterpreter(ParallelInterpretConfig config)
    : config_(std::move(config)) {}

ParallelInterpreter::~ParallelInterpreter() { stop(); }

void ParallelInterpreter::start() {
  std::lock_guard<std::mutex> lk(mu_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

void ParallelInterpreter::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  std::lock_guard<std::mutex> lk(mu_);
  workers_.clear();
  started_ = false;
  stopping_ = false;
}

bool ParallelInterpreter::claim_locked(Batch*& batch, std::size_t& shard) const {
  for (Batch* b : queue_) {
    if (b->next < b->n_shards) {
      shard = b->shard_order[b->next++];
      batch = b;
      return true;
    }
  }
  return false;
}

void ParallelInterpreter::worker_main() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    Batch* batch = nullptr;
    std::size_t shard = 0;
    cv_.wait(lk, [&] { return stopping_ || claim_locked(batch, shard); });
    if (batch == nullptr) return;  // stopping; owners drain their own batches
    lk.unlock();
    process_shard(*batch, shard);
    finish_shard(*batch);
    lk.lock();
  }
}

void ParallelInterpreter::finish_shard(Batch& batch) const {
  // Read n_shards before the fetch_add: once this shard is counted, another
  // finisher may complete the batch and its owner return, ending the
  // Batch's lifetime (it lives on the owner's stack).
  const std::size_t n_shards = batch.n_shards;
  if (batch.done.fetch_add(1) + 1 == n_shards) {
    std::lock_guard<std::mutex> lk(batch.done_mu);
    batch.complete = true;
    batch.done_cv.notify_all();
  }
}

// Simulates every (block, label) unit whose label this shard owns, walking
// the batch's blocks in dense order. Reads only immutable inputs: the DAG,
// already-interpreted states_, and this shard's own earlier cells — never
// another shard's data, so shards share nothing but the batch skeleton.
void ParallelInterpreter::process_shard(Batch& b, std::size_t shard) const {
  Interpreter& interp = *b.interp;
  const BlockDag& dag = interp.dag_;
  Batch::ShardStats& stats = b.shard_stats[shard];
  std::vector<FlatMap<Label, Batch::Cell>>& my_cells = b.cells[shard];

  for (std::size_t bi = 0; bi < b.blocks.size(); ++bi) {
    const BlockIdx idx = b.blocks[bi];
    const Block& block = *dag.block_at(idx);
    const ServerId owner = block.n();
    FlatMap<Label, Batch::Cell>& out = my_cells[bi];

    // Line 4, per label: the inherited instance is the nearest parent-chain
    // ancestor's committed copy. For ancestors still in this batch, the
    // label's committed copy — if any — lives in this same shard's earlier
    // cells (labels never change shard); otherwise keep walking up, exactly
    // the flattening the serial parent-PIs copy performs transitively.
    const auto inherited = [&](Label label) -> const std::shared_ptr<const Process>* {
      BlockIdx a = dag.parent_of(idx);
      while (a != kNoBlockIdx && dag.alive(a)) {
        if (interp.interpreted_at(a)) {
          // run() re-derived a forked builder's PIs before fan-out; a
          // parent still without them is a lost state, which starts empty.
          const auto& pis = interp.states_[a].pis;
          if (!pis) return nullptr;
          const auto it = pis->find(label);
          return it != pis->end() ? &it->second : nullptr;
        }
        const FlatMap<Label, Batch::Cell>& pc = my_cells[b.pos_of(a)];
        const auto it = pc.find(label);
        if (it != pc.end()) return &it->second.pi;
        a = dag.parent_of(a);
      }
      return nullptr;
    };
    const auto working_for = [&](Batch::Cell& cell, Label label) -> Process& {
      if (!cell.working) {
        if (const auto* pi = inherited(label)) {
          ++stats.instance_clones;
          cell.working = (*pi)->clone();
        } else {
          cell.working = interp.factory_.create(label, owner, interp.n_servers_);
        }
      }
      return *cell.working;
    };

    // Lines 5–6: this block's inscribed requests, restricted to owned
    // labels, in inscription order (the index tags indications for the
    // merge's serial-order replay).
    std::uint32_t req_index = 0;
    for (const LabeledRequest& lr : block.rs()) {
      const std::uint32_t i = req_index++;
      if (shard_of(lr.label, b.n_shards) != shard) continue;
      Batch::Cell& cell = out[lr.label];
      ++stats.requests_processed;
      StepResult r = working_for(cell, lr.label).on_request(lr.request);
      for (auto& m : r.messages) {
        ++stats.messages_materialized;
        cell.ms_out.push_back(std::move(m));
      }
      for (auto& ind : r.indications) {
        cell.req_raised.push_back({i, std::move(ind)});
      }
    }

    // Lines 7–9: per-label inbox from *direct* predecessors' out-buffers.
    // An in-batch pred's buffers for our labels live in our own earlier
    // cells; interpreted preds are read from the committed states.
    FlatMap<Label, std::vector<Message>> inbox;
    for (BlockIdx p : dag.preds_of(idx)) {
      if (interp.interpreted_at(p)) {
        for (const auto& [label, msgs] : interp.states_[p].ms_out) {
          if (shard_of(label, b.n_shards) != shard) continue;
          for (const Message& m : msgs) {
            if (m.receiver == owner) inbox[label].push_back(m);
          }
        }
      } else {
        for (const auto& [label, cell] : my_cells[b.pos_of(p)]) {
          for (const Message& m : cell.ms_out) {
            if (m.receiver == owner) inbox[label].push_back(m);
          }
        }
      }
    }

    // Lines 10–11: set semantics via sort+unique in <M order, then feed.
    for (auto& [label, msgs] : inbox) {
      std::sort(msgs.begin(), msgs.end(), MessageOrder{});
      msgs.erase(std::unique(msgs.begin(), msgs.end()), msgs.end());
      Batch::Cell& cell = out[label];
      for (const Message& m : msgs) {
        ++stats.messages_delivered;
        StepResult r = working_for(cell, label).on_message(m);
        for (auto& mm : r.messages) {
          ++stats.messages_materialized;
          cell.ms_out.push_back(std::move(mm));
        }
        for (auto& ind : r.indications) {
          cell.msg_raised.push_back(std::move(ind));
        }
      }
      cell.ms_in = std::move(msgs);
    }

    // Commit the advanced instances (this shard's slice of the line-12
    // PIs commit) so later blocks' inherited() walks see them, with the
    // change digests the merge chains into pis_digest.
    for (auto& [label, cell] : out) {
      (void)label;
      if (cell.working) {
        cell.change_digest = cell.working->change_digest();
        cell.pi = std::shared_ptr<const Process>(std::move(cell.working));
      }
    }
    stats.work_units += out.size();
  }
}

// Reassembles BlockInterpretations in dense order on the owner thread. This
// is byte-for-byte the serial interpret_block commit: the shared inherit()
// start state, one sorted PIs batch, label-sorted buffer maps, and the
// serial indication order (request-phase by rs index, then message-phase in
// label order).
std::size_t ParallelInterpreter::merge(Batch& b) const {
  Interpreter& interp = *b.interp;
  const BlockDag& dag = interp.dag_;

  for (std::size_t bi = 0; bi < b.blocks.size(); ++bi) {
    const BlockIdx idx = b.blocks[bi];
    const Block& block = *dag.block_at(idx);
    const ServerId owner = block.n();
    // Line 4: exactly the serial start state — the parent is merged by now
    // (lower dense index), so the inherited PIs share exactly the chunks
    // the serial pass would.
    BlockInterpretation st = interp.inherit(idx);

    // Gather this block's cells across shards, sorted by label. Shards own
    // disjoint labels, so this is a plain merge with no conflicts.
    std::vector<std::pair<Label, Batch::Cell*>> cells;
    for (std::size_t s = 0; s < b.n_shards; ++s) {
      for (auto& [label, cell] : b.cells[s][bi]) {
        cells.emplace_back(label, &cell);
      }
    }
    std::sort(cells.begin(), cells.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });

    std::vector<Interpreter::Advanced> advanced;
    advanced.reserve(cells.size());
    for (auto& [label, cell] : cells) {
      assert(cell->pi && "every simulated cell commits an instance");
      advanced.push_back({label, std::move(cell->pi), std::move(cell->change_digest)});
      if (!cell->ms_in.empty()) st.ms_in[label] = std::move(cell->ms_in);
      // The serial absorb creates the Ms[out] entry for every simulated
      // label even when no message materialized — digest_of serializes the
      // empty entry, so presence must match exactly.
      st.ms_out[label] = std::move(cell->ms_out);
    }
    // Line 12 + stats, then lines 13–14 in the exact serial raise order.
    interp.commit(idx, std::move(st), std::move(advanced));

    struct ReqInd {
      std::uint32_t req_index;
      Label label;
      Bytes* payload;
    };
    std::vector<ReqInd> req_inds;
    for (auto& [label, cell] : cells) {
      for (auto& r : cell->req_raised) {
        req_inds.push_back({r.req_index, label, &r.payload});
      }
    }
    std::stable_sort(req_inds.begin(), req_inds.end(),
                     [](const ReqInd& x, const ReqInd& y) {
                       return x.req_index < y.req_index;
                     });
    for (const ReqInd& r : req_inds) {
      ++interp.stats_.indications;
      if (interp.on_indication_) {
        interp.on_indication_(r.label, *r.payload, owner);
      }
    }
    for (auto& [label, cell] : cells) {
      for (const Bytes& ind : cell->msg_raised) {
        ++interp.stats_.indications;
        if (interp.on_indication_) interp.on_indication_(label, ind, owner);
      }
    }
  }
  return b.blocks.size();
}

std::size_t ParallelInterpreter::run(Interpreter& interp) {
  // Re-entrant call: an indication handler fired from merge() grew the DAG
  // (eager request → disseminate → insert). Interpreting here would race
  // the in-flight merge, so defer — the shim re-runs the interpreter on
  // every tick and insert, which is exactly Algorithm 2's freedom to run
  // interpretation off-line, later.
  if (interp.batch_active_) return 0;
  interp.sync_states();
  const BlockDag& dag = interp.dag_;
  const std::size_t n = dag.node_count();

  // Collect the batch: the same cursor scan as Interpreter::run(), with
  // "interpreted" relaxed to "interpreted or earlier in this batch".
  Batch batch;
  batch.interp = &interp;
  std::size_t estimate = 0;  // labels the shards will touch, roughly
  const auto in_batch = [&batch](BlockIdx p) {
    return std::binary_search(batch.blocks.begin(), batch.blocks.end(), p);
  };
  BlockIdx c = interp.cursor_;
  while (c < n) {
    if (!dag.alive(c) || interp.states_[c].interpreted) {
      ++c;
      continue;
    }
    bool ok = true;
    for (BlockIdx p : dag.preds_of(c)) {
      if (!interp.interpreted_at(p) && !in_batch(p)) {
        ok = false;
        break;
      }
    }
    const BlockIdx parent = dag.parent_of(c);
    if (ok && parent != kNoBlockIdx && dag.alive(parent) &&
        !interp.interpreted_at(parent) && !in_batch(parent)) {
      ok = false;
    }
    if (!ok) break;  // mirrors the serial break (possible only after pruning)
    estimate += dag.block_at(c)->rs().size();
    for (BlockIdx p : dag.preds_of(c)) {
      estimate += interp.interpreted_at(p) ? interp.states_[p].ms_out.size() : 1;
    }
    batch.blocks.push_back(c);
    ++c;
  }
  if (batch.blocks.empty()) {
    interp.cursor_ = c;
    return 0;
  }

  std::size_t pool_threads = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (started_ && !stopping_) pool_threads = workers_.size();
  }
  if (pool_threads == 0 || estimate < config_.min_batch_work) {
    ++interp.stats_.serial_batches;
    return interp.run();
  }

  // A block whose committed parent gave its PIs away is a fork: re-derive
  // that builder's PIs now, as the serial inherit() would, so the shards'
  // inherited() walks find them.
  for (BlockIdx c : batch.blocks) {
    const BlockIdx parent = dag.parent_of(c);
    if (parent != kNoBlockIdx && interp.interpreted_at(parent) &&
        !interp.states_[parent].pis) {
      interp.materialize(dag.block_at(c)->n());
    }
  }

  batch.n_shards =
      std::max<std::size_t>(1, (pool_threads + 1) * config_.shards_per_thread);
  batch.shard_order.resize(batch.n_shards);
  std::iota(batch.shard_order.begin(), batch.shard_order.end(), 0);
  if (config_.shard_order_salt != 0) {
    // Deterministic salted shuffle (splitmix64 + Fisher–Yates): varies which
    // thread runs which shard first, never what any shard computes.
    std::uint64_t x = config_.shard_order_salt;
    const auto next = [&x] {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    };
    for (std::size_t i = batch.n_shards - 1; i > 0; --i) {
      std::swap(batch.shard_order[i],
                batch.shard_order[next() % (i + 1)]);
    }
  }
  batch.cells.resize(batch.n_shards);
  for (auto& shard_cells : batch.cells) shard_cells.resize(batch.blocks.size());
  batch.shard_stats.assign(batch.n_shards, {});

  interp.batch_active_ = true;
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(&batch);
  }
  cv_.notify_all();

  // The owner works too: claim shards from *this* batch until none remain.
  // With every worker busy elsewhere (or the pool stopped mid-run), the
  // owner simply does all of them — completion never depends on the pool.
  for (;;) {
    std::size_t shard = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (batch.next >= batch.n_shards) break;
      shard = batch.shard_order[batch.next++];
    }
    process_shard(batch, shard);
    finish_shard(batch);
  }
  {
    std::unique_lock<std::mutex> lk(batch.done_mu);
    batch.done_cv.wait(lk, [&batch] { return batch.complete; });
  }
  {
    // Unpublish before the stack object dies; workers only hold pointers to
    // batches they claimed work from, and all of this batch's work is done.
    std::lock_guard<std::mutex> lk(mu_);
    queue_.erase(std::find(queue_.begin(), queue_.end(), &batch));
  }

  const auto merge_start = std::chrono::steady_clock::now();
  const std::size_t done = merge(batch);
  const auto merge_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - merge_start)
                            .count();
  interp.batch_active_ = false;

  InterpreterStats& stats = interp.stats_;
  std::uint64_t units = 0;
  std::uint64_t widest = 0;
  for (const Batch::ShardStats& s : batch.shard_stats) {
    stats.requests_processed += s.requests_processed;
    stats.messages_delivered += s.messages_delivered;
    stats.messages_materialized += s.messages_materialized;
    stats.instance_clones += s.instance_clones;
    units += s.work_units;
    widest = std::max(widest, s.work_units);
  }
  ++stats.parallel_batches;
  stats.work_units += units;
  stats.max_shard_width = std::max(stats.max_shard_width, widest);
  stats.merge_ns += static_cast<std::uint64_t>(merge_ns);

  interp.cursor_ = c;
  return done;
}

}  // namespace blockdag
