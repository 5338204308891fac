#include "shim/shim.h"

#include "interpret/parallel_interpreter.h"

namespace blockdag {

Shim::Shim(ServerId self, TimerService& timers, Transport& net, SignatureProvider& sigs,
           const ProtocolFactory& factory, std::uint32_t n_servers,
           GossipConfig gossip_config, PacingConfig pacing, SeqNoMode seq_mode)
    : timers_(timers),
      gossip_(self, timers, net, sigs, rqsts_, gossip_config, seq_mode),
      interpreter_(gossip_.dag(), factory, n_servers),
      pacing_(pacing),
      n_servers_(n_servers) {
  net.attach(self, [this](ServerId from, const Bytes& wire) {
    // Aux traffic (state sync) is consumed before gossip sees it.
    if (aux_ && aux_(from, wire)) return;
    gossip_.on_network(from, wire);
  });
  gossip_.set_block_inserted_handler(
      [this](const BlockPtr& block) { on_block_inserted(block); });
  // Lines 8–9: indicate to the user only for the interpretation of P for
  // ourselves (s' = s): we trust our own simulated instance.
  interpreter_.set_indication_handler(
      [this](Label label, const Bytes& indication, ServerId on_behalf) {
        if (on_behalf != gossip_.self()) return;
        delivered_.push_back(UserIndication{label, indication, timers_.now()});
        // Restore-replay rebuilds the log without re-firing the external
        // handler: the pre-crash incarnation already surfaced these.
        if (!restoring_ && on_indication_) on_indication_(label, indication);
      });
}

void Shim::request(Label label, Bytes request) {
  // Lines 6–7.
  rqsts_.put(label, std::move(request));
  if (started_ && pacing_.eager_request_threshold != 0 &&
      rqsts_.size() >= pacing_.eager_request_threshold) {
    gossip_.disseminate(/*even_if_empty=*/false);
    run_interpreter();
  }
}

std::size_t Shim::run_interpreter() {
  // Restore replay must stay serial: restore_block()s interleave with
  // run()s and the engine asserts batch quiescence across them.
  if (interp_engine_ != nullptr && !restoring_) {
    return interp_engine_->run(interpreter_);
  }
  return interpreter_.run();
}

void Shim::on_block_inserted(const BlockPtr& block) {
  // During a checkpoint restore the interpretation states come from the
  // checkpoint records, not from replay — interpreting here would race the
  // restore_block pass (and silently replay history). The block sink stays
  // quiet too: replayed blocks are already in the log they came from.
  if (restoring_) return;
  if (block_sink_) block_sink_(block);
  // The DAG grew: interpret newly eligible blocks. Interpretation is
  // decoupled in the paper (it could run entirely off-line, Section 4);
  // running it inline keeps indication latency measurements tight while
  // changing nothing about the computed states (Lemma 4.2).
  run_interpreter();
}

std::size_t Shim::collect_garbage() {
  const std::size_t removed = gossip_.collect_garbage(
      n_servers_,
      [this](const std::vector<char>& doomed) { interpreter_.retain_frontier(doomed); });
  if (removed != 0) interpreter_.forget_pruned();
  return removed;
}

void Shim::tick() {
  tick_disseminate();
  tick_interpret();
}

void Shim::tick_disseminate() { gossip_.disseminate(!pacing_.skip_empty); }

void Shim::tick_interpret() {
  run_interpreter();
  if (maintenance_) maintenance_();
}

void Shim::schedule_next_dissemination() {
  beat_timer_ = timers_.schedule_after(pacing_.interval, [this] {
    beat_timer_ = TimerService::kInvalidTimer;
    if (!started_) return;
    tick();
    schedule_next_dissemination();
  });
}

void Shim::stop() {
  started_ = false;
  if (beat_timer_ != TimerService::kInvalidTimer) {
    timers_.cancel(beat_timer_);
    beat_timer_ = TimerService::kInvalidTimer;
  }
}

void Shim::halt() {
  stop();
  gossip_.halt();
}

bool Shim::restore(const Bytes& snapshot) {
  restoring_ = true;
  // GossipServer::restore replays the insert notification per block to
  // grow the interpreter's slot table; the explicit run() below then
  // recomputes interpretation state and indications() deterministically
  // (restoring_ keeps the inserted→interpret trigger quiet meanwhile).
  const bool ok = gossip_.restore(snapshot);
  if (ok) interpreter_.run();
  restoring_ = false;
  return ok;
}

void Shim::start() {
  if (started_) return;
  started_ = true;
  // First beat happens one interval in, so all servers configured at t=0
  // start symmetrically.
  schedule_next_dissemination();
}

}  // namespace blockdag
