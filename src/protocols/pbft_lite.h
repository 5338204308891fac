// PBFT-lite: a deterministic leader-based single-shot consensus.
//
// Blockmania (cited in Section 6) embeds a simplified PBFT into a block
// DAG; this module is our equivalent demonstration that a *consensus*
// protocol — not just broadcast — embeds as a black-box P. The protocol is
// a locked-value variant of PBFT's normal case with complaint-driven view
// change. One label = one consensus slot.
//
// Determinism: the paper's framework requires P to be deterministic — no
// clocks, no randomness. Real PBFT's view change starts from *timeouts*;
// here timeouts are externalized as explicit `complain()` requests that
// users (or the runtime) inscribe into blocks, so inside P everything
// remains message-driven. This is exactly the integration pattern §7
// sketches for partial synchrony.
//
//   Rqsts = { propose(v), complain() }
//   Inds  = { decide(v) }
//   M     = { PREPREPARE(view, v), PREPARE(view, v), COMMIT(view, v),
//             COMPLAIN(view) }
//
// Safety argument (standard locking): a decision in view u requires 2f+1
// COMMIT(u, v), so ≥ f+1 correct servers locked v at u. A conflicting
// value v' in any later view needs 2f+1 PREPARE(v'), but the f+1 lockers
// refuse to prepare anything ≠ v, leaving at most 2f possible prepares.
// Liveness requires an eventually-correct leader holding the lock — the
// complaint mechanism rotates leaders until that happens.
#pragma once

#include <map>
#include <optional>
#include <set>

#include "protocol/protocol.h"
#include "protocol/vote_tally.h"

namespace blockdag::pbft {

Bytes make_propose(const Bytes& value);
Bytes make_complain();
Bytes make_decide(const Bytes& value);
std::optional<Bytes> parse_decide(const Bytes& indication);

class PbftProcess final : public Process {
 public:
  PbftProcess(ServerId self, std::uint32_t n_servers) : self_(self), n_(n_servers) {}

  ServerId self() const override { return self_; }
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<PbftProcess>(*this);
  }

  StepResult on_request(const Bytes& request) override;
  StepResult on_message(const Message& message) override;
  Bytes state_digest() const override;
  Bytes serialize() const override;
  bool restore(const Bytes& state);

  std::uint64_t view() const { return view_; }
  bool decided() const { return decided_; }
  ServerId leader_of(std::uint64_t view) const { return view % n_; }

 private:
  StepResult send_to_all(const Bytes& payload);
  Bytes proposal_for_view() const;
  void maybe_lead(StepResult& result);
  void advance_view(StepResult& result, std::uint64_t complained_view);
  // Re-evaluates state held for the (new) current view: a buffered
  // PREPREPARE from its leader and any already-complete PREPARE quorum.
  // Messages can arrive before a server advances its view (there is no
  // global view clock); without this replay the protocol loses liveness
  // under adversarial delivery orders.
  void enter_view(StepResult& result);
  void try_prepare(StepResult& result, std::uint64_t v, ServerId sender,
                   const Bytes& value);
  void try_commit(StepResult& result, std::uint64_t v, const Bytes& value);

  ServerId self_;
  std::uint32_t n_;

  std::uint64_t view_ = 0;
  std::optional<Bytes> my_proposal_;
  bool decided_ = false;

  std::optional<Bytes> locked_value_;
  std::uint64_t lock_view_ = 0;

  std::set<std::uint64_t> preprepared_views_;  // views where we led
  std::set<std::uint64_t> prepared_views_;     // views where we sent PREPARE
  std::set<std::uint64_t> committed_views_;    // views where we sent COMMIT
  std::set<std::uint64_t> complained_views_;   // views where we sent COMPLAIN

  std::map<std::uint64_t, VoteTally> prepares_;
  std::map<std::uint64_t, VoteTally> commits_;
  std::map<std::uint64_t, SenderSet> complaints_;
  // PREPREPAREs received for views we have not yet entered.
  std::map<std::uint64_t, Bytes> buffered_preprepares_;
};

class PbftFactory final : public ProtocolFactory {
 public:
  std::unique_ptr<Process> create(Label, ServerId self,
                                  std::uint32_t n_servers) const override {
    return std::make_unique<PbftProcess>(self, n_servers);
  }
  std::unique_ptr<Process> deserialize(Label, ServerId self,
                                       std::uint32_t n_servers,
                                       const Bytes& state) const override {
    auto p = std::make_unique<PbftProcess>(self, n_servers);
    return p->restore(state) ? std::move(p) : nullptr;
  }
  const char* name() const override { return "pbft_lite"; }
};

}  // namespace blockdag::pbft
