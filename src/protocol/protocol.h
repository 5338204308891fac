// The black-box deterministic protocol interface (Section 4).
//
// The framework treats P as a black box that (i) takes a request or a
// message and (ii) immediately returns the triggered messages and any
// indications. Determinism (Section 2): the current state plus the fed
// event fully determine the next state and the outputs — no randomness, no
// clocks. One `Process` object is one process instance P(ℓ, s_i): the
// simulation of instance ℓ at server s_i, run locally by whichever server
// interprets the DAG.
//
// Requirements on implementations:
//  * Determinism — identical state + identical input ⇒ identical output
//    and successor state. This is what makes interpretation server-
//    independent (Lemma 4.2) and message compression sound.
//  * Cloneability — the interpreter copies PIs from parent blocks
//    (Algorithm 2 line 4); `clone()` must produce an independent copy:
//    stepping either copy never changes the other's state. Immutable
//    sub-state may be shared between the copies via thread-safe handles,
//    and clone() may be called on one instance from several threads at
//    once (the parallel engine clones committed instances concurrently).
//  * Robustness — inputs may originate from byzantine-built blocks:
//    duplicate, conflicting, or malformed payloads must not crash the
//    instance (it is a *BFT* protocol, after all).
#pragma once

#include <memory>
#include <vector>

#include "protocol/message.h"
#include "util/types.h"

namespace blockdag {

// Output of feeding one event to a process instance.
struct StepResult {
  std::vector<Message> messages;   // triggered messages, returned immediately
  std::vector<Bytes> indications;  // indications raised by this step

  void append(StepResult&& other) {
    for (auto& m : other.messages) messages.push_back(std::move(m));
    for (auto& i : other.indications) indications.push_back(std::move(i));
  }
};

class Process {
 public:
  virtual ~Process() = default;

  // The simulated server this instance runs as.
  virtual ServerId self() const = 0;

  // Independent copy (Algorithm 2 line 4: B.PIs ≔ copy B.parent.PIs);
  // immutable sub-state may be shared via thread-safe handles.
  virtual std::unique_ptr<Process> clone() const = 0;

  // High-level interface: request r ∈ Rqsts_P (Algorithm 2 line 6).
  virtual StepResult on_request(const Bytes& request) = 0;

  // Low-level interface: receive(m) (Algorithm 2 line 11).
  virtual StepResult on_message(const Message& message) = 0;

  // Deterministic digest of the instance state; used by tests asserting
  // Lemma 4.2 (server-independent interpretation) bit-for-bit.
  virtual Bytes state_digest() const = 0;

  // Canonical serialization of the full instance state for checkpointing
  // (src/sync): ProtocolFactory::deserialize must rebuild an instance whose
  // state_digest() and future behaviour are byte-identical. The default —
  // empty bytes — marks the instance non-serializable; checkpointing is
  // only available for protocols that override it (all shipped ones do;
  // minimal test Processes need not).
  virtual Bytes serialize() const { return {}; }
};

// Creates fresh process instances: one per (label, simulated server).
// `n_servers` is |Srvrs|; protocols derive quorum sizes from it.
class ProtocolFactory {
 public:
  virtual ~ProtocolFactory() = default;

  virtual std::unique_ptr<Process> create(Label label, ServerId self,
                                          std::uint32_t n_servers) const = 0;

  // Rebuilds an instance from Process::serialize() output. Returns nullptr
  // on malformed bytes or when the protocol does not support serialization
  // (the default) — checkpoint restore treats nullptr as a clean failure.
  virtual std::unique_ptr<Process> deserialize(Label label, ServerId self,
                                               std::uint32_t n_servers,
                                               const Bytes& state) const {
    (void)label;
    (void)self;
    (void)n_servers;
    (void)state;
    return nullptr;
  }

  // Human-readable protocol name (diagnostics, bench labels).
  virtual const char* name() const = 0;
};

}  // namespace blockdag
