// Byzantine reliable broadcast — authenticated double-echo (Algorithm 4,
// after Cachin–Guerraoui–Rodrigues Module 3.12).
//
// This is the paper's running example for P (Section 5):
//   Rqsts = { broadcast(v) }, Inds = { deliver(v) },
//   M     = { ECHO v, READY v }.
//
// Properties (all preserved under shim(P) by Theorem 5.1):
//   * validity        — if a correct server broadcasts v, every correct
//                       server eventually delivers v;
//   * no duplication  — every correct server delivers at most one value;
//   * integrity       — if a correct server delivers v and the broadcaster
//                       is correct, v was broadcast;
//   * consistency     — no two correct servers deliver different values;
//   * totality        — if some correct server delivers, every correct
//                       server eventually delivers.
#pragma once

#include <optional>

#include "protocol/protocol.h"
#include "protocol/vote_tally.h"

namespace blockdag::brb {

// ---- Request / message / indication encodings ----

// Request: broadcast(v).
Bytes make_broadcast(const Bytes& value);
// Returns the value if `request` is a well-formed broadcast request.
std::optional<Bytes> parse_broadcast(const Bytes& request);

// Indication: deliver(v).
Bytes make_deliver(const Bytes& value);
std::optional<Bytes> parse_deliver(const Bytes& indication);

enum class MsgType : std::uint8_t { kEcho = 1, kReady = 2 };

struct ParsedMessage {
  MsgType type;
  Bytes value;
};
std::optional<ParsedMessage> parse_message(const Bytes& payload);

// ---- The process instance ----

class BrbProcess final : public Process {
 public:
  BrbProcess(ServerId self, std::uint32_t n_servers)
      : self_(self), n_(n_servers) {}

  ServerId self() const override { return self_; }
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<BrbProcess>(*this);
  }

  StepResult on_request(const Bytes& request) override;
  StepResult on_message(const Message& message) override;
  Bytes state_digest() const override;
  Bytes serialize() const override;
  // Rebuilds the private state from serialize() output; false on malformed
  // bytes (the instance is then unusable — callers discard it).
  bool restore(const Bytes& state);

  bool delivered() const { return delivered_; }

 private:
  StepResult send_to_all(MsgType type, const Bytes& value);
  void maybe_progress(StepResult& result, const Bytes& value);

  ServerId self_;
  std::uint32_t n_;

  bool echoed_ = false;
  bool readied_ = false;
  bool delivered_ = false;
  // Senders of ECHO v / READY v per value v (byzantine servers may echo
  // several values; quorums are counted per value).
  VoteTally echos_;
  VoteTally readies_;
};

class BrbFactory final : public ProtocolFactory {
 public:
  std::unique_ptr<Process> create(Label, ServerId self,
                                  std::uint32_t n_servers) const override {
    return std::make_unique<BrbProcess>(self, n_servers);
  }
  std::unique_ptr<Process> deserialize(Label, ServerId self,
                                       std::uint32_t n_servers,
                                       const Bytes& state) const override {
    auto p = std::make_unique<BrbProcess>(self, n_servers);
    return p->restore(state) ? std::move(p) : nullptr;
  }
  const char* name() const override { return "brb"; }
};

}  // namespace blockdag::brb
