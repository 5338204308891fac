// Byzantine consistent broadcast — authenticated echo broadcast (after
// Cachin–Guerraoui–Rodrigues Module 3.10).
//
// Weaker than BRB: consistency without totality (if the broadcaster is
// byzantine, some correct servers may deliver and others not — but never
// different values). One round cheaper than BRB — a useful second
// deterministic P demonstrating the framework's black-box genericity, and
// the core of recently proposed payment systems the paper cites [2, 13].
//
//   Rqsts = { send(v) }, Inds = { deliver(v) },
//   M     = { SEND v, ECHO v, FINAL v }.
//
// The broadcaster sends SEND v; every server echoes (once, to the
// broadcaster's slot); on 2f+1 ECHO v the *observer* delivers. Without
// per-message signatures we let every server count echoes itself (echoes
// go to everyone) — byzantine echoes for conflicting values cannot reach
// two 2f+1 quorums, which yields consistency.
#pragma once

#include <optional>

#include "protocol/protocol.h"
#include "protocol/vote_tally.h"

namespace blockdag::bcb {

Bytes make_send(const Bytes& value);
Bytes make_deliver(const Bytes& value);
std::optional<Bytes> parse_deliver(const Bytes& indication);

class BcbProcess final : public Process {
 public:
  BcbProcess(ServerId self, std::uint32_t n_servers) : self_(self), n_(n_servers) {}

  ServerId self() const override { return self_; }
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<BcbProcess>(*this);
  }

  StepResult on_request(const Bytes& request) override;
  StepResult on_message(const Message& message) override;
  Bytes state_digest() const override;
  Bytes serialize() const override;
  bool restore(const Bytes& state);

 private:
  StepResult send_to_all(std::uint8_t type, const Bytes& value);

  ServerId self_;
  std::uint32_t n_;

  bool sent_ = false;
  bool echoed_ = false;
  bool delivered_ = false;
  VoteTally echos_;
};

class BcbFactory final : public ProtocolFactory {
 public:
  std::unique_ptr<Process> create(Label, ServerId self,
                                  std::uint32_t n_servers) const override {
    return std::make_unique<BcbProcess>(self, n_servers);
  }
  std::unique_ptr<Process> deserialize(Label, ServerId self,
                                       std::uint32_t n_servers,
                                       const Bytes& state) const override {
    auto p = std::make_unique<BcbProcess>(self, n_servers);
    return p->restore(state) ? std::move(p) : nullptr;
  }
  const char* name() const override { return "bcb"; }
};

}  // namespace blockdag::bcb
