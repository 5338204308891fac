// FIFO byzantine reliable broadcast.
//
// A third deterministic P: every server may broadcast a *stream* of values
// within one protocol instance; correct servers deliver each origin's
// values in the origin's broadcast order. Built as one double-echo (BRB)
// slot per (origin, sequence) with a per-origin hold-back queue — the
// classic FIFO layering, here inside a single black-box P so that one
// label carries a whole ordered channel.
//
//   Rqsts = { broadcast(v) }                     (origin = requesting server)
//   Inds  = { deliver(origin, seq, v) }
//   M     = { ECHO (o,s,v), READY (o,s,v) }
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>

#include "protocol/protocol.h"
#include "protocol/vote_tally.h"

namespace blockdag::fifo {

Bytes make_broadcast(const Bytes& value);

struct Delivery {
  ServerId origin;
  std::uint64_t seq;
  Bytes value;
};
Bytes make_deliver(const Delivery& d);
std::optional<Delivery> parse_deliver(const Bytes& indication);

class FifoBrbProcess final : public Process {
 public:
  FifoBrbProcess(ServerId self, std::uint32_t n_servers) : self_(self), n_(n_servers) {}

  ServerId self() const override { return self_; }
  // Copies the slot index, not the slots: both copies share every slot
  // until one of them first writes it (see writable_slot()).
  std::unique_ptr<Process> clone() const override;

  StepResult on_request(const Bytes& request) override;
  StepResult on_message(const Message& message) override;
  Bytes state_digest() const override;
  Bytes serialize() const override;
  bool restore(const Bytes& state);

 private:
  struct Slot {
    bool echoed = false;
    bool readied = false;
    bool delivered = false;  // slot-level BRB delivery (pre-FIFO)
    VoteTally echos;
    VoteTally readies;
  };
  using SlotKey = std::pair<ServerId, std::uint64_t>;
  // A slot handle, shared with clones until one side writes the slot.
  // `epoch` is the epoch of the instance that allocated this slot: the
  // instance may write it in place only while its own epoch_ still equals
  // it and it has not been lent since.
  struct SlotRef {
    std::shared_ptr<const Slot> slot;
    std::uint64_t epoch = 0;
  };

  // The clone's copy: shares every slot and owns none of them.
  FifoBrbProcess(const FifoBrbProcess& other);

  // The slot at `key`, created or copied so that this instance alone holds
  // it. Every state change to a slot goes through here.
  Slot& writable_slot(const SlotKey& key);
  StepResult send_to_all(std::uint8_t type, ServerId origin, std::uint64_t seq,
                         const Bytes& value);
  void maybe_progress(StepResult& result, const SlotKey& key, Slot& slot,
                      const Bytes& value);
  void flush_fifo(StepResult& result, ServerId origin);

  ServerId self_;
  std::uint32_t n_;

  // Slot ownership, tracked per instance rather than through
  // shared_ptr::use_count(), which concurrent clones of a committed
  // instance would make racy. A clone starts at its source's epoch + 1, so
  // it owns none of the slots it copied; clone() sets the source's `lent_`,
  // and the source's next write moves it to a fresh epoch likewise. The
  // flag is the only state clone() writes, and it is atomic, so any number
  // of threads may clone one instance at once.
  std::uint64_t epoch_ = 0;
  mutable std::atomic<bool> lent_{false};

  std::uint64_t next_own_seq_ = 0;
  std::map<SlotKey, SlotRef> slots_;
  // Slot-delivered values awaiting FIFO order, per origin.
  std::map<ServerId, std::map<std::uint64_t, Bytes>> ready_to_deliver_;
  std::map<ServerId, std::uint64_t> next_deliver_seq_;
};

class FifoBrbFactory final : public ProtocolFactory {
 public:
  std::unique_ptr<Process> create(Label, ServerId self,
                                  std::uint32_t n_servers) const override {
    return std::make_unique<FifoBrbProcess>(self, n_servers);
  }
  std::unique_ptr<Process> deserialize(Label, ServerId self,
                                       std::uint32_t n_servers,
                                       const Bytes& state) const override {
    auto p = std::make_unique<FifoBrbProcess>(self, n_servers);
    return p->restore(state) ? std::move(p) : nullptr;
  }
  const char* name() const override { return "fifo_brb"; }
};

}  // namespace blockdag::fifo
