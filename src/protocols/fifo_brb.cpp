#include "protocols/fifo_brb.h"

#include <algorithm>

#include "protocol/state_codec.h"

#include "crypto/sha256.h"
#include "util/serialize.h"

namespace blockdag::fifo {

namespace {
constexpr std::uint8_t kReqBroadcast = 1;
constexpr std::uint8_t kMsgEcho = 1;
constexpr std::uint8_t kMsgReady = 2;
constexpr std::uint8_t kIndDeliver = 1;

struct Parsed {
  std::uint8_t type;
  ServerId origin;
  std::uint64_t seq;
  Bytes value;
};

std::optional<Parsed> parse(const Bytes& payload) {
  Reader r(payload);
  const auto tag = r.u8();
  const auto origin = r.u32();
  const auto seq = r.u64();
  if (!tag || !origin || !seq) return std::nullopt;
  auto value = r.bytes();
  if (!value || !r.done()) return std::nullopt;
  return Parsed{*tag, *origin, *seq, std::move(*value)};
}
}  // namespace

Bytes make_broadcast(const Bytes& value) {
  Writer w;
  w.u8(kReqBroadcast);
  w.bytes(value);
  return std::move(w).take();
}

Bytes make_deliver(const Delivery& d) {
  Writer w;
  w.u8(kIndDeliver);
  w.u32(d.origin);
  w.u64(d.seq);
  w.bytes(d.value);
  return std::move(w).take();
}

std::optional<Delivery> parse_deliver(const Bytes& indication) {
  Reader r(indication);
  const auto tag = r.u8();
  const auto origin = r.u32();
  const auto seq = r.u64();
  if (!tag || *tag != kIndDeliver || !origin || !seq) return std::nullopt;
  auto value = r.bytes();
  if (!value || !r.done()) return std::nullopt;
  return Delivery{*origin, *seq, std::move(*value)};
}

FifoBrbProcess::FifoBrbProcess(const FifoBrbProcess& other)
    : Process(),
      self_(other.self_),
      n_(other.n_),
      epoch_(other.epoch_ + 1),
      next_own_seq_(other.next_own_seq_),
      slots_(other.slots_),
      ready_to_deliver_(other.ready_to_deliver_),
      next_deliver_seq_(other.next_deliver_seq_) {}

std::unique_ptr<Process> FifoBrbProcess::clone() const {
  lent_.store(true);
  return std::unique_ptr<Process>(new FifoBrbProcess(*this));
}

FifoBrbProcess::Slot& FifoBrbProcess::writable_slot(const SlotKey& key) {
  // Every slot entry's epoch is <= epoch_, so stepping past it disowns all
  // slots the clones now share.
  if (lent_.load()) {
    lent_.store(false);
    ++epoch_;
  }
  const auto at = std::lower_bound(written_.begin(), written_.end(), key);
  if (at == written_.end() || *at != key) written_.insert(at, key);
  SlotRef& ref = slots_[key];
  if (!ref.slot) {
    ref.slot = std::make_shared<Slot>();
    ref.epoch = epoch_;
  } else if (ref.epoch != epoch_) {
    ref.slot = std::make_shared<Slot>(*ref.slot);
    ref.epoch = epoch_;
  }
  // Owned slots were allocated above as non-const Slot objects, so writing
  // through the handle is well-defined; no other instance references them.
  return const_cast<Slot&>(*ref.slot);
}

StepResult FifoBrbProcess::send_to_all(std::uint8_t type, ServerId origin,
                                       std::uint64_t seq, const Bytes& value) {
  Writer w;
  w.u8(type);
  w.u32(origin);
  w.u64(seq);
  w.bytes(value);
  const Bytes payload = std::move(w).take();
  StepResult result;
  result.messages.reserve(n_);
  for (ServerId to = 0; to < n_; ++to) {
    result.messages.push_back(Message{self_, to, payload});
  }
  return result;
}

void FifoBrbProcess::maybe_progress(StepResult& result, const SlotKey& key,
                                    Slot& slot, const Bytes& value) {
  const std::uint32_t quorum = byzantine_quorum(n_);
  const std::uint32_t amplify = plausibility_quorum(n_);

  if (!slot.readied && (slot.echos[value].size() >= quorum ||
                        slot.readies[value].size() >= amplify)) {
    slot.readied = true;
    result.append(send_to_all(kMsgReady, key.first, key.second, value));
  }
  if (!slot.delivered && slot.readies[value].size() >= quorum) {
    slot.delivered = true;
    ready_to_deliver_[key.first][key.second] = value;
    flush_fifo(result, key.first);
  }
}

void FifoBrbProcess::flush_fifo(StepResult& result, ServerId origin) {
  auto& pending = ready_to_deliver_[origin];
  std::uint64_t& next = next_deliver_seq_[origin];
  for (auto it = pending.find(next); it != pending.end(); it = pending.find(next)) {
    result.indications.push_back(make_deliver(Delivery{origin, next, it->second}));
    pending.erase(it);
    ++next;
  }
}

StepResult FifoBrbProcess::on_request(const Bytes& request) {
  StepResult result;
  Reader r(request);
  const auto tag = r.u8();
  if (!tag || *tag != kReqBroadcast) return result;
  auto value = r.bytes();
  if (!value || !r.done()) return result;

  // The requesting server is the origin; sequence numbers are assigned in
  // request order, which makes the stream FIFO by construction.
  const std::uint64_t seq = next_own_seq_++;
  const SlotKey key{self_, seq};
  Slot& slot = writable_slot(key);
  if (slot.echoed) return result;
  slot.echoed = true;
  result.append(send_to_all(kMsgEcho, self_, seq, *value));
  return result;
}

StepResult FifoBrbProcess::on_message(const Message& message) {
  StepResult result;
  const auto parsed = parse(message.payload);
  if (!parsed || parsed->origin >= n_) return result;

  const SlotKey key{parsed->origin, parsed->seq};
  Slot& slot = writable_slot(key);
  if (parsed->type == kMsgEcho) {
    slot.echos[parsed->value].insert(message.sender);
    if (!slot.echoed) {
      slot.echoed = true;
      result.append(send_to_all(kMsgEcho, parsed->origin, parsed->seq, parsed->value));
    }
  } else if (parsed->type == kMsgReady) {
    slot.readies[parsed->value].insert(message.sender);
  } else {
    return result;
  }
  maybe_progress(result, key, slot, parsed->value);
  return result;
}

namespace {
// The slot part of state_digest()'s encoding.
template <typename Slot>
void put_slot(Writer& w, const std::pair<ServerId, std::uint64_t>& key,
              const Slot& slot) {
  w.u32(key.first);
  w.u64(key.second);
  w.u8(slot.echoed);
  w.u8(slot.readied);
  w.u8(slot.delivered);
  state_codec::put(w, slot.echos);
  state_codec::put(w, slot.readies);
}

Bytes finish(Writer& w, const std::map<ServerId, std::uint64_t>& next_deliver_seq) {
  w.u32(static_cast<std::uint32_t>(next_deliver_seq.size()));
  for (const auto& [origin, next] : next_deliver_seq) {
    w.u32(origin);
    w.u64(next);
  }
  const auto d = Sha256::digest(w.data());
  return Bytes(d.begin(), d.end());
}
}  // namespace

Bytes FifoBrbProcess::state_digest() const {
  Writer w;
  w.u64(next_own_seq_);
  w.u32(static_cast<std::uint32_t>(slots_.size()));
  for (const auto& [key, ref] : slots_) put_slot(w, key, *ref.slot);
  return finish(w, next_deliver_seq_);
}

Bytes FifoBrbProcess::change_digest() const {
  Writer w;
  w.u64(next_own_seq_);
  w.u32(static_cast<std::uint32_t>(written_.size()));
  for (const SlotKey& key : written_) put_slot(w, key, *slots_.at(key).slot);
  return finish(w, next_deliver_seq_);
}

Bytes FifoBrbProcess::serialize() const {
  using state_codec::put;
  Writer w;
  put(w, next_own_seq_);
  // slots_ encoded inline — Slot is a private aggregate, so the generic
  // map helper cannot name it from namespace scope.
  w.u32(static_cast<std::uint32_t>(slots_.size()));
  for (const auto& [key, ref] : slots_) {
    const Slot& slot = *ref.slot;
    put(w, key);
    put(w, slot.echoed);
    put(w, slot.readied);
    put(w, slot.delivered);
    put(w, slot.echos);
    put(w, slot.readies);
  }
  put(w, ready_to_deliver_);
  put(w, next_deliver_seq_);
  return std::move(w).take();
}

bool FifoBrbProcess::restore(const Bytes& state) {
  using state_codec::get;
  Reader r(state);
  if (!get(r, next_own_seq_)) return false;
  const auto count = r.u32();
  if (!count || *count > r.remaining()) return false;
  slots_.clear();
  written_.clear();
  for (std::uint32_t i = 0; i < *count; ++i) {
    SlotKey key{};
    auto slot = std::make_shared<Slot>();
    if (!get(r, key) || !get(r, slot->echoed) || !get(r, slot->readied) ||
        !get(r, slot->delivered) || !get(r, slot->echos) ||
        !get(r, slot->readies)) {
      return false;
    }
    if (!slots_.emplace(key, SlotRef{std::move(slot), epoch_}).second) return false;
  }
  return get(r, ready_to_deliver_) && get(r, next_deliver_seq_) &&
         r.remaining() == 0;
}

}  // namespace blockdag::fifo
