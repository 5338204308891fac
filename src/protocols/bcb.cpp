#include "protocols/bcb.h"

#include "protocol/state_codec.h"

#include "crypto/sha256.h"
#include "util/serialize.h"

namespace blockdag::bcb {

namespace {
constexpr std::uint8_t kReqSend = 0x11;
constexpr std::uint8_t kMsgSend = 1;
constexpr std::uint8_t kMsgEcho = 2;
constexpr std::uint8_t kIndDeliver = 0x21;

struct Parsed {
  std::uint8_t type;
  Bytes value;
};

std::optional<Parsed> parse(const Bytes& payload) {
  Reader r(payload);
  const auto tag = r.u8();
  if (!tag) return std::nullopt;
  auto value = r.bytes();
  if (!value || !r.done()) return std::nullopt;
  return Parsed{*tag, std::move(*value)};
}
}  // namespace

Bytes make_send(const Bytes& value) {
  Writer w;
  w.u8(kReqSend);
  w.bytes(value);
  return std::move(w).take();
}

Bytes make_deliver(const Bytes& value) {
  Writer w;
  w.u8(kIndDeliver);
  w.bytes(value);
  return std::move(w).take();
}

std::optional<Bytes> parse_deliver(const Bytes& indication) {
  Reader r(indication);
  const auto tag = r.u8();
  if (!tag || *tag != kIndDeliver) return std::nullopt;
  auto value = r.bytes();
  if (!value || !r.done()) return std::nullopt;
  return value;
}

StepResult BcbProcess::send_to_all(std::uint8_t type, const Bytes& value) {
  Writer w;
  w.u8(type);
  w.bytes(value);
  const Bytes payload = std::move(w).take();
  StepResult result;
  result.messages.reserve(n_);
  for (ServerId to = 0; to < n_; ++to) {
    result.messages.push_back(Message{self_, to, payload});
  }
  return result;
}

StepResult BcbProcess::on_request(const Bytes& request) {
  StepResult result;
  const auto parsed = parse(request);
  if (!parsed || parsed->type != kReqSend || sent_) return result;
  sent_ = true;
  result.append(send_to_all(kMsgSend, parsed->value));
  return result;
}

StepResult BcbProcess::on_message(const Message& message) {
  StepResult result;
  const auto parsed = parse(message.payload);
  if (!parsed) return result;

  if (parsed->type == kMsgSend && !echoed_) {
    echoed_ = true;  // echo at most once, whatever the broadcaster does
    result.append(send_to_all(kMsgEcho, parsed->value));
  } else if (parsed->type == kMsgEcho) {
    SenderSet& senders = echos_[parsed->value];
    senders.insert(message.sender);
    if (!delivered_ && senders.size() >= byzantine_quorum(n_)) {
      delivered_ = true;
      result.indications.push_back(make_deliver(parsed->value));
    }
  }
  return result;
}

Bytes BcbProcess::state_digest() const {
  Writer w;
  w.u8(sent_);
  w.u8(echoed_);
  w.u8(delivered_);
  state_codec::put(w, echos_);
  const auto d = Sha256::digest(w.data());
  return Bytes(d.begin(), d.end());
}

Bytes BcbProcess::serialize() const {
  using state_codec::put;
  Writer w;
  put(w, sent_);
  put(w, echoed_);
  put(w, delivered_);
  put(w, echos_);
  return std::move(w).take();
}

bool BcbProcess::restore(const Bytes& state) {
  using state_codec::get;
  Reader r(state);
  return get(r, sent_) && get(r, echoed_) && get(r, delivered_) &&
         get(r, echos_) && r.remaining() == 0;
}

}  // namespace blockdag::bcb
