#include "protocols/brb.h"

#include "protocol/state_codec.h"

#include "crypto/sha256.h"
#include "util/serialize.h"

namespace blockdag::brb {

namespace {
// Distinct tag spaces so requests, messages and indications can never be
// confused for one another (defense against cross-feeding encodings).
constexpr std::uint8_t kReqBroadcast = 0x11;
constexpr std::uint8_t kIndDeliver = 0x21;
}  // namespace

Bytes make_broadcast(const Bytes& value) {
  Writer w;
  w.u8(kReqBroadcast);
  w.bytes(value);
  return std::move(w).take();
}

std::optional<Bytes> parse_broadcast(const Bytes& request) {
  Reader r(request);
  const auto tag = r.u8();
  if (!tag || *tag != kReqBroadcast) return std::nullopt;
  auto value = r.bytes();
  if (!value || !r.done()) return std::nullopt;
  return value;
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

std::optional<ParsedMessage> parse_message(const Bytes& payload) {
  Reader r(payload);
  const auto tag = r.u8();
  if (!tag || (*tag != static_cast<std::uint8_t>(MsgType::kEcho) &&
               *tag != static_cast<std::uint8_t>(MsgType::kReady))) {
    return std::nullopt;
  }
  auto value = r.bytes();
  if (!value || !r.done()) return std::nullopt;
  return ParsedMessage{static_cast<MsgType>(*tag), std::move(*value)};
}

StepResult BrbProcess::send_to_all(MsgType type, const Bytes& value) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.bytes(value);
  const Bytes payload = std::move(w).take();

  StepResult result;
  result.messages.reserve(n_);
  for (ServerId to = 0; to < n_; ++to) {
    result.messages.push_back(Message{self_, to, payload});
  }
  return result;
}

void BrbProcess::maybe_progress(StepResult& result, const Bytes& value) {
  const std::uint32_t quorum = byzantine_quorum(n_);      // 2f+1
  const std::uint32_t amplify = plausibility_quorum(n_);  // f+1

  // Algorithm 4 lines 9–11: 2f+1 ECHO v → READY v.
  if (!readied_ && echos_[value].size() >= quorum) {
    readied_ = true;
    result.append(send_to_all(MsgType::kReady, value));
  }
  // Lines 12–14: f+1 READY v → READY v (amplification).
  if (!readied_ && readies_[value].size() >= amplify) {
    readied_ = true;
    result.append(send_to_all(MsgType::kReady, value));
  }
  // Lines 15–17: 2f+1 READY v → deliver(v).
  if (!delivered_ && readies_[value].size() >= quorum) {
    delivered_ = true;
    result.indications.push_back(make_deliver(value));
  }
}

StepResult BrbProcess::on_request(const Bytes& request) {
  StepResult result;
  const auto value = parse_broadcast(request);
  if (!value) return result;  // unauthentic / malformed request: ignore
  // Algorithm 4 lines 3–5: broadcast(v) → ECHO v to every server. The
  // `echoed` guard keeps a byzantine double-broadcast from echoing twice.
  if (echoed_) return result;
  echoed_ = true;
  result.append(send_to_all(MsgType::kEcho, *value));
  return result;
}

StepResult BrbProcess::on_message(const Message& message) {
  StepResult result;
  const auto parsed = parse_message(message.payload);
  if (!parsed) return result;  // malformed: a BFT protocol shrugs

  if (parsed->type == MsgType::kEcho) {
    echos_[parsed->value].insert(message.sender);
    // Lines 6–8: first ECHO v also triggers our own ECHO v.
    if (!echoed_) {
      echoed_ = true;
      result.append(send_to_all(MsgType::kEcho, parsed->value));
    }
  } else {
    readies_[parsed->value].insert(message.sender);
  }
  maybe_progress(result, parsed->value);
  return result;
}

Bytes BrbProcess::state_digest() const {
  using state_codec::put;
  Writer w;
  w.u8(echoed_);
  w.u8(readied_);
  w.u8(delivered_);
  put(w, echos_);
  put(w, readies_);
  const auto d = Sha256::digest(w.data());
  return Bytes(d.begin(), d.end());
}

Bytes BrbProcess::serialize() const {
  using state_codec::put;
  Writer w;
  put(w, echoed_);
  put(w, readied_);
  put(w, delivered_);
  put(w, echos_);
  put(w, readies_);
  return std::move(w).take();
}

bool BrbProcess::restore(const Bytes& state) {
  using state_codec::get;
  Reader r(state);
  return get(r, echoed_) && get(r, readied_) && get(r, delivered_) &&
         get(r, echos_) && get(r, readies_) && r.remaining() == 0;
}

}  // namespace blockdag::brb
