#include "protocols/pbft_lite.h"

#include "protocol/state_codec.h"

#include "crypto/sha256.h"
#include "util/serialize.h"

namespace blockdag::pbft {

namespace {
constexpr std::uint8_t kReqPropose = 1;
constexpr std::uint8_t kReqComplain = 2;
constexpr std::uint8_t kMsgPrePrepare = 1;
constexpr std::uint8_t kMsgPrepare = 2;
constexpr std::uint8_t kMsgCommit = 3;
constexpr std::uint8_t kMsgComplain = 4;
constexpr std::uint8_t kIndDecide = 1;

Bytes encode_msg(std::uint8_t type, std::uint64_t view, const Bytes& value) {
  Writer w;
  w.u8(type);
  w.u64(view);
  w.bytes(value);
  return std::move(w).take();
}

struct Parsed {
  std::uint8_t type;
  std::uint64_t view;
  Bytes value;
};

std::optional<Parsed> parse(const Bytes& payload) {
  Reader r(payload);
  const auto type = r.u8();
  const auto view = r.u64();
  if (!type || !view) return std::nullopt;
  auto value = r.bytes();
  if (!value || !r.done()) return std::nullopt;
  return Parsed{*type, *view, std::move(*value)};
}
}  // namespace

Bytes make_propose(const Bytes& value) {
  Writer w;
  w.u8(kReqPropose);
  w.bytes(value);
  return std::move(w).take();
}

Bytes make_complain() {
  Writer w;
  w.u8(kReqComplain);
  return std::move(w).take();
}

Bytes make_decide(const Bytes& value) {
  Writer w;
  w.u8(kIndDecide);
  w.bytes(value);
  return std::move(w).take();
}

std::optional<Bytes> parse_decide(const Bytes& indication) {
  Reader r(indication);
  const auto tag = r.u8();
  if (!tag || *tag != kIndDecide) return std::nullopt;
  auto value = r.bytes();
  if (!value || !r.done()) return std::nullopt;
  return value;
}

StepResult PbftProcess::send_to_all(const Bytes& payload) {
  StepResult result;
  result.messages.reserve(n_);
  for (ServerId to = 0; to < n_; ++to) {
    result.messages.push_back(Message{self_, to, payload});
  }
  return result;
}

Bytes PbftProcess::proposal_for_view() const {
  // A leader re-proposes its lock when it has one (safety); otherwise its
  // own pending proposal.
  if (locked_value_) return *locked_value_;
  if (my_proposal_) return *my_proposal_;
  return {};
}

void PbftProcess::maybe_lead(StepResult& result) {
  if (leader_of(view_) != self_ || preprepared_views_.count(view_)) return;
  const Bytes value = proposal_for_view();
  if (value.empty()) return;  // nothing to propose yet
  preprepared_views_.insert(view_);
  result.append(send_to_all(encode_msg(kMsgPrePrepare, view_, value)));
}

StepResult PbftProcess::on_request(const Bytes& request) {
  StepResult result;
  Reader r(request);
  const auto tag = r.u8();
  if (!tag) return result;

  if (*tag == kReqPropose) {
    auto value = r.bytes();
    if (!value || !r.done() || value->empty()) return result;
    if (!my_proposal_) my_proposal_ = std::move(*value);
    maybe_lead(result);
  } else if (*tag == kReqComplain && r.done()) {
    // The externalized timeout: complain about the current view.
    if (!decided_ && !complained_views_.count(view_)) {
      complained_views_.insert(view_);
      result.append(send_to_all(encode_msg(kMsgComplain, view_, {})));
    }
  }
  return result;
}

void PbftProcess::try_prepare(StepResult& result, std::uint64_t v, ServerId sender,
                              const Bytes& value) {
  if (sender != leader_of(v) || v != view_ || value.empty()) return;
  if (prepared_views_.count(v)) return;  // prepare at most once per view
  // Locked servers only endorse their locked value (safety).
  if (locked_value_ && *locked_value_ != value) return;
  prepared_views_.insert(v);
  result.append(send_to_all(encode_msg(kMsgPrepare, v, value)));
  // Our own PREPARE may complete an already-tallied quorum.
  auto& senders = prepares_[v][value];
  senders.insert(self_);
  try_commit(result, v, value);
}

void PbftProcess::try_commit(StepResult& result, std::uint64_t v, const Bytes& value) {
  const auto vit = prepares_.find(v);
  if (vit == prepares_.end()) return;
  const auto it = vit->second.find(value);
  if (it == vit->second.end()) return;
  if (v == view_ && it->second.size() >= byzantine_quorum(n_) &&
      !committed_views_.count(v)) {
    committed_views_.insert(v);
    locked_value_ = value;
    lock_view_ = v;
    result.append(send_to_all(encode_msg(kMsgCommit, v, value)));
  }
}

void PbftProcess::enter_view(StepResult& result) {
  maybe_lead(result);
  // Replay a buffered PREPREPARE for this view, if any.
  const auto bit = buffered_preprepares_.find(view_);
  if (bit != buffered_preprepares_.end()) {
    const Bytes value = bit->second;
    buffered_preprepares_.erase(bit);
    try_prepare(result, view_, leader_of(view_), value);
  }
  // Re-check PREPARE quorums that completed before we entered this view.
  const auto vit = prepares_.find(view_);
  if (vit != prepares_.end()) {
    // Copy values first: try_commit mutates nothing here, but stay safe.
    std::vector<Bytes> values;
    for (const auto& [value, senders] : vit->second) {
      (void)senders;
      values.push_back(value);
    }
    for (const Bytes& value : values) try_commit(result, view_, value);
  }
}

void PbftProcess::advance_view(StepResult& result, std::uint64_t complained_view) {
  if (complained_view < view_) return;
  view_ = complained_view + 1;
  enter_view(result);
}

StepResult PbftProcess::on_message(const Message& message) {
  StepResult result;
  const auto parsed = parse(message.payload);
  if (!parsed) return result;
  const std::uint64_t v = parsed->view;

  switch (parsed->type) {
    case kMsgPrePrepare: {
      if (message.sender != leader_of(v) || parsed->value.empty()) break;
      if (v > view_) {
        // Not in that view yet: buffer, replayed by enter_view.
        buffered_preprepares_.emplace(v, parsed->value);
        break;
      }
      try_prepare(result, v, message.sender, parsed->value);
      break;
    }
    case kMsgPrepare: {
      prepares_[v][parsed->value].insert(message.sender);
      try_commit(result, v, parsed->value);
      break;
    }
    case kMsgCommit: {
      auto& senders = commits_[v][parsed->value];
      senders.insert(message.sender);
      if (!decided_ && senders.size() >= byzantine_quorum(n_)) {
        decided_ = true;
        result.indications.push_back(make_decide(parsed->value));
      }
      break;
    }
    case kMsgComplain: {
      auto& senders = complaints_[v];
      senders.insert(message.sender);
      // f+1 complaints: join in (a correct server is behind the others).
      if (senders.size() >= plausibility_quorum(n_) && v >= view_ &&
          !complained_views_.count(v) && !decided_) {
        complained_views_.insert(v);
        result.append(send_to_all(encode_msg(kMsgComplain, v, {})));
      }
      // 2f+1 complaints: the view is abandoned.
      if (senders.size() >= byzantine_quorum(n_) && !decided_) {
        advance_view(result, v);
      }
      break;
    }
    default:
      break;
  }
  return result;
}

Bytes PbftProcess::state_digest() const {
  using state_codec::put;
  Writer w;
  w.u64(view_);
  w.u8(decided_);
  put(w, my_proposal_);
  w.u8(locked_value_.has_value());
  if (locked_value_) {
    w.bytes(*locked_value_);
    w.u64(lock_view_);
  }
  put(w, preprepared_views_);
  put(w, prepared_views_);
  put(w, committed_views_);
  put(w, complained_views_);
  put(w, prepares_);
  put(w, commits_);
  put(w, complaints_);
  put(w, buffered_preprepares_);
  const auto d = Sha256::digest(w.data());
  return Bytes(d.begin(), d.end());
}

Bytes PbftProcess::serialize() const {
  using state_codec::put;
  Writer w;
  put(w, view_);
  put(w, my_proposal_);
  put(w, decided_);
  put(w, locked_value_);
  put(w, lock_view_);
  put(w, preprepared_views_);
  put(w, prepared_views_);
  put(w, committed_views_);
  put(w, complained_views_);
  put(w, prepares_);
  put(w, commits_);
  put(w, complaints_);
  put(w, buffered_preprepares_);
  return std::move(w).take();
}

bool PbftProcess::restore(const Bytes& state) {
  using state_codec::get;
  Reader r(state);
  return get(r, view_) && get(r, my_proposal_) && get(r, decided_) &&
         get(r, locked_value_) && get(r, lock_view_) &&
         get(r, preprepared_views_) && get(r, prepared_views_) &&
         get(r, committed_views_) && get(r, complained_views_) &&
         get(r, prepares_) && get(r, commits_) && get(r, complaints_) &&
         get(r, buffered_preprepares_) && r.remaining() == 0;
}

}  // namespace blockdag::pbft
