#include "sync/checkpoint.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "util/serialize.h"

namespace blockdag::sync {

namespace {

// Per-builder tips: the only blocks whose PIs can still be read (Algorithm
// 2 line 4 copies states from the parent, and only a builder's latest
// block can be the parent of its next one).
std::unordered_set<Hash256> builder_tips(const BlockDag& dag) {
  std::map<ServerId, std::pair<SeqNo, Hash256>> best;
  for (const BlockPtr& b : dag.topological_order()) {
    const auto it = best.find(b->n());
    if (it == best.end() || b->k() > it->second.first) {
      best[b->n()] = {b->k(), b->ref()};
    }
  }
  std::unordered_set<Hash256> tips;
  for (const auto& [n, kv] : best) {
    (void)n;
    tips.insert(kv.second);
  }
  return tips;
}

// Decoding admits only 32-byte digests.
Sha256::Digest to_digest(const Bytes& bytes) {
  Sha256::Digest d{};
  std::copy_n(bytes.begin(), std::min(bytes.size(), d.size()), d.begin());
  return d;
}

Bytes encode_payload(const Checkpoint& cp) {
  Writer w;
  w.u64(cp.epoch);
  w.u32(cp.self);
  w.u32(cp.n_servers);
  w.u64(cp.next_k);
  w.u32(static_cast<std::uint32_t>(cp.building_preds.size()));
  for (const Hash256& h : cp.building_preds) w.raw(h.span());
  w.u32(static_cast<std::uint32_t>(cp.horizon.size()));
  for (const Hash256& h : cp.horizon) w.raw(h.span());
  w.u32(static_cast<std::uint32_t>(cp.blocks.size()));
  for (const Bytes& b : cp.blocks) w.bytes(b);
  for (const CheckpointRecord& rec : cp.records) {
    w.bytes(rec.digest);
    w.bytes(rec.pis_digest);
    w.u32(static_cast<std::uint32_t>(rec.ms_out.size()));
    for (const auto& [label, msgs] : rec.ms_out) {
      w.u64(label);
      w.u32(static_cast<std::uint32_t>(msgs.size()));
      for (const Message& m : msgs) w.raw(m.canonical());
    }
    w.u32(static_cast<std::uint32_t>(rec.pis.size()));
    for (const auto& [label, state] : rec.pis) {
      w.u64(label);
      w.bytes(state);
    }
  }
  w.u32(static_cast<std::uint32_t>(cp.indications.size()));
  for (const UserIndication& ind : cp.indications) {
    w.u64(ind.label);
    w.bytes(ind.indication);
    w.u64(ind.at);
  }
  return std::move(w).take();
}

bool read_hashes(Reader& r, std::vector<Hash256>& out) {
  const auto count = r.u32();
  // Count bounded by actual bytes BEFORE the reserve (forged-count
  // hardening, same as Block::decode).
  if (!count || *count > r.remaining() / Hash256::kSize) return false;
  out.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto raw = r.raw(Hash256::kSize);
    if (!raw) return false;
    Sha256::Digest d;
    std::copy(raw->begin(), raw->end(), d.begin());
    out.emplace_back(d);
  }
  return true;
}

std::optional<Checkpoint> decode_payload(const Bytes& payload) {
  Checkpoint cp;
  Reader r(payload);
  const auto epoch = r.u64();
  const auto self = r.u32();
  const auto n_servers = r.u32();
  const auto next_k = r.u64();
  if (!epoch || !self || !n_servers || !next_k) return std::nullopt;
  cp.epoch = *epoch;
  cp.self = *self;
  cp.n_servers = *n_servers;
  cp.next_k = *next_k;
  if (!read_hashes(r, cp.building_preds)) return std::nullopt;
  if (!read_hashes(r, cp.horizon)) return std::nullopt;

  const auto n_blocks = r.u32();
  if (!n_blocks || *n_blocks > r.remaining()) return std::nullopt;
  cp.blocks.reserve(*n_blocks);
  for (std::uint32_t i = 0; i < *n_blocks; ++i) {
    auto b = r.bytes();
    if (!b) return std::nullopt;
    cp.blocks.push_back(std::move(*b));
  }
  cp.records.reserve(*n_blocks);
  for (std::uint32_t i = 0; i < *n_blocks; ++i) {
    CheckpointRecord rec;
    auto digest = r.bytes();
    // The digest is returned verbatim by Interpreter::digest_of after
    // restore; anything but a SHA-256 output is malformed.
    if (!digest || digest->size() != Sha256::kDigestSize) return std::nullopt;
    rec.digest = std::move(*digest);
    auto pis_digest = r.bytes();
    if (!pis_digest || (!pis_digest->empty() &&
                        pis_digest->size() != Sha256::kDigestSize)) {
      return std::nullopt;
    }
    rec.pis_digest = std::move(*pis_digest);
    const auto n_out = r.u32();
    if (!n_out || *n_out > r.remaining()) return std::nullopt;
    rec.ms_out.reserve(*n_out);
    for (std::uint32_t j = 0; j < *n_out; ++j) {
      const auto label = r.u64();
      const auto n_msgs = r.u32();
      if (!label || !n_msgs || *n_msgs > r.remaining()) return std::nullopt;
      if (!rec.ms_out.empty() && *label <= rec.ms_out.back().first) {
        return std::nullopt;  // canonical: labels strictly ascending
      }
      std::vector<Message> msgs;
      msgs.reserve(*n_msgs);
      for (std::uint32_t m = 0; m < *n_msgs; ++m) {
        auto msg = Message::decode_canonical(r);
        if (!msg) return std::nullopt;
        msgs.push_back(std::move(*msg));
      }
      rec.ms_out.emplace_back(*label, std::move(msgs));
    }
    const auto n_pis = r.u32();
    if (!n_pis || *n_pis > r.remaining()) return std::nullopt;
    // Only a tip carries B.PIs, and a tip always carries its pis_digest.
    if (*n_pis != 0 && rec.pis_digest.empty()) return std::nullopt;
    rec.pis.reserve(*n_pis);
    for (std::uint32_t j = 0; j < *n_pis; ++j) {
      const auto label = r.u64();
      auto state = r.bytes();
      if (!label || !state) return std::nullopt;
      if (!rec.pis.empty() && *label <= rec.pis.back().first) {
        return std::nullopt;
      }
      rec.pis.emplace_back(*label, std::move(*state));
    }
    cp.records.push_back(std::move(rec));
  }

  const auto n_inds = r.u32();
  if (!n_inds || *n_inds > r.remaining()) return std::nullopt;
  cp.indications.reserve(*n_inds);
  for (std::uint32_t i = 0; i < *n_inds; ++i) {
    const auto label = r.u64();
    auto ind = r.bytes();
    const auto at = r.u64();
    if (!label || !ind || !at) return std::nullopt;
    cp.indications.push_back(UserIndication{*label, std::move(*ind), *at});
  }
  if (!r.done()) return std::nullopt;  // trailing garbage
  return cp;
}

}  // namespace

std::optional<Checkpoint> build_checkpoint(const Shim& shim,
                                           std::uint64_t epoch,
                                           std::uint32_t n_servers) {
  const BlockDag& dag = shim.dag();
  const Interpreter& interp = shim.interpreter();
  const std::unordered_set<Hash256> tips = builder_tips(dag);

  Checkpoint cp;
  cp.epoch = epoch;
  cp.self = shim.self();
  cp.n_servers = n_servers;
  cp.next_k = shim.gossip().next_seq();
  cp.building_preds = shim.gossip().building_preds();

  std::unordered_set<Hash256> horizon_seen;
  for (const BlockPtr& b : dag.topological_order()) {
    const BlockInterpretation* st = interp.state_of(b->ref());
    // Checkpoints are cut at an interpretation fixpoint; an uninterpreted
    // live block means the caller should retry after the next tick.
    if (!st || !st->interpreted) return std::nullopt;

    for (const Hash256& p : b->preds()) {
      if (!dag.contains(p) && horizon_seen.insert(p).second) {
        cp.horizon.push_back(p);
      }
    }

    CheckpointRecord rec;
    rec.digest = interp.digest_of(b->ref());
    rec.ms_out.reserve(st->ms_out.size());
    for (const auto& [label, msgs] : st->ms_out) {
      rec.ms_out.emplace_back(label, msgs);
    }
    if (tips.count(b->ref())) {
      // A lookup: tips hold their B.PIs (nullopt only for a lost state).
      const std::optional<InstanceMap> pis = interp.instances_at(b->ref());
      if (pis) {
        rec.pis_digest.assign(st->pis_digest.begin(), st->pis_digest.end());
        rec.pis.reserve(pis->size());
        for (const auto& [label, proc] : *pis) {
          Bytes state = proc->serialize();
          // An empty serialization marks a protocol without checkpoint
          // support (Process::serialize default) — checkpointing is off for
          // such deployments.
          if (state.empty()) return std::nullopt;
          rec.pis.emplace_back(label, std::move(state));
        }
      }
    }
    cp.blocks.push_back(b->encode());
    cp.records.push_back(std::move(rec));
  }
  cp.indications = shim.indications();
  return cp;
}

Bytes encode_signed_checkpoint(const Checkpoint& cp, SignatureProvider& sigs) {
  // σ signs (version ‖ payload) so a version byte swap also breaks the
  // signature, not just the decode.
  Bytes preimage;
  preimage.push_back(kCheckpointVersion);
  const Bytes payload = encode_payload(cp);
  preimage.insert(preimage.end(), payload.begin(), payload.end());
  const Bytes sigma = sigs.sign(cp.self, preimage);

  Writer w;
  w.u8(kCheckpointVersion);
  w.bytes(payload);
  w.bytes(sigma);
  return std::move(w).take();
}

std::optional<Checkpoint> decode_signed_checkpoint(const Bytes& wire,
                                                   SignatureProvider* sigs,
                                                   ServerId expected_signer) {
  Reader r(wire);
  const auto version = r.u8();
  if (!version || *version != kCheckpointVersion) return std::nullopt;
  auto payload = r.bytes();
  auto sigma = r.bytes();
  if (!payload || !sigma || !r.done()) return std::nullopt;
  if (sigs != nullptr) {
    Bytes preimage;
    preimage.push_back(*version);
    preimage.insert(preimage.end(), payload->begin(), payload->end());
    if (!sigs->verify(expected_signer, preimage, *sigma)) return std::nullopt;
  }
  auto cp = decode_payload(*payload);
  if (!cp || cp->self != expected_signer) return std::nullopt;
  return cp;
}

bool restore_checkpoint(Shim& shim, const Checkpoint& cp) {
  if (!shim.restoring()) return false;  // must run inside begin_restore()
  if (cp.blocks.size() != cp.records.size()) return false;
  if (cp.self != shim.self()) return false;

  std::vector<BlockPtr> blocks;
  blocks.reserve(cp.blocks.size());
  for (const Bytes& wire : cp.blocks) {
    auto block = Block::decode(wire);
    if (!block) return false;
    blocks.push_back(std::make_shared<const Block>(std::move(*block)));
  }
  if (!shim.gossip().restore_parts(cp.horizon, blocks, cp.next_k,
                                   cp.building_preds)) {
    return false;
  }

  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const CheckpointRecord& rec = cp.records[i];
    FlatMap<Label, std::vector<Message>> ms_out;
    ms_out.reserve(rec.ms_out.size());
    for (const auto& [label, msgs] : rec.ms_out) ms_out[label] = msgs;
    std::optional<Sha256::Digest> pis_digest;
    if (!rec.pis_digest.empty()) pis_digest = to_digest(rec.pis_digest);
    if (!shim.interpreter().restore_block(blocks[i]->ref(), to_digest(rec.digest),
                                          std::move(ms_out), pis_digest, rec.pis)) {
      return false;
    }
  }
  shim.restore_indications(cp.indications);
  return true;
}

}  // namespace blockdag::sync
