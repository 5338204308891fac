// The flat per-block digest interpretation used before digests were
// chained (interpret/interpreter.h): H(1 ‖ every B.PIs entry as
// (ℓ, state_digest) ‖ Ms[in] ‖ Ms[out]), or H(0) for an uninterpreted
// block. Rebuilt here from public state — Interpreter::instances_at and
// the block's buffers — so run digests pinned under that encoding stay
// checkable, and so tests can compare the two encodings block by block.
#pragma once

#include "crypto/sha256.h"
#include "interpret/interpreter.h"
#include "util/serialize.h"

namespace blockdag::testing {

// Empty when the block is interpreted but its B.PIs cannot be re-derived.
inline Bytes legacy_digest_of(const Interpreter& interp, const Hash256& ref) {
  const BlockInterpretation* st = interp.state_of(ref);
  Writer w;
  w.u8(st ? 1 : 0);
  if (st) {
    const std::optional<InstanceMap> pis = interp.instances_at(ref);
    if (!pis) return {};
    w.u32(static_cast<std::uint32_t>(pis->size()));
    for (const auto& [label, proc] : *pis) {
      w.u64(label);
      w.bytes(proc->state_digest());
    }
    const auto put_buffers = [&w](const FlatMap<Label, std::vector<Message>>& ms) {
      w.u32(static_cast<std::uint32_t>(ms.size()));
      for (const auto& [label, msgs] : ms) {
        w.u64(label);
        w.u32(static_cast<std::uint32_t>(msgs.size()));
        for (const Message& m : msgs) w.bytes(m.canonical());
      }
    };
    put_buffers(st->ms_in);
    put_buffers(st->ms_out);
  }
  const Sha256::Digest digest = Sha256::digest(w.data());
  return Bytes(digest.begin(), digest.end());
}

}  // namespace blockdag::testing
