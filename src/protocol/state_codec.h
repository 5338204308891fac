// Canonical encode/decode helpers for protocol instance state.
//
// Process::serialize() / ProtocolFactory::deserialize() (checkpointing,
// src/sync) round-trip the containers the shipped protocols keep their
// state in: std::map / std::set over small value types, vote tallies
// (protocol/vote_tally.h), plus scalars, Bytes and std::optional<Bytes>.
// Encoding is the repository-wide canonical form (util/serialize.h:
// little-endian fixed-width, u32 length prefixes); every container
// iterates in key order, so one value has exactly one encoding. A
// VoteTally encodes exactly like the std::map<Bytes, std::set<ServerId>>
// it replaced, and decodes the same inputs.
//
// Decoding is hardened the same way as the wire decoders: every element
// count is bounded by the bytes actually remaining BEFORE any allocation,
// so a corrupted or forged count cannot force a huge reserve — the decode
// fails cleanly instead (checkpoint_fuzz_test sweeps this).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <utility>

#include "protocol/vote_tally.h"
#include "util/flat_map.h"
#include "util/serialize.h"
#include "util/types.h"

namespace blockdag::state_codec {

// ---- encoding ----

inline void put(Writer& w, bool v) { w.u8(v ? 1 : 0); }
inline void put(Writer& w, std::uint32_t v) { w.u32(v); }
inline void put(Writer& w, std::uint64_t v) { w.u64(v); }
inline void put(Writer& w, const Bytes& v) { w.bytes(v); }

inline void put(Writer& w, const std::optional<Bytes>& v) {
  w.u8(v ? 1 : 0);
  if (v) w.bytes(*v);
}

template <typename A, typename B>
void put(Writer& w, const std::pair<A, B>& v) {
  put(w, v.first);
  put(w, v.second);
}

template <typename T>
void put(Writer& w, const std::set<T>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const T& e : v) put(w, e);
}

inline void put(Writer& w, const SenderSet& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (ServerId s : v) w.u32(s);
}

template <typename K, typename V>
void put(Writer& w, const FlatMap<K, V>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& [key, value] : v) {
    put(w, key);
    put(w, value);
  }
}

template <typename K, typename V>
void put(Writer& w, const std::map<K, V>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& [key, value] : v) {
    put(w, key);
    put(w, value);
  }
}

// ---- decoding ----

inline bool get(Reader& r, bool& v) {
  const auto b = r.u8();
  if (!b || *b > 1) return false;
  v = *b != 0;
  return true;
}
inline bool get(Reader& r, std::uint32_t& v) {
  const auto x = r.u32();
  if (!x) return false;
  v = *x;
  return true;
}
inline bool get(Reader& r, std::uint64_t& v) {
  const auto x = r.u64();
  if (!x) return false;
  v = *x;
  return true;
}
inline bool get(Reader& r, Bytes& v) {
  auto x = r.bytes();
  if (!x) return false;
  v = std::move(*x);
  return true;
}

inline bool get(Reader& r, std::optional<Bytes>& v) {
  const auto tag = r.u8();
  if (!tag || *tag > 1) return false;
  if (*tag == 0) {
    v.reset();
    return true;
  }
  auto x = r.bytes();
  if (!x) return false;
  v = std::move(*x);
  return true;
}

template <typename A, typename B>
bool get(Reader& r, std::pair<A, B>& v) {
  return get(r, v.first) && get(r, v.second);
}

// The count bound below is deliberately loose (one byte per element): it
// only has to stop forged counts from driving allocations, exact element
// sizes are enforced by the element decoders themselves.
template <typename T>
bool get(Reader& r, std::set<T>& v) {
  const auto count = r.u32();
  if (!count || *count > r.remaining()) return false;
  v.clear();
  for (std::uint32_t i = 0; i < *count; ++i) {
    T e{};
    if (!get(r, e)) return false;
    if (!v.insert(std::move(e)).second) return false;  // canonical: no dups
  }
  return true;
}

// Like std::set<ServerId>: senders in any order, duplicates rejected.
inline bool get(Reader& r, SenderSet& v) {
  const auto count = r.u32();
  if (!count || *count > r.remaining()) return false;
  v = SenderSet{};
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto s = r.u32();
    if (!s || !v.insert(*s)) return false;
  }
  return true;
}

// Like std::map: keys in any order, duplicates rejected.
template <typename K, typename V>
bool get(Reader& r, FlatMap<K, V>& v) {
  const auto count = r.u32();
  if (!count || *count > r.remaining()) return false;
  v.clear();
  for (std::uint32_t i = 0; i < *count; ++i) {
    K key{};
    V value{};
    if (!get(r, key) || !get(r, value)) return false;
    if (!v.emplace(key, std::move(value)).second) return false;
  }
  return true;
}

template <typename K, typename V>
bool get(Reader& r, std::map<K, V>& v) {
  const auto count = r.u32();
  if (!count || *count > r.remaining()) return false;
  v.clear();
  for (std::uint32_t i = 0; i < *count; ++i) {
    K key{};
    V value{};
    if (!get(r, key) || !get(r, value)) return false;
    if (!v.emplace(std::move(key), std::move(value)).second) return false;
  }
  return true;
}

}  // namespace blockdag::state_codec
