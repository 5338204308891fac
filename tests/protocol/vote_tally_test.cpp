// VoteTally must be observationally identical to the
// std::map<Bytes, std::set<ServerId>> it replaced in the quorum protocols:
// the same rows (including the empty ones operator[] creates on lookup —
// state_digest() and serialize() count them), the same iteration order,
// byte-identical state_codec encodings, and a decoder that accepts and
// rejects exactly the inputs the map decoder does.
#include "protocol/vote_tally.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "protocol/state_codec.h"
#include "util/rng.h"

namespace blockdag {
namespace {

using RefTally = std::map<Bytes, std::set<ServerId>>;

template <typename T>
Bytes encode(const T& tally) {
  Writer w;
  state_codec::put(w, tally);
  return std::move(w).take();
}

// Same rows, same senders, same order.
void expect_same(const VoteTally& tally, const RefTally& ref) {
  ASSERT_EQ(tally.size(), ref.size());
  auto it = ref.begin();
  for (const auto& [value, senders] : tally) {
    EXPECT_EQ(value, it->first);
    EXPECT_TRUE(std::equal(senders.begin(), senders.end(), it->second.begin(),
                           it->second.end()));
    EXPECT_EQ(senders.size(), it->second.size());
    ++it;
  }
  EXPECT_EQ(encode(tally), encode(ref));
}

TEST(VoteTally, SenderSetIsASortedSet) {
  SenderSet s;
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.insert(3));
  EXPECT_TRUE(s.insert(1));
  EXPECT_FALSE(s.insert(3));
  EXPECT_TRUE(s.insert(2));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(std::vector<ServerId>(s.begin(), s.end()), (std::vector<ServerId>{1, 2, 3}));
}

TEST(VoteTally, LookupCreatesAnEmptyRowLikeTheMap) {
  VoteTally tally;
  RefTally ref;
  EXPECT_EQ(tally[Bytes{7}].size(), ref[Bytes{7}].size());
  expect_same(tally, ref);
  EXPECT_EQ(tally.size(), 1u);
  // find() does not create one.
  EXPECT_EQ(tally.find(Bytes{8}), tally.end());
  EXPECT_EQ(tally.size(), 1u);
}

TEST(VoteTally, SeededDifferentialAgainstMapOfSets) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    VoteTally tally;
    RefTally ref;
    for (int op = 0; op < 200; ++op) {
      // Few values and senders, so duplicates and re-votes are common.
      Bytes value(rng.below(3), static_cast<std::uint8_t>(rng.below(4)));
      const auto sender = static_cast<ServerId>(rng.below(7));
      switch (rng.below(3)) {
        case 0:  // a vote, possibly a duplicate
          EXPECT_EQ(tally[value].insert(sender), ref[value].insert(sender).second);
          break;
        case 1:  // a quorum check: operator[] creates an empty row
          EXPECT_EQ(tally[value].size(), ref[value].size());
          break;
        default:  // a non-creating lookup
          EXPECT_EQ(tally.find(value) == tally.end(), ref.find(value) == ref.end());
          break;
      }
      expect_same(tally, ref);
    }
    // Round trip through the codec, and copies compare equal.
    VoteTally back;
    const Bytes wire = encode(tally);
    Reader r(wire);
    ASSERT_TRUE(state_codec::get(r, back));
    EXPECT_TRUE(r.done());
    EXPECT_TRUE(back == tally);
    const VoteTally copy = tally;
    EXPECT_TRUE(copy == tally);
  }
}

// Decodes `bytes` with both codecs; they must agree on acceptance, on what
// they consumed and on what they decoded.
void expect_same_decode(const Bytes& bytes, const std::string& what) {
  VoteTally tally;
  RefTally ref;
  Reader rt(bytes);
  Reader rr(bytes);
  const bool ok_tally = state_codec::get(rt, tally);
  const bool ok_ref = state_codec::get(rr, ref);
  ASSERT_EQ(ok_tally, ok_ref) << what;
  if (!ok_ref) return;
  EXPECT_EQ(rt.remaining(), rr.remaining()) << what;
  EXPECT_EQ(encode(tally), encode(ref)) << what;
}

// One row as the codec writes it, senders in the order given.
void put_row(Writer& w, const Bytes& value, const std::vector<ServerId>& senders) {
  w.bytes(value);
  w.u32(static_cast<std::uint32_t>(senders.size()));
  for (ServerId s : senders) w.u32(s);
}

TEST(VoteTally, DecodeAcceptsAndRejectsExactlyWhatTheMapDoes) {
  // Hand-written edge cases: order is not enforced by either decoder (the
  // set/map insert sorts), duplicates are rejected by both.
  const struct {
    const char* what;
    std::vector<std::pair<Bytes, std::vector<ServerId>>> rows;
  } cases[] = {
      {"empty", {}},
      {"empty row", {{Bytes{1}, {}}}},
      {"sorted", {{Bytes{1}, {0, 2}}, {Bytes{2}, {1}}}},
      {"unsorted values", {{Bytes{2}, {1}}, {Bytes{1}, {0}}}},
      {"unsorted senders", {{Bytes{1}, {3, 0, 2}}}},
      {"duplicate value", {{Bytes{1}, {0}}, {Bytes{1}, {1}}}},
      {"duplicate sender", {{Bytes{1}, {2, 2}}}},
      {"empty value", {{Bytes{}, {5}}}},
  };
  for (const auto& c : cases) {
    Writer w;
    w.u32(static_cast<std::uint32_t>(c.rows.size()));
    for (const auto& [value, senders] : c.rows) put_row(w, value, senders);
    w.u8(0xaa);  // trailing byte: both must leave it unread
    expect_same_decode(w.data(), c.what);
  }

  // Every truncation and single-byte mutation of random valid encodings,
  // plus forged counts.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    RefTally ref;
    const std::uint64_t rows = rng.below(4);
    for (std::uint64_t i = 0; i < rows; ++i) {
      auto& senders = ref[Bytes(rng.below(3) + 1, static_cast<std::uint8_t>(i))];
      for (std::uint64_t k = rng.below(5); k > 0; --k) {
        senders.insert(static_cast<ServerId>(rng.below(6)));
      }
    }
    const Bytes wire = encode(ref);
    for (std::size_t len = 0; len <= wire.size(); ++len) {
      expect_same_decode(Bytes(wire.begin(), wire.begin() + len), "truncation");
    }
    for (std::size_t i = 0; i < wire.size(); ++i) {
      Bytes flipped = wire;
      flipped[i] = static_cast<std::uint8_t>(rng.below(256));
      expect_same_decode(flipped, "mutation");
      Bytes forged = wire;
      forged[i] = 0xff;
      expect_same_decode(forged, "forged byte");
    }
  }
}

}  // namespace
}  // namespace blockdag
