// Quorum vote tally: which servers voted for which value.
//
// Every quorum protocol here (BRB's ECHO/READY, BCB's ECHO, FIFO-BRB's
// per-slot ECHO/READY, PBFT-lite's per-view PREPARE/COMMIT) counts votes
// per value, and every interpreted block that advances an instance keeps a
// clone of these counts. A std::map<Bytes, std::set<ServerId>> pays one
// tree node per value and one per vote; a tally holds one sorted vector of
// (value, sorted senders) rows — one allocation for the rows, one per
// row's senders — and clones as flat copies.
//
// It keeps the std::map surface the protocols use, including operator[]
// inserting an empty row: state_digest() and serialize() count those rows,
// so a lookup that creates one is part of the instance state (the
// Scenario.GoldenRunDigests pins depend on it). Rows and senders iterate in
// the same order as the map and set did, so the canonical encodings are
// byte-identical (state_codec.h).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/flat_map.h"
#include "util/types.h"

namespace blockdag {

// The senders of one value: a sorted, duplicate-free vector with the
// std::set surface the protocols use.
class SenderSet {
 public:
  using const_iterator = std::vector<ServerId>::const_iterator;

  // Adds `sender`; false if it had already voted (std::set::insert().second).
  bool insert(ServerId sender) {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), sender);
    if (it != ids_.end() && *it == sender) return false;
    ids_.insert(it, sender);
    return true;
  }

  std::size_t size() const { return ids_.size(); }
  const_iterator begin() const { return ids_.begin(); }
  const_iterator end() const { return ids_.end(); }

  bool operator==(const SenderSet&) const = default;

 private:
  std::vector<ServerId> ids_;
};

// value → senders, ascending by value like std::map<Bytes, ...>.
using VoteTally = FlatMap<Bytes, SenderSet>;

}  // namespace blockdag
