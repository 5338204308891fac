// Persistent sorted map: a short vector of immutable, shared chunks.
//
// The interpreter's B.PIs holds every process instance server B.n has
// simulated up to block B. A child inherits its parent's map wholesale
// and changes only the few labels its requests and in-messages touch,
// while the map itself holds every label the builder has ever simulated
// (hundreds, on long runs). A flat copy per block would cost time in the
// number of labels, and wherever two versions of the map are alive at
// once (a block restored from a checkpoint, a builder's oldest block
// surviving a GC, or a forking builder lends copies to its children)
// memory in the sum of all inherited entries.
//
// ChunkedMap splits the sorted entries into chunks of at most kChunk
// entries, each behind a shared_ptr<const ...>. Copying the map copies
// only the chunk handles; apply() rebuilds only the chunks its batch
// touches and shares every other chunk with the version it was copied
// from, which is never changed. Chunks are immutable once published, so
// versions may be read from any number of threads.
//
// Chunk shape: a batch that only appends past the last key fills chunks
// completely (labels that only grow pack densely); any other insert into a
// full chunk splits the merged run into equal halves (or more pieces), so
// later interior inserts find room. Chunks are never empty.
//
// Iteration order is ascending by key, identical to std::map and FlatMap —
// the checkpoint codec and tests/testing/legacy_digest.h walk it and rely
// on that order.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

namespace blockdag {

template <typename K, typename V, std::size_t kChunkSize = 32>
class ChunkedMap {
  static_assert(kChunkSize >= 2, "a chunk must hold at least two entries");
  using Chunk = std::shared_ptr<const std::vector<std::pair<K, V>>>;

 public:
  using value_type = std::pair<K, V>;
  static constexpr std::size_t kChunk = kChunkSize;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = ChunkedMap::value_type;
    using difference_type = std::ptrdiff_t;
    using pointer = const value_type*;
    using reference = const value_type&;

    const_iterator() = default;

    reference operator*() const { return (*(*chunks_)[chunk_])[entry_]; }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() {
      if (++entry_ == (*chunks_)[chunk_]->size()) {
        ++chunk_;
        entry_ = 0;
      }
      return *this;
    }
    bool operator==(const const_iterator& o) const {
      return chunk_ == o.chunk_ && entry_ == o.entry_;
    }

   private:
    friend class ChunkedMap;
    const_iterator(const std::vector<Chunk>* chunks, std::size_t chunk, std::size_t entry)
        : chunks_(chunks), chunk_(chunk), entry_(entry) {}

    const std::vector<Chunk>* chunks_ = nullptr;
    std::size_t chunk_ = 0;
    std::size_t entry_ = 0;
  };

  const_iterator begin() const { return {&chunks_, 0, 0}; }
  const_iterator end() const { return {&chunks_, chunks_.size(), 0}; }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  const_iterator find(const K& key) const {
    // The owning chunk is the last one whose first key is <= key.
    const auto after = std::upper_bound(
        chunks_.begin(), chunks_.end(), key,
        [](const K& k, const Chunk& c) { return k < c->front().first; });
    if (after == chunks_.begin()) return end();
    const std::size_t c = static_cast<std::size_t>(after - chunks_.begin()) - 1;
    const std::vector<value_type>& entries = *chunks_[c];
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
    if (it == entries.end() || it->first != key) return end();
    return {&chunks_, c, static_cast<std::size_t>(it - entries.begin())};
  }

  // Inserts or overwrites every entry of `updates`, whose keys must be
  // strictly ascending. Chunks no update falls into keep their storage.
  void apply(std::vector<value_type> updates) {
    assert(std::adjacent_find(updates.begin(), updates.end(),
                              [](const value_type& a, const value_type& b) {
                                return !(a.first < b.first);
                              }) == updates.end());
    if (updates.empty()) return;
    std::vector<Chunk> out;
    out.reserve(chunks_.size() + 1 + updates.size() / kChunk);
    if (chunks_.empty()) {
      size_ = updates.size();
      emit(out, std::move(updates), /*pack=*/true);
      chunks_ = std::move(out);
      return;
    }
    auto u = updates.begin();
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      // Chunk c covers keys below chunk c+1's first key; keys before the
      // first chunk belong to it and keys past the last to the last.
      const bool last = c + 1 == chunks_.size();
      const auto u_end =
          last ? updates.end()
               : std::lower_bound(u, updates.end(), chunks_[c + 1]->front().first,
                                  [](const value_type& e, const K& k) { return e.first < k; });
      if (u == u_end) {
        out.push_back(chunks_[c]);
        continue;
      }
      const std::vector<value_type>& old = *chunks_[c];
      const bool tail_append = last && old.back().first < u->first;
      if (tail_append && old.size() == kChunk) {
        // A full last chunk stays as it is; the appended run starts anew.
        out.push_back(chunks_[c]);
        size_ += static_cast<std::size_t>(u_end - u);
        emit(out, std::vector<value_type>(std::make_move_iterator(u),
                                          std::make_move_iterator(u_end)),
             /*pack=*/true);
        break;
      }
      std::vector<value_type> merged;
      merged.reserve(old.size() + static_cast<std::size_t>(u_end - u));
      auto o = old.begin();
      while (o != old.end() || u != u_end) {
        if (u == u_end || (o != old.end() && o->first < u->first)) {
          merged.push_back(*o++);
        } else {
          if (o != old.end() && o->first == u->first) {
            ++o;  // overwritten
          } else {
            ++size_;
          }
          merged.push_back(std::move(*u++));
        }
      }
      emit(out, std::move(merged), tail_append);
    }
    chunks_ = std::move(out);
  }

  // Storage introspection, for tests of the sharing contract: two maps
  // share chunk storage exactly when these identities compare equal.
  std::size_t chunk_count() const { return chunks_.size(); }
  std::size_t chunk_size(std::size_t i) const { return chunks_[i]->size(); }
  const void* chunk_identity(std::size_t i) const { return chunks_[i].get(); }

 private:
  // Publishes the sorted run `entries` as one chunk, or — past kChunk —
  // as full chunks (`pack`, a pure tail append) or equal-sized pieces.
  static void emit(std::vector<Chunk>& out, std::vector<value_type> entries, bool pack) {
    const std::size_t m = entries.size();
    if (m <= kChunk) {
      out.push_back(std::make_shared<const std::vector<value_type>>(std::move(entries)));
      return;
    }
    const std::size_t pieces = (m + kChunk - 1) / kChunk;
    auto from = std::make_move_iterator(entries.begin());
    for (std::size_t i = 0; i < pieces; ++i) {
      const std::size_t n = pack ? std::min(kChunk, m - i * kChunk)
                                 : m / pieces + (i < m % pieces ? 1 : 0);
      out.push_back(std::make_shared<const std::vector<value_type>>(from, from + n));
      from += n;
    }
  }

  std::vector<Chunk> chunks_;
  std::size_t size_ = 0;
};

}  // namespace blockdag
