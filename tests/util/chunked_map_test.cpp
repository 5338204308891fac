// ChunkedMap must read exactly like a std::map holding the same entries —
// ascending iteration, size, find — because digest_of() and the checkpoint
// codec walk B.PIs through it. On top of that it must be persistent: a
// copied version never changes when a later version is updated, and chunks
// no update touched are shared between versions, not copied.
#include "util/chunked_map.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/rng.h"

namespace blockdag {
namespace {

template <typename Map>
std::vector<std::pair<std::uint64_t, std::string>> entries_of(const Map& m) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  for (const auto& [k, v] : m) out.emplace_back(k, v);
  return out;
}

template <typename Map>
std::vector<const void*> identities(const Map& m) {
  std::vector<const void*> out;
  for (std::size_t i = 0; i < m.chunk_count(); ++i) out.push_back(m.chunk_identity(i));
  return out;
}

template <typename Map>
std::vector<std::size_t> shape(const Map& m) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < m.chunk_count(); ++i) out.push_back(m.chunk_size(i));
  return out;
}

template <typename Map>
void apply_keys(Map& m, std::initializer_list<std::uint64_t> keys) {
  std::vector<typename Map::value_type> updates;
  for (std::uint64_t k : keys) updates.emplace_back(k, std::to_string(k));
  m.apply(std::move(updates));
}

TEST(ChunkedMap, EmptyMap) {
  ChunkedMap<std::uint64_t, std::string> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.chunk_count(), 0u);
  EXPECT_TRUE(m.begin() == m.end());
  EXPECT_TRUE(m.find(7) == m.end());
  m.apply({});
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.chunk_count(), 0u);

  // A first batch larger than a chunk packs full chunks.
  ChunkedMap<std::uint64_t, std::string, 4> small;
  apply_keys(small, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_EQ(shape(small), (std::vector<std::size_t>{4, 4, 2}));
  EXPECT_EQ(small.size(), 10u);
}

TEST(ChunkedMap, TailAppendsFillChunksCompletely) {
  ChunkedMap<std::uint64_t, std::string, 4> m;
  for (std::uint64_t k = 1; k <= 4; ++k) apply_keys(m, {k});
  EXPECT_EQ(shape(m), (std::vector<std::size_t>{4}));
  const void* full = m.chunk_identity(0);

  apply_keys(m, {5});
  EXPECT_EQ(shape(m), (std::vector<std::size_t>{4, 1}));
  EXPECT_EQ(m.chunk_identity(0), full) << "a full last chunk is kept, not split";
  apply_keys(m, {6, 7, 8, 9, 10});
  EXPECT_EQ(shape(m), (std::vector<std::size_t>{4, 4, 2}));
  EXPECT_EQ(m.chunk_identity(0), full);
}

TEST(ChunkedMap, InteriorInsertsSplitInHalf) {
  using Map = ChunkedMap<std::uint64_t, std::string, 4>;
  Map base;
  apply_keys(base, {10, 20, 30, 40});

  Map head = base;
  apply_keys(head, {5});
  EXPECT_EQ(shape(head), (std::vector<std::size_t>{3, 2}));
  EXPECT_EQ(entries_of(head).front().first, 5u);

  Map middle = base;
  apply_keys(middle, {25});
  EXPECT_EQ(shape(middle), (std::vector<std::size_t>{3, 2}));

  // A batch mixing an interior insert with a tail append splits evenly.
  Map mixed = base;
  apply_keys(mixed, {15, 50, 60, 70});
  EXPECT_EQ(shape(mixed), (std::vector<std::size_t>{4, 4}));

  // Overwrites never change the shape.
  Map overwrite = base;
  apply_keys(overwrite, {10, 40});
  EXPECT_EQ(shape(overwrite), (std::vector<std::size_t>{4}));
  EXPECT_EQ(overwrite.size(), 4u);

  // The base version saw none of it.
  EXPECT_EQ(shape(base), (std::vector<std::size_t>{4}));
  EXPECT_EQ(entries_of(base),
            (std::vector<std::pair<std::uint64_t, std::string>>{
                {10, "10"}, {20, "20"}, {30, "30"}, {40, "40"}}));
}

TEST(ChunkedMap, UntouchedChunksAreSharedNotCopied) {
  ChunkedMap<std::uint64_t, std::string, 4> v1;
  std::vector<std::pair<std::uint64_t, std::string>> init;
  for (std::uint64_t k = 0; k < 40; ++k) init.emplace_back(k * 10, "v1");
  v1.apply(init);
  ASSERT_EQ(v1.chunk_count(), 10u);

  ChunkedMap<std::uint64_t, std::string, 4> v2 = v1;
  EXPECT_EQ(identities(v2), identities(v1)) << "a copy copies handles only";

  // Overwrite one key in chunk 3 and one in chunk 7.
  v2.apply({{130, "v2"}, {290, "v2"}});
  const auto a = identities(v1);
  const auto b = identities(v2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i == 3 || i == 7) {
      EXPECT_NE(a[i], b[i]) << "chunk " << i;
    } else {
      EXPECT_EQ(a[i], b[i]) << "chunk " << i;
    }
  }
  EXPECT_EQ(v1.find(130)->second, "v1");
  EXPECT_EQ(v2.find(130)->second, "v2");
  EXPECT_EQ(v1.find(290)->second, "v1");
  EXPECT_EQ(v2.find(290)->second, "v2");
}

// Seeded random batches of inserts (below the minimum, inside the range,
// past the maximum) and overwrites, against std::map. Every version is kept
// and re-checked at the end: updating a copy never reaches back into the
// version it was copied from.
template <std::size_t kChunk>
void run_differential(std::uint64_t seed) {
  using Map = ChunkedMap<std::uint64_t, std::string, kChunk>;
  Rng rng(seed);
  Map map;
  std::map<std::uint64_t, std::string> oracle;
  std::vector<std::pair<Map, std::map<std::uint64_t, std::string>>> versions;
  std::uint64_t lo = 1'000'000;
  std::uint64_t hi = 1'000'000;

  for (int step = 0; step < 120; ++step) {
    std::set<std::uint64_t> keys;
    const std::uint64_t n = 1 + rng.below(kChunk + 3);
    for (std::uint64_t i = 0; i < n; ++i) {
      switch (rng.below(4)) {
        case 0:  // head
          lo -= 1 + rng.below(3);
          keys.insert(lo);
          break;
        case 1:  // tail
          hi += 1 + rng.below(3);
          keys.insert(hi);
          break;
        case 2:  // middle (insert or overwrite)
          keys.insert(rng.between(lo, hi));
          break;
        default:  // overwrite an existing key
          if (!oracle.empty()) {
            auto it = oracle.begin();
            std::advance(it, static_cast<long>(rng.below(oracle.size())));
            keys.insert(it->first);
          }
      }
    }
    std::vector<typename Map::value_type> batch;
    const std::string value = "s" + std::to_string(step);
    for (std::uint64_t k : keys) {
      batch.emplace_back(k, value);
      oracle[k] = value;
    }
    map.apply(std::move(batch));

    ASSERT_EQ(map.size(), oracle.size()) << "seed " << seed << " step " << step;
    ASSERT_EQ(entries_of(map), entries_of(oracle)) << "seed " << seed << " step " << step;
    for (std::size_t i = 0; i < map.chunk_count(); ++i) {
      ASSERT_GE(map.chunk_size(i), 1u);
      ASSERT_LE(map.chunk_size(i), kChunk);
    }
    for (std::uint64_t probe = lo - 2; probe <= lo + 3; ++probe) {
      const auto it = map.find(probe);
      const auto ot = oracle.find(probe);
      ASSERT_EQ(it == map.end(), ot == oracle.end()) << probe;
      if (ot != oracle.end()) {
        ASSERT_EQ(it->second, ot->second);
      }
    }
    for (const auto& [k, v] : oracle) {
      const auto it = map.find(k);
      ASSERT_TRUE(it != map.end()) << k;
      ASSERT_EQ(it->first, k);
      ASSERT_EQ(it->second, v);
    }
    ASSERT_TRUE(map.find(hi + 1) == map.end());
    versions.emplace_back(map, oracle);
  }
  for (std::size_t i = 0; i < versions.size(); ++i) {
    EXPECT_EQ(entries_of(versions[i].first), entries_of(versions[i].second))
        << "seed " << seed << " version " << i;
  }
}

TEST(ChunkedMap, DifferentialAgainstStdMap) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_differential<2>(seed);
    run_differential<4>(seed);
    run_differential<32>(seed);
  }
}

}  // namespace
}  // namespace blockdag
