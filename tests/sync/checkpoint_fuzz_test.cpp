// Checkpoint decode hardening (ISSUE satellite): a checkpoint file is
// trusted *own* storage, but disks rot and operators copy files around, so
// the decoder must survive arbitrary mutation — never crash, never
// allocate from forged counts, and refuse anything whose signature or
// structure does not check out. A server pointed at corrupt storage must
// come up cleanly un-restored (and halted by the runtime), not
// half-restored.
#include <gtest/gtest.h>

#include "protocols/brb.h"
#include "runtime/cluster.h"
#include "sync/checkpoint.h"
#include "sync/checkpointer.h"
#include "sync/storage.h"
#include "util/serialize.h"

namespace blockdag {
namespace {

ClusterConfig fuzz_config() {
  ClusterConfig cfg;
  cfg.n_servers = 4;
  cfg.seed = 101;
  cfg.pacing.interval = sim_ms(10);
  return cfg;
}

// One valid signed checkpoint built from real cluster state, shared by the
// sweeps (building it is the expensive part).
struct Fixture {
  brb::BrbFactory factory;
  Cluster cluster{factory, fuzz_config()};
  Bytes wire;

  Fixture() {
    cluster.start();
    for (std::uint32_t i = 0; i < 5; ++i) {
      cluster.request(i % 4, 1 + i,
                      brb::make_broadcast(Bytes{static_cast<std::uint8_t>(i)}));
      cluster.run_for(sim_ms(40));
    }
    EXPECT_TRUE(cluster.quiesce_and_converge());
    cluster.shim(0).collect_garbage();  // exercise the horizon fields too
    const auto cp = sync::build_checkpoint(cluster.shim(0), 1, 4);
    EXPECT_TRUE(cp.has_value());
    if (cp) wire = sync::encode_signed_checkpoint(*cp, cluster.signatures());
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(CheckpointFuzz, ValidWireDecodesSignedAndUnsigned) {
  Fixture& f = fixture();
  ASSERT_GT(f.wire.size(), 0u);
  EXPECT_TRUE(
      sync::decode_signed_checkpoint(f.wire, &f.cluster.signatures(), 0)
          .has_value());
  // sigs == nullptr skips signature verification (the storage layer's CRC
  // already screens accidental corruption); structure still decodes.
  EXPECT_TRUE(sync::decode_signed_checkpoint(f.wire, nullptr, 0).has_value());
}

TEST(CheckpointFuzz, EveryTruncationIsRefused) {
  Fixture& f = fixture();
  for (std::size_t len = 0; len < f.wire.size(); ++len) {
    const Bytes torn(f.wire.begin(), f.wire.begin() + len);
    EXPECT_FALSE(
        sync::decode_signed_checkpoint(torn, &f.cluster.signatures(), 0)
            .has_value())
        << "prefix of length " << len << " decoded";
    // The unsigned path must at minimum not crash or over-allocate; a
    // truncation can never yield a full checkpoint.
    EXPECT_FALSE(sync::decode_signed_checkpoint(torn, nullptr, 0).has_value())
        << "unsigned prefix of length " << len << " decoded";
  }
}

TEST(CheckpointFuzz, EveryByteFlipIsRefusedUnderSignature) {
  Fixture& f = fixture();
  for (std::size_t i = 0; i < f.wire.size(); ++i) {
    Bytes flipped = f.wire;
    flipped[i] ^= 0xff;
    EXPECT_FALSE(
        sync::decode_signed_checkpoint(flipped, &f.cluster.signatures(), 0)
            .has_value())
        << "flip at byte " << i << " decoded";
  }
}

// Structural bound every accepted (unsigned) decode must satisfy: hardened
// decoding caps every count by the bytes remaining BEFORE allocating, so
// the total element count across all vectors can never exceed the wire
// size — a forged 0xFFFFFFFF count is refused, not pre-allocated.
void expect_allocation_bounded(const std::optional<sync::Checkpoint>& cp,
                               std::size_t wire_size, std::size_t offset) {
  if (!cp) return;
  EXPECT_EQ(cp->records.size(), cp->blocks.size())
      << "inconsistent decode at offset " << offset;
  const std::size_t elements = cp->blocks.size() + cp->records.size() +
                               cp->horizon.size() + cp->building_preds.size() +
                               cp->indications.size();
  EXPECT_LE(elements, wire_size) << "over-allocation at offset " << offset;
  std::size_t block_bytes = 0;
  for (const Bytes& b : cp->blocks) block_bytes += b.size();
  EXPECT_LE(block_bytes, wire_size) << "over-allocation at offset " << offset;
}

TEST(CheckpointFuzz, ByteFlipsNeverCrashTheUnsignedDecoder) {
  // Without the signature screen, flips reach the structural decoder. A
  // flip inside free-form bytes (a block payload, an indication) may still
  // decode — that's the storage CRC's and the signature's job to catch —
  // but whatever decodes must be internally consistent and allocation-
  // bounded, and nothing may crash or hang.
  Fixture& f = fixture();
  for (std::size_t i = 0; i < f.wire.size(); ++i) {
    Bytes flipped = f.wire;
    flipped[i] ^= 0xff;
    expect_allocation_bounded(sync::decode_signed_checkpoint(flipped, nullptr, 0),
                              f.wire.size(), i);
  }
}

TEST(CheckpointFuzz, ForgedCountsAreRejectedBeforeAllocation) {
  // Stamp 0xFFFFFFFF over every 32-bit window of the wire — wherever a
  // count or length lives, it now claims ~4G elements against a few KB of
  // remaining bytes. Hardened decoding bounds every count by the remaining
  // bytes *before* allocating, so each decode returns promptly (a 4G
  // pre-allocation would OOM the test long before any assert fires).
  Fixture& f = fixture();
  for (std::size_t i = 0; i + 4 <= f.wire.size(); ++i) {
    Bytes forged = f.wire;
    forged[i] = forged[i + 1] = forged[i + 2] = forged[i + 3] = 0xff;
    expect_allocation_bounded(sync::decode_signed_checkpoint(forged, nullptr, 0),
                              f.wire.size(), i);
  }
}

TEST(CheckpointFuzz, VersionSkewIsRefusedFirst) {
  Fixture& f = fixture();
  Bytes future = f.wire;
  ASSERT_EQ(future[0], sync::kCheckpointVersion);
  future[0] = sync::kCheckpointVersion + 1;
  EXPECT_FALSE(sync::decode_signed_checkpoint(future, &f.cluster.signatures(), 0)
                   .has_value());
  EXPECT_FALSE(sync::decode_signed_checkpoint(future, nullptr, 0).has_value());
}

// `cp` in an older layout, signed by its owner like a genuine file of that
// version. Version 1 also stored an active-label set per record (written
// here as the record's Ms[out] labels); versions 1 and 2 had no
// pis_digest.
Bytes encode_legacy(const sync::Checkpoint& cp, SignatureProvider& sigs,
                    std::uint8_t version) {
  Writer w;
  w.u64(cp.epoch);
  w.u32(cp.self);
  w.u32(cp.n_servers);
  w.u64(cp.next_k);
  for (const auto* hashes : {&cp.building_preds, &cp.horizon}) {
    w.u32(static_cast<std::uint32_t>(hashes->size()));
    for (const Hash256& h : *hashes) w.raw(h.span());
  }
  w.u32(static_cast<std::uint32_t>(cp.blocks.size()));
  for (const Bytes& b : cp.blocks) w.bytes(b);
  for (const sync::CheckpointRecord& rec : cp.records) {
    w.bytes(rec.digest);
    if (version == 1) {
      w.u32(static_cast<std::uint32_t>(rec.ms_out.size()));
      for (const auto& [label, msgs] : rec.ms_out) w.u64(label);
    }
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
  const Bytes payload = std::move(w).take();
  Bytes preimage{version};  // σ covers version ‖ payload
  preimage.insert(preimage.end(), payload.begin(), payload.end());
  Writer out;
  out.u8(version);
  out.bytes(payload);
  out.bytes(sigs.sign(cp.self, preimage));
  return std::move(out).take();
}

// A validly signed file of an older version left in a data dir must be
// refused outright — never misparsed as the current version — and leave a
// restarting server un-restored.
void expect_refused_cleanly(const Bytes& wire, SignatureProvider& sigs) {
  EXPECT_FALSE(sync::decode_signed_checkpoint(wire, &sigs, 0).has_value());
  EXPECT_FALSE(sync::decode_signed_checkpoint(wire, nullptr, 0).has_value());

  brb::BrbFactory factory;
  sync::MemStore store;
  ASSERT_TRUE(store.store_checkpoint(1, wire));
  Cluster fresh(factory, fuzz_config());
  Shim& shim = fresh.shim(0);
  sync::Checkpointer checkpointer(shim, fresh.signatures(), 4, &store);
  EXPECT_FALSE(checkpointer.restore_from_storage());
  EXPECT_FALSE(checkpointer.restore_stats().restored);
  EXPECT_EQ(shim.dag().size(), 0u);
  EXPECT_TRUE(shim.indications().empty());
  EXPECT_FALSE(shim.restoring());
}

TEST(CheckpointFuzz, Version1CheckpointIsRefusedCleanly) {
  // Version 2 dropped the per-record active-label set.
  Fixture& f = fixture();
  const auto cp = sync::decode_signed_checkpoint(f.wire, nullptr, 0);
  ASSERT_TRUE(cp.has_value());
  ASSERT_EQ(sync::kCheckpointVersion, 3);
  const Bytes v1 = encode_legacy(*cp, f.cluster.signatures(), 1);
  ASSERT_EQ(v1[0], 1);
  expect_refused_cleanly(v1, f.cluster.signatures());
}

TEST(CheckpointFuzz, Version2CheckpointIsRefusedCleanly) {
  // Version 3 added the tips' pis_digest, which a restored tip's children
  // chain their own from; a version-2 file has none to offer.
  Fixture& f = fixture();
  const auto cp = sync::decode_signed_checkpoint(f.wire, nullptr, 0);
  ASSERT_TRUE(cp.has_value());
  ASSERT_EQ(sync::kCheckpointVersion, 3);
  const Bytes v2 = encode_legacy(*cp, f.cluster.signatures(), 2);
  ASSERT_EQ(v2[0], 2);
  expect_refused_cleanly(v2, f.cluster.signatures());
}

TEST(CheckpointFuzz, PisDigestFieldIsValidated) {
  // The sweeps above reach the pis_digest field because the fixture's tips
  // carry one; here its two structural rules are checked directly: a
  // pis_digest is empty or 32 bytes, and B.PIs come only with one.
  Fixture& f = fixture();
  const auto cp = sync::decode_signed_checkpoint(f.wire, nullptr, 0);
  ASSERT_TRUE(cp.has_value());
  std::size_t tip = cp->records.size();
  for (std::size_t i = 0; i < cp->records.size(); ++i) {
    const sync::CheckpointRecord& rec = cp->records[i];
    EXPECT_TRUE(rec.pis_digest.empty() || rec.pis_digest.size() == 32u);
    if (!rec.pis.empty()) {
      EXPECT_EQ(rec.pis_digest.size(), 32u);
      tip = i;
    }
  }
  ASSERT_LT(tip, cp->records.size()) << "no tip record carries B.PIs";

  SignatureProvider& sigs = f.cluster.signatures();
  sync::Checkpoint short_digest = *cp;
  short_digest.records[tip].pis_digest.pop_back();
  EXPECT_FALSE(sync::decode_signed_checkpoint(
                   sync::encode_signed_checkpoint(short_digest, sigs), &sigs, 0)
                   .has_value());
  sync::Checkpoint no_digest = *cp;
  no_digest.records[tip].pis_digest.clear();
  EXPECT_FALSE(sync::decode_signed_checkpoint(
                   sync::encode_signed_checkpoint(no_digest, sigs), &sigs, 0)
                   .has_value());
  EXPECT_TRUE(sync::decode_signed_checkpoint(
                  sync::encode_signed_checkpoint(*cp, sigs), &sigs, 0)
                  .has_value());
}

TEST(CheckpointFuzz, StorageCrcScreensCorruptionBeforeTheDecoder) {
  Fixture& f = fixture();
  const Bytes file = sync::encode_checkpoint_file(f.wire);
  ASSERT_TRUE(sync::decode_checkpoint_file(file).has_value());
  for (std::size_t i = 0; i < file.size(); i += 7) {
    Bytes flipped = file;
    flipped[i] ^= 0x10;
    EXPECT_FALSE(sync::decode_checkpoint_file(flipped).has_value())
        << "flip at byte " << i << " passed the CRC";
  }
}

TEST(CheckpointFuzz, CorruptStorageLeavesTheServerCleanlyUnrestored) {
  Fixture& f = fixture();
  brb::BrbFactory factory;
  // A sample of mutations, each stored as the newest checkpoint of a fresh
  // server: restore must fail atomically — no partial DAG, no indications,
  // construction state untouched.
  std::vector<Bytes> mutations;
  for (std::size_t i = 0; i < f.wire.size(); i += f.wire.size() / 16 + 1) {
    Bytes m = f.wire;
    m[i] ^= 0xff;
    mutations.push_back(std::move(m));
  }
  mutations.emplace_back(f.wire.begin(), f.wire.begin() + f.wire.size() / 2);
  mutations.push_back(Bytes{0xde, 0xad, 0xbe, 0xef});

  for (std::size_t i = 0; i < mutations.size(); ++i) {
    sync::MemStore store;
    ASSERT_TRUE(store.store_checkpoint(1, mutations[i]));
    Cluster fresh(factory, fuzz_config());
    Shim& shim = fresh.shim(0);
    sync::Checkpointer checkpointer(shim, fresh.signatures(), 4, &store);
    EXPECT_FALSE(checkpointer.restore_from_storage())
        << "mutation " << i << " restored";
    EXPECT_FALSE(checkpointer.restore_stats().restored);
    EXPECT_EQ(shim.dag().size(), 0u) << "mutation " << i << " left state";
    EXPECT_TRUE(shim.indications().empty());
    EXPECT_FALSE(shim.restoring()) << "restore flag leaked";
  }
}

}  // namespace
}  // namespace blockdag
