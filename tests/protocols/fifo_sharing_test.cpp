// FIFO-BRB's clone() shares slot history between the copies and copies a
// slot only on a copy's first write to it. These tests pin the contract
// that makes that invisible: each copy behaves exactly like an independent
// deep copy, serialization round-trips the digest, and concurrent clones
// of one committed instance are race-free (this binary also runs under
// ThreadSanitizer in tools/ci.sh).
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "protocols/fifo_brb.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace blockdag {
namespace {

constexpr std::uint32_t kServers = 4;
constexpr std::uint8_t kEcho = 1;
constexpr std::uint8_t kReady = 2;

Message slot_message(std::uint8_t type, ServerId sender, ServerId origin,
                     std::uint64_t seq, std::uint8_t value) {
  Writer w;
  w.u8(type);
  w.u32(origin);
  w.u64(seq);
  w.bytes(Bytes{value});
  return Message{sender, 0, std::move(w).take()};
}

// A process with history in several slots, some delivered, some not.
std::unique_ptr<Process> seasoned_process() {
  auto p = std::make_unique<fifo::FifoBrbProcess>(0, kServers);
  (void)p->on_request(fifo::make_broadcast(Bytes{7}));
  for (std::uint64_t seq = 0; seq < 6; ++seq) {
    for (ServerId s = 0; s < 3; ++s) {
      (void)p->on_message(slot_message(kEcho, s, 1, seq, 40));
      if (seq % 2 == 0) (void)p->on_message(slot_message(kReady, s, 1, seq, 40));
    }
  }
  return p;
}

// Deep copy through the checkpoint codec: shares nothing with `p`.
std::unique_ptr<Process> deep_copy(const Process& p) {
  static const fifo::FifoBrbFactory factory;
  auto copy = factory.deserialize(1, p.self(), kServers, p.serialize());
  EXPECT_NE(copy, nullptr);
  return copy;
}

TEST(FifoSharing, MutatingEitherCopyLeavesTheOtherUnchanged) {
  const std::unique_ptr<Process> original = seasoned_process();
  const Bytes digest0 = original->state_digest();
  const Bytes state0 = original->serialize();

  // Write to the clone: a shared slot, then a fresh one.
  const std::unique_ptr<Process> copy = original->clone();
  EXPECT_EQ(copy->state_digest(), digest0);
  (void)copy->on_message(slot_message(kReady, 3, 1, 1, 40));
  (void)copy->on_message(slot_message(kEcho, 2, 2, 0, 9));
  EXPECT_NE(copy->state_digest(), digest0);
  EXPECT_EQ(original->state_digest(), digest0);
  EXPECT_EQ(original->serialize(), state0);

  // Write to the original — the slot both wrote, and one only the clone
  // still shares: the clone keeps what it had.
  const Bytes digest1 = copy->state_digest();
  const Bytes state1 = copy->serialize();
  (void)original->on_message(slot_message(kReady, 2, 1, 1, 40));
  (void)original->on_message(slot_message(kReady, 3, 1, 4, 40));
  (void)original->on_request(fifo::make_broadcast(Bytes{8}));
  EXPECT_EQ(copy->state_digest(), digest1);
  EXPECT_EQ(copy->serialize(), state1);
  EXPECT_NE(original->state_digest(), digest0);

  // Second generation: a clone of the clone, then the middle one writes.
  const std::unique_ptr<Process> grandchild = copy->clone();
  (void)copy->on_message(slot_message(kReady, 0, 1, 3, 40));
  EXPECT_EQ(grandchild->state_digest(), digest1);
  EXPECT_EQ(grandchild->serialize(), state1);
}

TEST(FifoSharing, SerializeRoundTripsTheDigest) {
  const std::unique_ptr<Process> p = seasoned_process();
  const std::unique_ptr<Process> q = p->clone();
  (void)q->on_message(slot_message(kEcho, 3, 1, 5, 40));
  for (const Process* proc : {p.get(), q.get()}) {
    const std::unique_ptr<Process> restored = deep_copy(*proc);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->state_digest(), proc->state_digest());
    EXPECT_EQ(restored->serialize(), proc->serialize());
  }
}

// Random trees of clones driven by random events, each node mirrored by a
// deep copy made through the codec: after every step each clone must match
// its mirror exactly, outputs included.
TEST(FifoSharing, ClonesBehaveLikeDeepCopies) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    struct Pair {
      std::unique_ptr<Process> shared;
      std::unique_ptr<Process> deep;
    };
    std::vector<Pair> pairs;
    pairs.push_back({seasoned_process(), nullptr});
    pairs[0].deep = deep_copy(*pairs[0].shared);
    for (int step = 0; step < 300; ++step) {
      const std::size_t i = rng.below(pairs.size());
      if (rng.below(5) == 0 && pairs.size() < 24) {
        pairs.push_back({pairs[i].shared->clone(), deep_copy(*pairs[i].deep)});
        continue;
      }
      StepResult a;
      StepResult b;
      if (rng.below(6) == 0) {
        const Bytes req = fifo::make_broadcast(Bytes{static_cast<std::uint8_t>(rng.below(4))});
        a = pairs[i].shared->on_request(req);
        b = pairs[i].deep->on_request(req);
      } else {
        const Message m = slot_message(
            rng.below(2) == 0 ? kEcho : kReady, static_cast<ServerId>(rng.below(kServers)),
            static_cast<ServerId>(rng.below(kServers)), rng.below(8),
            static_cast<std::uint8_t>(40 + rng.below(2)));
        a = pairs[i].shared->on_message(m);
        b = pairs[i].deep->on_message(m);
      }
      ASSERT_EQ(a.messages, b.messages) << "seed " << seed << " step " << step;
      ASSERT_EQ(a.indications, b.indications) << "seed " << seed << " step " << step;
      for (const Pair& p : pairs) {
        ASSERT_EQ(p.shared->state_digest(), p.deep->state_digest())
            << "seed " << seed << " step " << step;
      }
    }
  }
}

// change_digest() (the part of a block's digest an instance contributes,
// interpret/interpreter.h "Retention") covers only the slots written since
// the clone, yet given the parent it must pin the whole state: two clones
// of one parent with equal change digests have equal states. Equal events
// give equal change digests whether the instance was cloned or restored
// from the codec.
TEST(FifoSharing, ChangeDigestPinsTheStateGivenTheParent) {
  const std::unique_ptr<Process> parent = seasoned_process();
  EXPECT_NE(parent->clone()->change_digest(), parent->state_digest());
  std::size_t equal = 0;
  std::size_t different = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    // A small pool, so that two random runs often reach the same state.
    const auto random_events = [&rng] {
      std::vector<Message> events;
      for (std::uint64_t k = rng.below(3); k > 0; --k) {
        events.push_back(slot_message(rng.below(2) == 0 ? kEcho : kReady,
                                      static_cast<ServerId>(2 + rng.below(2)), 1,
                                      rng.below(2), 40));
      }
      return events;
    };
    const auto stepped = [](std::unique_ptr<Process> p, const std::vector<Message>& events) {
      for (const Message& m : events) (void)p->on_message(m);
      return p;
    };
    const std::vector<Message> ea = random_events();
    const std::vector<Message> eb = random_events();
    const std::unique_ptr<Process> a = stepped(parent->clone(), ea);
    const std::unique_ptr<Process> b = stepped(parent->clone(), eb);
    if (a->change_digest() == b->change_digest()) {
      ++equal;
      EXPECT_EQ(a->state_digest(), b->state_digest()) << "seed " << seed;
    } else {
      ++different;
    }
    EXPECT_EQ(stepped(deep_copy(*parent), ea)->change_digest(), a->change_digest())
        << "seed " << seed;
  }
  EXPECT_GT(equal, 0u);
  EXPECT_GT(different, 0u);
}

// The parallel interpreter's workers clone committed instances concurrently
// and step their clones; the committed instance must never change.
TEST(FifoSharing, ConcurrentClonesOfACommittedInstance) {
  const std::shared_ptr<const Process> committed = seasoned_process();
  const Bytes digest0 = committed->state_digest();

  // Expected digest per worker, computed serially first.
  const auto work = [&committed](ServerId w) {
    std::unique_ptr<Process> mine = committed->clone();
    for (std::uint64_t seq = 0; seq < 6; ++seq) {
      (void)mine->on_message(slot_message(kReady, 3, 1, seq, 40));
      (void)mine->on_message(slot_message(kEcho, w, 2, seq, 50));
    }
    return mine->state_digest();
  };
  constexpr ServerId kWorkers = 4;
  std::vector<Bytes> expected;
  for (ServerId w = 0; w < kWorkers; ++w) expected.push_back(work(w));

  std::vector<Bytes> got(kWorkers);
  std::vector<std::thread> threads;
  for (ServerId w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      for (int round = 0; round < 20; ++round) got[w] = work(w);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(got, expected);
  EXPECT_EQ(committed->state_digest(), digest0);
}

}  // namespace
}  // namespace blockdag
