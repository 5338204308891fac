// Chained digests (interpret/interpreter.h, "Retention") against the flat
// encoding they replaced (tests/testing/legacy_digest.h), over seeded
// random DAGs and all five protocols. The two must agree on *which*
// blocks match: for every block two servers share, the flat digests are
// equal exactly when the chained ones are. A perturbed instance state
// must change the chained digest of its block and of every later block of
// its builder's chain — and of no other block.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "interpret/interpreter.h"
#include "protocols/bcb.h"
#include "protocols/brb.h"
#include "protocols/coin_beacon.h"
#include "protocols/fifo_brb.h"
#include "protocols/pbft_lite.h"
#include "testing/legacy_digest.h"
#include "testing/random_dag.h"

namespace blockdag {
namespace {

using testing::BlockForge;
using testing::RandomDagConfig;
using testing::legacy_digest_of;
using testing::make_random_dag;

// Behaves exactly like `inner`, but once it has processed `threshold`
// events its state_digest() and change_digest() carry one extra byte — a
// state change that only the digests can see.
class Perturbed final : public Process {
 public:
  Perturbed(std::unique_ptr<Process> inner, std::uint32_t threshold,
            std::uint32_t events = 0)
      : inner_(std::move(inner)), threshold_(threshold), events_(events) {}

  ServerId self() const override { return inner_->self(); }
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<Perturbed>(inner_->clone(), threshold_, events_);
  }
  StepResult on_request(const Bytes& request) override {
    ++events_;
    return inner_->on_request(request);
  }
  StepResult on_message(const Message& message) override {
    ++events_;
    return inner_->on_message(message);
  }
  Bytes state_digest() const override {
    Bytes d = inner_->state_digest();
    if (events_ >= threshold_) d.push_back(0x5a);
    return d;
  }
  Bytes change_digest() const override {
    Bytes d = inner_->change_digest();
    if (events_ >= threshold_) d.push_back(0x5a);
    return d;
  }
  Bytes serialize() const override { return inner_->serialize(); }

 private:
  std::unique_ptr<Process> inner_;
  std::uint32_t threshold_;
  std::uint32_t events_;
};

// `base`, with server `who`'s instance of `label` perturbed.
class PerturbingFactory final : public ProtocolFactory {
 public:
  PerturbingFactory(const ProtocolFactory& base, Label label, ServerId who)
      : base_(base), label_(label), who_(who) {}
  std::unique_ptr<Process> create(Label label, ServerId self,
                                  std::uint32_t n_servers) const override {
    auto inner = base_.create(label, self, n_servers);
    if (label != label_ || self != who_) return inner;
    return std::make_unique<Perturbed>(std::move(inner), 1);
  }
  const char* name() const override { return base_.name(); }

 private:
  const ProtocolFactory& base_;
  Label label_;
  ServerId who_;
};

struct Case {
  const char* name;
  const ProtocolFactory& factory;
  Bytes (*make_request)(const Bytes&);
  std::uint32_t streams;
};

const std::vector<Case>& cases() {
  static const brb::BrbFactory brb_factory;
  static const bcb::BcbFactory bcb_factory;
  static const fifo::FifoBrbFactory fifo_factory;
  static const pbft::PbftFactory pbft_factory;
  static const beacon::BeaconFactory beacon_factory;
  static const std::vector<Case> all = {
      {"brb", brb_factory, brb::make_broadcast, 0},
      {"bcb", bcb_factory, bcb::make_send, 0},
      {"fifo", fifo_factory, fifo::make_broadcast, 3},
      {"pbft", pbft_factory, pbft::make_propose, 0},
      {"beacon", beacon_factory,
       [](const Bytes& v) { return beacon::make_contribute(v.at(0)); }, 0},
  };
  return all;
}

testing::RandomDag dag_for(const Case& c, std::uint64_t seed) {
  BlockForge forge(4, seed);
  RandomDagConfig cfg;
  cfg.rounds = 10;
  cfg.broadcasts = 6;
  cfg.make_request = c.make_request;
  cfg.streams = c.streams;
  return make_random_dag(forge, cfg, seed);
}

struct Digests {
  Bytes chained;
  Bytes legacy;
};

std::map<Hash256, Digests> digests(const Interpreter& interp, const BlockDag& dag) {
  std::map<Hash256, Digests> out;
  for (const BlockPtr& b : dag.topological_order()) {
    out[b->ref()] = {interp.digest_of(b->ref()), legacy_digest_of(interp, b->ref())};
  }
  return out;
}

// Blocks whose chained (resp. flat) digests differ between two servers;
// every shared block must land in both sets or in neither.
std::set<Hash256> expect_same_verdicts(const std::map<Hash256, Digests>& a,
                                       const std::map<Hash256, Digests>& b,
                                       const std::string& what) {
  std::set<Hash256> differ;
  for (const auto& [ref, da] : a) {
    const auto it = b.find(ref);
    if (it == b.end()) continue;
    const Digests& db = it->second;
    EXPECT_FALSE(da.legacy.empty() || db.legacy.empty()) << what;
    EXPECT_EQ(da.chained == db.chained, da.legacy == db.legacy)
        << what << " block " << ref.short_hex();
    if (da.chained != db.chained) differ.insert(ref);
  }
  return differ;
}

TEST(ChainedDigest, SameVerdictAsFlatDigestAcrossServers) {
  // Server A interprets the whole DAG in one pass; server B grows it block
  // by block, interpreting every few inserts, so the same blocks meet
  // different retention histories (B's replays run over different tips).
  for (const Case& c : cases()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto rd = dag_for(c, seed);
      const std::string what = std::string(c.name) + " seed " + std::to_string(seed);
      Interpreter a(rd.dag, c.factory, 4);
      a.run();
      BlockDag grown;
      Interpreter b(grown, c.factory, 4);
      for (std::size_t i = 0; i < rd.dag.topological_order().size(); ++i) {
        grown.insert(rd.dag.topological_order()[i]);
        if (i % 3 == 1) b.run();
      }
      b.run();
      const auto differ = expect_same_verdicts(digests(a, rd.dag), digests(b, grown), what);
      EXPECT_TRUE(differ.empty()) << what;
    }
  }
}

TEST(ChainedDigest, PerturbedInstanceChangesItsChainOnly) {
  for (const Case& c : cases()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto rd = dag_for(c, seed);
      ASSERT_FALSE(rd.broadcasts.empty());
      const std::string what = std::string(c.name) + " seed " + std::to_string(seed);
      // Perturb the instance of the first inscribed label at its origin.
      const auto& [label, origin] = *rd.broadcasts.begin();
      const ServerId who = origin.first;
      const PerturbingFactory perturbing(c.factory, label, who);
      Interpreter honest(rd.dag, c.factory, 4);
      honest.run();
      Interpreter perturbed(rd.dag, perturbing, 4);
      perturbed.run();

      const std::set<Hash256> differ = expect_same_verdicts(
          digests(honest, rd.dag), digests(perturbed, rd.dag), what);
      ASSERT_FALSE(differ.empty()) << what;
      for (const BlockPtr& b : rd.dag.topological_order()) {
        if (!differ.count(b->ref())) continue;
        EXPECT_EQ(b->n(), who) << what;
        // Closed under the builder's chain: the child differs too.
        for (const BlockPtr& child : rd.dag.topological_order()) {
          const BlockPtr parent = rd.dag.parent_of(*child);
          if (parent && parent->ref() == b->ref()) {
            EXPECT_TRUE(differ.count(child->ref())) << what;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace blockdag
