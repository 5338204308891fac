// FuzzPlan: the one plan type behind `simctl fuzz` / `simctl replay` on all
// four backends. Pins purity, the invariants of the UDP and crash-churn
// grammars, the repro-line round trip, golden summaries (so historical
// repro lines keep replaying the same plan) and the shared request routing.
#include <gtest/gtest.h>

#include <sstream>

#include "runtime/fuzz_plan.h"

namespace blockdag {
namespace {

constexpr Backend kBackends[] = {Backend::kSim, Backend::kThreads,
                                 Backend::kTcp, Backend::kUdp};

// `simctl fuzz` defaults: rotate protocol and size, 6 instances, 1 s.
RunHeader fuzz_pins() {
  RunHeader pins;
  pins.protocol = "mix";
  pins.n = 0;
  return pins;
}

// Reads back the flags a repro line carries (the line starts with
// "simctl replay"); every other flag keeps the fuzz default.
FuzzPlan replay(const std::string& line) {
  std::istringstream in(line);
  std::string word, value;
  in >> word >> word;
  EXPECT_EQ(word, "replay");
  RunHeader pins = fuzz_pins();
  Backend backend = Backend::kSim;
  while (in >> word >> value) {
    if (word == "--runtime") {
      backend = *parse_backend(value);
    } else if (word == "--seed") {
      pins.seed = std::stoull(value);
    } else if (word == "--protocol") {
      pins.protocol = value;
    } else if (word == "--n") {
      pins.n = static_cast<std::uint32_t>(std::stoul(value));
    } else if (word == "--instances") {
      pins.instances = static_cast<std::uint32_t>(std::stoul(value));
    } else if (word == "--duration-ns") {
      pins.duration_ns = std::stoull(value);
    } else if (word == "--sig") {
      pins.sig = *parse_sig_scheme(value);
    } else if (word == "--interpret-workers") {
      pins.interpret_workers = static_cast<std::uint32_t>(std::stoul(value));
    } else if (word == "--batch") {
      pins.batch = value == "on";
    } else {
      ADD_FAILURE() << "unexpected flag " << word;
    }
  }
  return FuzzPlan::derive(backend, pins.seed, pins);
}

std::vector<RunHeader> pin_variants() {
  std::vector<RunHeader> out;
  out.push_back(fuzz_pins());
  RunHeader real_sigs = fuzz_pins();
  real_sigs.sig = SigScheme::kWots;
  out.push_back(real_sigs);
  RunHeader pinned = fuzz_pins();
  pinned.protocol = "pbft";
  pinned.n = 7;
  pinned.instances = 9;
  pinned.duration_ns = 1'234'567'891;
  pinned.sig = SigScheme::kHmac;
  pinned.interpret_workers = 4;
  pinned.batch = false;
  out.push_back(pinned);
  RunHeader short_run = fuzz_pins();
  short_run.duration_ns = 500'000'000;  // the simulator clamps to 1 s
  out.push_back(short_run);
  return out;
}

TEST(FuzzPlan, DerivationIsPure) {
  for (Backend backend : kBackends) {
    for (const RunHeader& pins : pin_variants()) {
      for (std::uint64_t seed = 0; seed < 40; ++seed) {
        const FuzzPlan a = FuzzPlan::derive(backend, seed, pins);
        const FuzzPlan b = FuzzPlan::derive(backend, seed, pins);
        EXPECT_TRUE(a == b) << backend_name(backend) << " seed " << seed;
        EXPECT_EQ(a.summary(), b.summary());
        EXPECT_EQ(a.repro_line(), b.repro_line());
      }
    }
  }
  // Different seeds do not collapse onto one plan.
  EXPECT_FALSE(FuzzPlan::derive(Backend::kUdp, 1, fuzz_pins()) ==
               FuzzPlan::derive(Backend::kUdp, 2, fuzz_pins()));
}

TEST(FuzzPlan, RotationAndSimulatorHeader) {
  const std::uint32_t sim_sizes[] = {4, 7, 10};
  const std::uint32_t live_sizes[] = {3, 4, 5};
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const FuzzPlan sim = FuzzPlan::derive(Backend::kSim, seed, fuzz_pins());
    const FuzzPlan udp = FuzzPlan::derive(Backend::kUdp, seed, fuzz_pins());
    EXPECT_EQ(sim.header.protocol, udp.header.protocol);
    EXPECT_EQ(sim.header.n, sim_sizes[(seed / 5) % 3]);
    EXPECT_EQ(udp.header.n, live_sizes[(seed / 5) % 3]);
  }
  // The simulator has neither real-runtime knob and clamps the duration.
  RunHeader pins = fuzz_pins();
  pins.interpret_workers = 4;
  pins.batch = false;
  pins.duration_ns = 1000;
  const FuzzPlan sim = FuzzPlan::derive(Backend::kSim, 3, pins);
  EXPECT_FALSE(sim.header.interpret_workers.has_value());
  EXPECT_TRUE(sim.header.batch);
  EXPECT_EQ(sim.header.duration_ns, sim_sec(1));
  EXPECT_EQ(sim.scenario().duration, sim_sec(1));
  EXPECT_FALSE(sim.scenario().allow_forger);
  pins.sig = SigScheme::kHmac;
  EXPECT_TRUE(FuzzPlan::derive(Backend::kSim, 3, pins).scenario().allow_forger);
}

TEST(FuzzPlan, WireFaultInvariants) {
  for (std::uint32_t n : {0u, 2u, 3u, 4u, 5u, 9u}) {
    RunHeader pins = fuzz_pins();
    pins.n = n;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
      const FuzzPlan plan = FuzzPlan::derive(Backend::kUdp, seed, pins);
      const std::uint32_t size = plan.header.n;
      const auto& w = std::get<WireFaults>(plan.faults);
      EXPECT_LE(w.overrides.size(), size - 1) << "seed " << seed;
      for (const auto& o : w.overrides) {
        EXPECT_NE(o.from, o.to) << "seed " << seed;
        EXPECT_LT(o.from, size);
        EXPECT_LT(o.to, size);
        EXPECT_GE(o.fault.drop, 0.20);
        EXPECT_LT(o.fault.drop, 0.40);
      }
      // {isolated} | rest: exactly one server on the small side.
      EXPECT_LT(w.isolated, size);
      EXPECT_LT(w.base.drop, 0.25);
      EXPECT_LE(w.base.delay_min_us, w.base.delay_max_us);
    }
  }
}

TEST(FuzzPlan, ChurnInvariants) {
  for (SigScheme sig : {SigScheme::kIdeal, SigScheme::kHmac, SigScheme::kWots}) {
    for (std::uint32_t n : {0u, 2u, 3u, 4u, 5u, 6u, 8u}) {
      for (Backend backend : {Backend::kThreads, Backend::kTcp}) {
        RunHeader pins = fuzz_pins();
        pins.n = n;
        pins.sig = sig;
        for (std::uint64_t seed = 0; seed < 120; ++seed) {
          const FuzzPlan plan = FuzzPlan::derive(backend, seed, pins);
          const std::uint32_t size = plan.header.n;
          const auto& c = std::get<ChurnPlan>(plan.faults);
          EXPECT_EQ(c.forger, sig != SigScheme::kIdeal && size >= 4);
          if (c.forger) {
            EXPECT_EQ(c.forger_id, size - 1);
          }
          const std::uint32_t honest = c.honest(size);
          ASSERT_FALSE(c.events.empty());
          ASSERT_LE(c.events.size(), 2u);
          if (c.events.size() == 2) {
            EXPECT_GE(honest, 5u) << "seed " << seed;
            EXPECT_NE(c.events[0].victim, c.events[1].victim);
          }
          for (const ChurnPlan::Event& ev : c.events) {
            EXPECT_LT(ev.victim, honest) << "seed " << seed;
            EXPECT_GT(ev.crash_frac, 0.0);
            EXPECT_LT(ev.crash_frac, ev.restart_frac);
            EXPECT_LT(ev.restart_frac, 1.0);
          }
        }
      }
    }
  }
}

TEST(FuzzPlan, ReproLineRoundTrips) {
  for (Backend backend : kBackends) {
    for (const RunHeader& pins : pin_variants()) {
      for (std::uint64_t seed = 0; seed < 25; ++seed) {
        const FuzzPlan plan = FuzzPlan::derive(backend, seed, pins);
        const FuzzPlan again = replay(plan.repro_line());
        EXPECT_TRUE(plan == again) << plan.repro_line();
        EXPECT_EQ(plan.summary(), again.summary());
      }
    }
  }
}

// Summaries as `simctl replay` printed them before the grammars moved into
// one type: a drift here means historical repro lines replay other plans.
TEST(FuzzPlan, GoldenSummaries) {
  RunHeader wots = fuzz_pins();
  wots.sig = SigScheme::kWots;
  EXPECT_EQ(FuzzPlan::derive(Backend::kSim, 0, fuzz_pins()).summary(),
            "scenario seed=0 protocol=brb n=4 instances=6 duration=1.000s\n"
            "---- fault plan ----\n"
            "pacing 9ms, latency uniform(3ms+8ms), drop 0.000000\n"
            "crash 2 @511ms recover @550ms\n"
            "partition {1,2}|{0,3} @159ms heal @192ms\n"
            "regime @194ms latency fixed(1ms) drop 0.215921\n"
            "regime @455ms latency fixed(2ms) drop 0.209976\n"
            "regime @468ms latency heavytail(2ms~2ms) drop 0.028403\n"
            "burst @31ms instances [0,3)\n"
            "burst @46ms instances [3,6)\n");
  EXPECT_EQ(FuzzPlan::derive(Backend::kSim, 11, wots).summary(),
            "scenario seed=11 protocol=bcb n=10 instances=6 duration=1.000s\n"
            "---- fault plan ----\n"
            "pacing 12ms, latency fixed(6ms), drop 0.000000\n"
            "byzantine 1:forger\n"
            "partition {0,2,5,8,9}|{1,3,4,6,7} @225ms heal @326ms\n"
            "partition {1,3,7}|{0,2,4,5,6,8,9} @479ms heal @687ms\n"
            "regime @434ms latency heavytail(3ms~6ms) drop 0.000000\n"
            "regime @529ms latency heavytail(2ms~7ms) drop 0.190358\n"
            "burst @381ms instances [0,6)\n");
  EXPECT_EQ(FuzzPlan::derive(Backend::kSim, 11, wots).repro_line(),
            "simctl replay --seed 11 --protocol bcb --n 10 --instances 6 "
            "--duration-ns 1000000000 --sig wots");

  EXPECT_EQ(FuzzPlan::derive(Backend::kUdp, 6, fuzz_pins()).summary(),
            "scenario seed=6 runtime=udp protocol=bcb n=4 instances=6 "
            "duration=1.000s\n"
            "---- wire-fault profile ----\n"
            "base: drop=0.182 reorder=0.027 dup=0.159 delay=0..0 us\n"
            "hostile link 2->1: drop=0.307\n"
            "hostile link 2->0: drop=0.373\n"
            "hostile link 0->1: drop=0.224\n"
            "partition: {3} | rest, middle third, healed before settle\n");
  RunHeader tuned = fuzz_pins();
  tuned.interpret_workers = 4;
  tuned.batch = false;
  const FuzzPlan udp3 = FuzzPlan::derive(Backend::kUdp, 3, tuned);
  EXPECT_EQ(udp3.summary(),
            "scenario seed=3 runtime=udp protocol=pbft n=3 instances=6 "
            "duration=1.000s\n"
            "---- wire-fault profile ----\n"
            "base: drop=0.244 reorder=0.245 dup=0.082 delay=100..2000 us\n"
            "partition: {1} | rest, middle third, healed before settle\n");
  EXPECT_EQ(udp3.repro_line(),
            "simctl replay --runtime udp --seed 3 --protocol pbft --n 3 "
            "--instances 6 --duration-ns 1000000000 --interpret-workers 4 "
            "--batch off");

  EXPECT_EQ(FuzzPlan::derive(Backend::kThreads, 14, wots).summary(),
            "scenario seed=14 runtime=threads protocol=beacon n=5 instances=6 "
            "duration=1.000s\n"
            "---- crash-churn plan ----\n"
            "checkpoint every 8 blocks, backend=loopback, sig=wots, batch=on\n"
            "forger adversary at server 4 (raw-hosted, rejected ring capped "
            "at 64)\n"
            "kill server 3 at 46%, restart at 81%\n");
  EXPECT_EQ(FuzzPlan::derive(Backend::kTcp, 7, fuzz_pins()).summary(),
            "scenario seed=7 runtime=tcp protocol=fifo n=4 instances=6 "
            "duration=1.000s\n"
            "---- crash-churn plan ----\n"
            "checkpoint every 8 blocks, backend=tcp, sig=ideal, batch=on\n"
            "kill server 0 at 17%, restart at 37%\n");
  EXPECT_EQ(FuzzPlan::derive(Backend::kTcp, 7, fuzz_pins()).repro_line(),
            "simctl replay --runtime tcp --seed 7 --protocol fifo --n 4 "
            "--instances 6 --duration-ns 1000000000");
}

TEST(FuzzPlan, CapabilityTable) {
  EXPECT_TRUE(capabilities(Backend::kSim).trace);
  EXPECT_TRUE(capabilities(Backend::kSim).byzantine);
  EXPECT_FALSE(capabilities(Backend::kSim).real);
  for (Backend backend : {Backend::kThreads, Backend::kTcp, Backend::kUdp}) {
    EXPECT_TRUE(capabilities(backend).real);
    EXPECT_FALSE(capabilities(backend).trace);
    EXPECT_FALSE(capabilities(backend).byzantine);
  }
  EXPECT_TRUE(capabilities(Backend::kUdp).lossy);
  EXPECT_FALSE(capabilities(Backend::kTcp).lossy);
  EXPECT_FALSE(capabilities(Backend::kThreads).sockets);
  for (Backend backend : kBackends) {
    EXPECT_EQ(parse_backend(backend_name(backend)), backend);
  }
  EXPECT_FALSE(parse_backend("loopback").has_value());

  RunHeader h;
  h.backend = Backend::kUdp;
  h.seed = 9;
  const rt::ThreadedConfig udp = threaded_config(h);
  EXPECT_EQ(udp.backend, rt::TransportBackend::kUdp);
  EXPECT_EQ(udp.udp.fault_seed, 9u);
  EXPECT_EQ(udp.udp.channel.initial_rto_ns, 5'000'000u);
  h.backend = Backend::kThreads;
  EXPECT_EQ(threaded_config(h).backend, rt::TransportBackend::kLoopback);
}

TEST(FuzzPlan, RealRuntimePlansNeedTwoServers) {
  // One server gives the real-runtime grammars no link to inject on and no
  // peer to restart from, so `simctl fuzz|replay` refuses a pinned --n
  // below the floor; the simulator's grammar runs at any size. Rotation
  // (--n 0) never picks a size below any floor.
  EXPECT_EQ(capabilities(Backend::kSim).min_plan_servers, 1u);
  for (Backend backend : {Backend::kThreads, Backend::kTcp, Backend::kUdp}) {
    EXPECT_EQ(capabilities(backend).min_plan_servers, 2u);
  }
  for (Backend backend : kBackends) {
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
      EXPECT_GE(FuzzPlan::derive(backend, seed, fuzz_pins()).header.n,
                capabilities(backend).min_plan_servers);
    }
  }
}

std::vector<ServerId> targets(const std::string& protocol, std::uint32_t i,
                              const Issuers& issuers) {
  std::vector<ServerId> out;
  for (const auto& [server, request] : workload_requests(protocol, i, issuers)) {
    EXPECT_FALSE(request.empty());
    out.push_back(server);
  }
  return out;
}

TEST(FuzzPlan, WorkloadRouting) {
  const Issuers all = Issuers::all(4);
  EXPECT_EQ(targets("brb", 6, all), (std::vector<ServerId>{2}));
  EXPECT_EQ(targets("pbft", 6, all), (std::vector<ServerId>{0}));
  EXPECT_EQ(targets("beacon", 6, all), (std::vector<ServerId>{0, 1}));
  // Round-robin skips servers that may not issue; PBFT starts at the
  // first one that may.
  const Issuers correct{4, 4, {0, 2, 3}, false};
  EXPECT_EQ(targets("fifo", 1, correct), (std::vector<ServerId>{2}));
  EXPECT_EQ(targets("fifo", 5, correct), (std::vector<ServerId>{2}));
  const Issuers no_leader{4, 4, {1, 3}, false};
  EXPECT_EQ(targets("pbft", 2, no_leader), (std::vector<ServerId>{1}));
  EXPECT_EQ(targets("beacon", 0, no_leader), (std::vector<ServerId>{1, 3}));
  // Crash churn: round-robin over the honest servers only, every honest
  // server proposes each pbft slot, the beacon quorum counts all n.
  const Issuers honest{5, 4, {0, 1, 2, 3}, true};
  EXPECT_EQ(targets("bcb", 9, honest), (std::vector<ServerId>{1}));
  EXPECT_EQ(targets("pbft", 9, honest), (std::vector<ServerId>{0, 1, 2, 3}));
  EXPECT_EQ(targets("beacon", 9, honest), (std::vector<ServerId>{0, 1}));
  EXPECT_TRUE(targets("brb", 0, Issuers{4, 4, {}, false}).empty());
  // Beacon contributions differ per contributor and per instance.
  const auto reqs = workload_requests("beacon", 3, Issuers::all(7));
  ASSERT_EQ(reqs.size(), 3u);
  EXPECT_NE(reqs[0].second, reqs[1].second);
  EXPECT_NE(reqs[0].second, workload_requests("beacon", 4, Issuers::all(7))[0].second);
}

}  // namespace
}  // namespace blockdag
