#include "runtime/fuzz_plan.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>

#include "protocols/bcb.h"
#include "protocols/brb.h"
#include "protocols/coin_beacon.h"
#include "protocols/fifo_brb.h"
#include "protocols/pbft_lite.h"
#include "runtime/byzantine.h"
#include "sync/storage.h"
#include "util/rng.h"

namespace blockdag {

namespace {

constexpr const char* kProtocols[] = {"brb", "bcb", "fifo", "pbft", "beacon"};

template <typename... Args>
void appendf(std::string& out, const char* format, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, args...);
  out += buf;
}

// One request per instance, shaped for the chosen protocol.
Bytes make_request(const std::string& protocol, std::uint32_t i) {
  const Bytes value{static_cast<std::uint8_t>(i & 0xff)};
  if (protocol == "brb") return brb::make_broadcast(value);
  if (protocol == "bcb") return bcb::make_send(value);
  if (protocol == "fifo") return fifo::make_broadcast(value);
  if (protocol == "pbft") return pbft::make_propose(value);
  return {};
}

void issue_all(rt::ThreadedRuntime& runtime, const RunHeader& h,
               const Issuers& issuers, std::uint32_t i) {
  for (auto& [server, request] : workload_requests(h.protocol, i, issuers)) {
    runtime.request(server, 1 + i, std::move(request));
  }
}

// Lemma 3.7 / 4.2 and totality on a real runtime: once quiesced, servers
// 1..honest−1 must hold server 0's DAG and interpretation digests, and
// every instance must be indicated at every honest server. The settle
// budget is deep: lossy links stay hostile through settle, so closing the
// gap by retransmission and FWD recovery can take many beats on a bad
// seed; converged runs still exit on the early rounds.
void check_convergence(rt::ThreadedRuntime& runtime, std::uint32_t honest,
                       std::uint32_t instances,
                       std::vector<std::string>& violations) {
  if (!runtime.quiesce_and_converge(/*max_rounds=*/256)) {
    violations.push_back("cluster did not quiesce to a converged DAG");
  }
  const Bytes dag0 = runtime.dag_digest(0);
  const Bytes interp0 = runtime.interpretation_digest(0);
  for (ServerId s = 1; s < honest; ++s) {
    if (runtime.dag_digest(s) != dag0) {
      violations.push_back("DAG digest mismatch at server " + std::to_string(s));
    }
    if (runtime.interpretation_digest(s) != interp0) {
      violations.push_back("interpretation digest mismatch at server " +
                           std::to_string(s));
    }
  }
  for (std::uint32_t i = 0; i < instances; ++i) {
    if (runtime.indicated_count(1 + i) != honest) {
      violations.push_back("instance " + std::to_string(1 + i) +
                           " not indicated everywhere");
    }
  }
}

WireFaults derive_wire_faults(const RunHeader& h) {
  WireFaults w;
  Rng rng(h.seed ^ 0x9e3779b97f4a7c15ULL);  // distinct from the injector's RNG
  w.base.drop = 0.25 * rng.unit();
  w.base.reorder = 0.30 * rng.unit();
  w.base.duplicate = 0.20 * rng.unit();
  switch (rng.below(3)) {  // geo-latency band
    case 0: break;  // same rack: no added delay
    case 1:
      w.base.delay_min_us = 100;
      w.base.delay_max_us = 2000;
      break;
    case 2:
      w.base.delay_min_us = 1000;
      w.base.delay_max_us = 8000;
      break;
  }
  // Asymmetric hostility: up to n−1 directed links markedly worse than the
  // baseline (loss is not symmetric in real networks; acks die too).
  const std::uint64_t hostile = rng.below(h.n);
  for (std::uint64_t k = 0; k < hostile; ++k) {
    const auto from = static_cast<ServerId>(rng.below(h.n));
    auto to = static_cast<ServerId>(rng.below(h.n));
    if (to == from) to = (to + 1) % h.n;
    rt::LinkFault fault = w.base;
    fault.drop = 0.20 + 0.20 * rng.unit();
    w.overrides.push_back({from, to, fault});
  }
  w.partition = rng.chance(0.5);
  w.isolated = static_cast<ServerId>(rng.below(h.n));
  return w;
}

ChurnPlan derive_churn_plan(const RunHeader& h) {
  static const std::uint64_t kEpochs[] = {3, 4, 6, 8};
  ChurnPlan c;
  // The forger needs a real scheme (under the ideal provider there is no
  // verification cost worth attacking) and a cluster big enough to spare a
  // server to the adversary.
  c.forger = h.sig != SigScheme::kIdeal && h.n >= 4;
  c.forger_id = static_cast<ServerId>(h.n - 1);
  const std::uint32_t honest = c.honest(h.n);
  Rng rng(h.seed ^ 0x5ca1ab1e0ddba11ULL);  // distinct from other derivations
  c.epoch_blocks = kEpochs[rng.below(4)];
  // One or two churn events with distinct victims: at most a minority is
  // ever down (crash faults, not partitions — the rest must keep going).
  // Victims come from the honest range only — the forger never "crashes"
  // (an adversary that stops attacking proves nothing).
  const std::uint64_t max_events = honest >= 5 ? 2 : 1;
  const std::size_t n_events = 1 + rng.below(max_events);
  for (std::size_t k = 0; k < n_events; ++k) {
    ChurnPlan::Event ev;
    ev.victim = static_cast<ServerId>(rng.below(honest));
    if (k > 0 && ev.victim == c.events[0].victim) {
      ev.victim = (ev.victim + 1) % honest;
    }
    ev.crash_frac = 0.15 + 0.35 * rng.unit();  // mid-run
    ev.restart_frac = ev.crash_frac + 0.15 + 0.25 * rng.unit();
    c.events.push_back(ev);
  }
  return c;
}

// Runs a wire-fault plan on live UDP sockets with the fault injector in
// path. Beyond convergence and totality it checks injection sanity: the
// profile really fired and nothing corrupted a frame stream. Lossy faults
// stay active through settle — only the partition heals; retransmission
// and the gossip FWD path are what must close the gap.
std::vector<std::string> run_wire(const RunHeader& h, const WireFaults& w,
                                  const ProtocolFactory& factory) {
  rt::ThreadedConfig cfg = threaded_config(h);
  cfg.pacing.interval = sim_ms(2);
  // FWD retry matched to the loss regime: a 5ms retry against a lossy,
  // RTO-bound link just queues duplicate recovery payloads behind the
  // head-of-line chunk and starves the catch-up of a partitioned server.
  cfg.gossip.fwd_retry_delay = sim_ms(20);
  cfg.udp.default_fault = w.base;
  rt::ThreadedRuntime runtime(factory, cfg);
  if (!runtime.transport_ok()) return {"failed to bind UDP sockets"};
  for (const auto& o : w.overrides) {
    runtime.udp()->set_link_fault(o.from, o.to, o.fault);
  }
  runtime.start();
  for (std::uint32_t i = 0; i < h.instances; ++i) {
    issue_all(runtime, h, Issuers::all(h.n), i);
  }

  std::vector<ServerId> rest;
  for (ServerId s = 0; s < h.n; ++s) {
    if (s != w.isolated) rest.push_back(s);
  }
  const auto third = std::chrono::nanoseconds(h.duration_ns / 3);
  std::this_thread::sleep_for(third);
  if (w.partition) runtime.udp()->set_partition({w.isolated}, rest, true);
  std::this_thread::sleep_for(third);
  if (w.partition) runtime.udp()->set_partition({w.isolated}, rest, false);
  std::this_thread::sleep_for(third);

  std::vector<std::string> violations;
  check_convergence(runtime, h.n, h.instances, violations);
  const rt::UdpStats stats = runtime.udp()->stats();
  if (w.base.drop > 0.01 && stats.injected_drops == 0) {
    violations.push_back("drop profile never fired (injector no-op?)");
  }
  if (w.base.duplicate > 0.01 && stats.injected_dups == 0) {
    violations.push_back("duplicate profile never fired (injector no-op?)");
  }
  if (stats.corrupt_streams != 0) {
    violations.push_back("corrupt frame stream on a reliable channel");
  }
  if (stats.malformed_dropped != 0) {
    violations.push_back("malformed datagrams between honest endpoints");
  }
  if (!violations.empty()) {
    // Failure diagnostics: which server is behind and what its links did.
    for (ServerId s = 0; s < h.n; ++s) {
      const auto [dag_size, pending] = runtime.call(s, [](Shim& shim) {
        return std::make_pair(shim.dag().size(), shim.gossip().pending_blocks());
      });
      std::fprintf(stderr, "  server %u: dag=%zu pending=%zu\n", s, dag_size,
                   pending);
    }
    for (ServerId a = 0; a < h.n; ++a) {
      for (ServerId b = 0; b < h.n; ++b) {
        if (a == b) continue;
        const rt::UdpLinkStats ls = runtime.udp()->link_stats(a, b);
        std::fprintf(stderr,
                     "  link %u->%u: sent=%llu retx=%llu resets=%llu "
                     "drops=%llu\n",
                     a, b, static_cast<unsigned long long>(ls.datagrams_sent),
                     static_cast<unsigned long long>(ls.retransmits),
                     static_cast<unsigned long long>(ls.channel_resets),
                     static_cast<unsigned long long>(ls.injected_drops));
      }
    }
  }
  return violations;
}

// Runs a crash-churn plan on the threaded runtime (loopback or TCP) with
// durable storage and checkpoint epochs on: every event crashes a server
// mid-run (ThreadedRuntime::crash — halt in place, exactly the post-kill
// state) and later restarts it over its surviving storage sink. Beyond
// convergence and totality it checks recovery (restores succeed, every
// restarted server completes a state sync, checkpoints were stored) and,
// with a forger, Definition 3.3(i).
std::vector<std::string> run_churn(const RunHeader& h, const ChurnPlan& c,
                                   const ProtocolFactory& factory) {
  std::vector<std::string> violations;
  const std::uint32_t honest = c.honest(h.n);

  std::vector<blockdag::sync::MemStore> stores(h.n);
  // The forger's provider and behaviour object are declared before the
  // runtime: its wire handler and posted ticks run on the raw server's
  // thread until the runtime's destructor joins it, so both must outlive
  // the runtime.
  std::unique_ptr<SignatureProvider> forger_sigs;
  std::unique_ptr<ByzantineServer> forger;
  rt::ThreadedConfig cfg = threaded_config(h);
  cfg.pacing.interval = sim_ms(2);
  cfg.gossip.fwd_retry_delay = sim_ms(5);
  if (c.forger) {
    cfg.raw_servers = {c.forger_id};
    // Small rejected ring: the forger's re-floods (offsets 96.. from its
    // newest forgery) then land on refs already evicted from it, which is
    // exactly what makes verifier-pool verdict-cache hits assertable.
    cfg.gossip.rejected_capacity = 64;
  }
  cfg.storage = [&stores](ServerId s) { return &stores[s]; };
  cfg.checkpoint.epoch_blocks = c.epoch_blocks;
  cfg.enable_state_sync = true;
  cfg.sync.progress_timeout = sim_ms(50);
  cfg.sync.retry_base = sim_ms(10);
  rt::ThreadedRuntime runtime(factory, cfg);
  if (!runtime.transport_ok()) return {"failed to bind sockets"};
  if (c.forger) {
    forger_sigs = make_signature_provider(h.sig, h.n, h.seed);
    forger = make_byzantine(ByzantineKind::kForger, c.forger_id,
                            runtime.raw_timers(c.forger_id),
                            runtime.raw_transport(), *forger_sigs,
                            h.seed ^ (0x1000 + c.forger_id));
    ByzantineServer* raw = forger.get();
    runtime.raw_transport().attach(
        c.forger_id,
        [raw](ServerId from, const Bytes& wire) { raw->on_network(from, wire); });
  }
  runtime.start();

  struct Timed {
    std::chrono::steady_clock::time_point at;
    std::size_t event;
    bool is_crash;
  };
  const auto t0 = std::chrono::steady_clock::now();
  const auto at_frac = [&](double f) {
    return t0 + std::chrono::nanoseconds(
                    static_cast<std::uint64_t>(f * h.duration_ns));
  };
  std::vector<Timed> plan;
  for (std::size_t k = 0; k < c.events.size(); ++k) {
    plan.push_back({at_frac(c.events[k].crash_frac), k, true});
    plan.push_back({at_frac(c.events[k].restart_frac), k, false});
  }
  std::vector<bool> down(h.n, false);
  std::vector<bool> restarted(h.n, false);
  const auto restart = [&](ServerId victim) {
    if (!runtime.restart(victim)) {
      violations.push_back("restore failed on restart of server " +
                           std::to_string(victim));
    }
    down[victim] = false;
    restarted[victim] = true;
  };

  // Requests follow the sim scenario engine's discipline: issue only while
  // EVERY server is live and no crash is imminent. A request is not
  // durable — one sitting unblockified in a server that then crashes dies
  // with it (clients retry in the real world), which is correct crash
  // semantics but not what the totality checker quantifies over. The
  // imminence guard leaves ample time to blockify (one 2ms pacing beat)
  // before the victim goes down; once blockified, restart restores it.
  // Requests go to honest servers only (a forger has no protocol stack),
  // and every honest server proposes each pbft slot (the scenario
  // engine's rule): whichever leader is up when the slot runs can lead it.
  Issuers issuers{h.n, honest, {}, /*pbft_everyone=*/true};
  for (ServerId s = 0; s < honest; ++s) issuers.servers.push_back(s);
  std::uint32_t issued = 0;
  const auto deadline = at_frac(1.0);
  const auto safe_to_issue = [&](std::chrono::steady_clock::time_point now) {
    for (ServerId s = 0; s < h.n; ++s) {
      if (down[s]) return false;
    }
    for (const Timed& t : plan) {
      if (t.is_crash && t.at > now &&
          t.at - now < std::chrono::milliseconds(300)) {
        return false;
      }
    }
    return true;
  };
  while (std::chrono::steady_clock::now() < deadline) {
    const auto now = std::chrono::steady_clock::now();
    for (Timed& t : plan) {
      if (t.at > now) continue;
      t.at = deadline + std::chrono::hours(1);  // fire once
      const ServerId victim = c.events[t.event].victim;
      if (t.is_crash) {
        runtime.crash(victim);
        down[victim] = true;
      } else {
        restart(victim);
      }
    }
    while (issued < h.instances &&
           now >= at_frac(0.8 * (issued + 1.0) / h.instances) &&
           safe_to_issue(now)) {
      issue_all(runtime, h, issuers, issued++);
    }
    if (c.forger) {
      // The adversary's mischief beat, driven from the harness: λ forgeries
      // plus re-floods per beat, executed on the forger's own thread.
      ByzantineServer* raw = forger.get();
      runtime.post(c.forger_id, [raw] { raw->tick(); });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Anything still down restarts now; every instance must be issued.
  for (const ChurnPlan::Event& ev : c.events) {
    if (down[ev.victim]) restart(ev.victim);
  }
  while (issued < h.instances) issue_all(runtime, h, issuers, issued++);

  // Every restarted server must complete a state sync (it retries with
  // backoff until it does; bound the wait in wall-clock).
  const auto sync_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (ServerId s = 0; s < h.n; ++s) {
    if (!restarted[s]) continue;
    while (!runtime.sync_snapshot(s).sync_completed &&
           std::chrono::steady_clock::now() < sync_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const auto snap = runtime.sync_snapshot(s);
    if (!snap.sync_completed) {
      violations.push_back("server " + std::to_string(s) +
                           " never completed state sync after restart");
    }
    if (snap.sync.completions == 0) {
      violations.push_back("server " + std::to_string(s) +
                           " reports zero sync completions after restart");
    }
  }

  check_convergence(runtime, honest, h.instances, violations);
  // The epochs really happened: someone checkpointed, and a restart
  // actually restored durable state rather than replaying history.
  std::uint64_t checkpoints = 0;
  for (ServerId s = 0; s < honest; ++s) {
    checkpoints += runtime.sync_snapshot(s).checkpointer.checkpoints_stored;
  }
  if (checkpoints == 0) {
    violations.push_back("no checkpoint was ever stored (cadence no-op?)");
  }

  if (c.forger) {
    // Definition 3.3(i) on the real runtime: not one forged block was ever
    // delivered, the rejections are visible in the stats, and the verifier
    // pool's verdict cache absorbed the re-floods. The forged-ref list is
    // read on the forger's own thread (post + future) — the same
    // single-writer discipline as every other state read.
    std::vector<Hash256> forged;
    {
      std::promise<std::vector<Hash256>> promise;
      auto future = promise.get_future();
      ByzantineServer* raw = forger.get();
      if (runtime.post(c.forger_id,
                       [raw, &promise] { promise.set_value(raw->forged_refs()); })) {
        forged = future.get();
      } else {
        forged = forger->forged_refs();  // runtime already shut down
      }
    }
    if (forged.empty()) {
      violations.push_back("forger never fired (adversary no-op?)");
    }
    for (ServerId s = 0; s < honest; ++s) {
      const std::size_t delivered =
          runtime.call(s, [&forged](Shim& shim) {
            std::size_t count = 0;
            for (const Hash256& ref : forged) {
              if (shim.dag().contains(ref)) ++count;
            }
            return count;
          });
      if (delivered != 0) {
        violations.push_back(std::to_string(delivered) +
                             " forged block(s) delivered at server " +
                             std::to_string(s));
      }
    }
    if (runtime.total_blocks_rejected() == 0) {
      violations.push_back("forger present but blocks_rejected == 0");
    }
    if (runtime.total_rejected_evicted() == 0) {
      violations.push_back("rejected ring never evicted under forger flood");
    }
    const VerifierPoolStats vp = runtime.verifier_stats();
    if (vp.cache_hits == 0) {
      violations.push_back("verifier pool verdict cache never hit under "
                           "re-flooded forgeries");
    }
  }
  return violations;
}

}  // namespace

std::optional<Backend> parse_backend(const std::string& name) {
  for (Backend backend : {Backend::kSim, Backend::kThreads, Backend::kTcp,
                          Backend::kUdp}) {
    if (name == backend_name(backend)) return backend;
  }
  return std::nullopt;
}

const char* backend_name(Backend backend) {
  static const char* const kNames[] = {"sim", "threads", "tcp", "udp"};
  return kNames[static_cast<int>(backend)];
}

const BackendCaps& capabilities(Backend backend) {
  static const BackendCaps kCaps[] = {
      //  real   sockets lossy  byzantine trace  min_plan_servers
      {false, false, true, true, true, 1},     // sim
      {true, false, false, false, false, 2},   // threads
      {true, true, false, false, false, 2},    // tcp
      {true, true, true, false, false, 2},     // udp
  };
  return kCaps[static_cast<int>(backend)];
}

rt::ThreadedConfig threaded_config(const RunHeader& h) {
  rt::ThreadedConfig cfg;
  cfg.n_servers = h.n;
  cfg.seed = h.seed;
  cfg.sig_scheme = h.sig;
  cfg.batching = h.batch;
  if (h.interpret_workers) {
    cfg.interpret_workers = static_cast<std::size_t>(*h.interpret_workers);
  }
  if (h.backend == Backend::kTcp) {
    cfg.backend = rt::TransportBackend::kTcp;  // ephemeral localhost ports
  } else if (h.backend == Backend::kUdp) {
    cfg.backend = rt::TransportBackend::kUdp;  // ephemeral localhost ports
    cfg.udp.fault_seed = h.seed;
    cfg.udp.channel.initial_rto_ns = 5'000'000;
    cfg.udp.channel.max_rto_ns = 80'000'000;
  }
  return cfg;
}

FuzzPlan FuzzPlan::derive(Backend backend, std::uint64_t seed,
                          const RunHeader& pins) {
  // The simulator rotates sizes 4/7/10; the live backends run one OS
  // thread per server (fifty-plus clusters per CI run), so 3/4/5.
  static const std::uint32_t kSimSizes[] = {4, 7, 10};
  static const std::uint32_t kLiveSizes[] = {3, 4, 5};
  FuzzPlan plan;
  RunHeader& h = plan.header;
  h = pins;
  h.backend = backend;
  h.seed = seed;
  if (pins.protocol == "mix") h.protocol = kProtocols[seed % 5];
  if (pins.n == 0) {
    // Through a pointer: GCC 12 with -fsanitize=undefined mis-indexes a
    // subscripted conditional of two arrays.
    const std::uint32_t* sizes =
        backend == Backend::kSim ? kSimSizes : kLiveSizes;
    h.n = sizes[(seed / 5) % 3];
  }
  switch (backend) {
    case Backend::kSim:
      h.interpret_workers.reset();  // the simulator has neither knob
      h.batch = true;
      h.duration_ns = effective_duration(plan.scenario());
      plan.faults = derive_fault_plan(plan.scenario());
      break;
    case Backend::kUdp:
      plan.faults = derive_wire_faults(h);
      break;
    case Backend::kThreads:
    case Backend::kTcp:
      plan.faults = derive_churn_plan(h);
      break;
  }
  return plan;
}

ScenarioConfig FuzzPlan::scenario() const {
  ScenarioConfig cfg;
  cfg.seed = header.seed;
  cfg.protocol = header.protocol;
  cfg.n_servers = header.n;
  cfg.instances = header.instances;
  cfg.duration = header.duration_ns;
  cfg.sig_scheme = header.sig;
  // Real signatures arm the forger: a new fuzz grammar (the kind pool
  // grows), so it is gated on the scheme to keep ideal-scheme seeds
  // replayable against historical repro lines.
  cfg.allow_forger = header.sig != SigScheme::kIdeal;
  return cfg;
}

std::string FuzzPlan::repro_line() const {
  const RunHeader& h = header;
  const bool sim = h.backend == Backend::kSim;
  std::string line;
  // Integer nanoseconds: a decimal-seconds double does not survive the
  // ns→s→ns round trip for every value, and every fault time is derived
  // from the duration, so a 1 ns slip would replay a different plan.
  appendf(line,
          "simctl replay%s%s --seed %llu --protocol %s --n %u --instances %u "
          "--duration-ns %llu",
          sim ? "" : " --runtime ", sim ? "" : backend_name(h.backend),
          static_cast<unsigned long long>(h.seed), h.protocol.c_str(), h.n,
          h.instances, static_cast<unsigned long long>(h.duration_ns));
  if (h.sig != SigScheme::kIdeal) {
    line += std::string(" --sig ") + sig_scheme_name(h.sig);
  }
  if (h.interpret_workers) {
    line += " --interpret-workers " + std::to_string(*h.interpret_workers);
  }
  if (!h.batch) line += " --batch off";
  return line;
}

std::string FuzzPlan::summary() const {
  const RunHeader& h = header;
  const bool sim = h.backend == Backend::kSim;
  std::string out;
  appendf(out, "scenario seed=%llu%s%s protocol=%s n=%u instances=%u "
               "duration=%.3fs\n",
          static_cast<unsigned long long>(h.seed), sim ? "" : " runtime=",
          sim ? "" : backend_name(h.backend), h.protocol.c_str(), h.n,
          h.instances, static_cast<double>(h.duration_ns) / 1e9);
  if (const auto* plan = std::get_if<FaultPlan>(&faults)) {
    out += "---- fault plan ----\n" + plan->summary();
  } else if (const auto* w = std::get_if<WireFaults>(&faults)) {
    out += "---- wire-fault profile ----\n";
    appendf(out, "base: drop=%.3f reorder=%.3f dup=%.3f delay=%u..%u us\n",
            w->base.drop, w->base.reorder, w->base.duplicate,
            w->base.delay_min_us, w->base.delay_max_us);
    for (const auto& o : w->overrides) {
      appendf(out, "hostile link %u->%u: drop=%.3f\n", o.from, o.to,
              o.fault.drop);
    }
    if (w->partition) {
      appendf(out, "partition: {%u} | rest, middle third, healed before settle\n",
              w->isolated);
    }
  } else if (const auto* c = std::get_if<ChurnPlan>(&faults)) {
    out += "---- crash-churn plan ----\n";
    appendf(out, "checkpoint every %llu blocks, backend=%s, sig=%s, batch=%s\n",
            static_cast<unsigned long long>(c->epoch_blocks),
            h.backend == Backend::kTcp ? "tcp" : "loopback",
            sig_scheme_name(h.sig), h.batch ? "on" : "off");
    if (c->forger) {
      appendf(out, "forger adversary at server %u (raw-hosted, rejected ring "
                   "capped at 64)\n",
              c->forger_id);
    }
    for (const ChurnPlan::Event& ev : c->events) {
      appendf(out, "kill server %u at %2.0f%%, restart at %2.0f%%\n", ev.victim,
              ev.crash_frac * 100, ev.restart_frac * 100);
    }
  }
  return out;
}

ScenarioResult FuzzPlan::run() const {
  if (header.backend == Backend::kSim) return run_scenario(scenario());
  ScenarioResult result;
  const ProtocolFactory* factory = protocol_factory(header.protocol);
  if (!factory) {
    result.violations.push_back("unknown protocol '" + header.protocol + "'");
  } else if (const auto* w = std::get_if<WireFaults>(&faults)) {
    result.violations = run_wire(header, *w, *factory);
  } else {
    result.violations = run_churn(header, std::get<ChurnPlan>(faults), *factory);
  }
  return result;
}

bool FuzzPlan::operator==(const FuzzPlan& other) const {
  if (header != other.header || faults.index() != other.faults.index()) {
    return false;
  }
  // FaultPlan has no member-wise equality; its summary names every field.
  if (const auto* plan = std::get_if<FaultPlan>(&faults)) {
    return plan->summary() == std::get<FaultPlan>(other.faults).summary();
  }
  if (const auto* w = std::get_if<WireFaults>(&faults)) {
    return *w == std::get<WireFaults>(other.faults);
  }
  return std::get<ChurnPlan>(faults) == std::get<ChurnPlan>(other.faults);
}

Issuers Issuers::all(std::uint32_t n) {
  Issuers issuers{n, n, {}, false};
  for (ServerId s = 0; s < n; ++s) issuers.servers.push_back(s);
  return issuers;
}

std::vector<std::pair<ServerId, Bytes>> workload_requests(
    const std::string& protocol, std::uint32_t i, const Issuers& issuers) {
  std::vector<std::pair<ServerId, Bytes>> out;
  const std::vector<ServerId>& servers = issuers.servers;
  if (servers.empty()) return out;
  if (protocol == "beacon") {
    // A beacon emits after f+1 distinct contributions: the first f+1
    // issuers each inscribe their own coins.
    const std::uint32_t needed = plausibility_quorum(issuers.n);
    for (std::uint32_t c = 0; c < needed && c < servers.size(); ++c) {
      out.emplace_back(servers[c], beacon::make_contribute(0x1234 + i * 31 + c));
    }
    return out;
  }
  if (protocol == "pbft" && issuers.pbft_everyone) {
    for (ServerId s : servers) out.emplace_back(s, make_request(protocol, i));
    return out;
  }
  // PBFT proposals only progress if the view-0 leader (server 0) learns
  // them; everything else spreads round-robin.
  const auto listed = [&servers](ServerId s) {
    return std::find(servers.begin(), servers.end(), s) != servers.end();
  };
  ServerId target = protocol == "pbft" ? 0 : i % issuers.ring;
  for (std::uint32_t tries = 0; tries < issuers.ring && !listed(target); ++tries) {
    target = (target + 1) % issuers.ring;
  }
  if (listed(target)) out.emplace_back(target, make_request(protocol, i));
  return out;
}

}  // namespace blockdag
