// One fuzz plan for every backend (DESIGN.md §6).
//
// `simctl fuzz` and `simctl replay` run seeded adversarial executions on
// four backends and check the same properties on each: Lemma 3.7 (joint
// DAG), Lemma 4.2 (identical interpretation) and, on the simulator, the
// Theorem 5.1 checkers. A FuzzPlan is one such execution, a pure function
// of (backend, seed, pins): a shared RunHeader plus one per-backend fault
// section.
//   * sim: the timed FaultPlan of runtime/faultplan.h (partitions,
//     latency/drop regimes, crash/recovery churn, byzantine mixes, bursts);
//   * udp: a wire-fault profile (loss/reorder/duplication baseline, a
//     geo-latency band, up to n−1 hostile links, an optional mid-run
//     partition that isolates one server), injected live by the UDP
//     transport;
//   * threads|tcp: a crash-churn plan over durable storage (one or two
//     SIGKILL-equivalent crash + restart events, a checkpoint cadence) and,
//     under a real signature scheme with n ≥ 4, a raw-hosted forger.
// Deriving, printing (summary), replaying (repro_line) and running (run)
// go through the one type, so tests call them as library code and the
// command line only parses flags.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "rt/threaded_runtime.h"
#include "runtime/scenario.h"

namespace blockdag {

// The name and capability tables in fuzz_plan.cpp follow this order.
enum class Backend { kSim, kThreads, kTcp, kUdp };

std::optional<Backend> parse_backend(const std::string& name);
const char* backend_name(Backend backend);

// What a backend can do; the command line rejects a flag whose capability
// the chosen backend lacks.
struct BackendCaps {
  bool real;       // real threads and clock: --interpret-workers, --batch
  bool sockets;    // one server per OS process: serve/join
  bool lossy;      // a wire that drops: --drop / --loss
  bool byzantine;  // protocol-level fault injection: --byzantine
  bool trace;      // a virtual-time event log: replay --trace
  // Fewest servers a fuzz plan can exercise: the real-runtime grammars
  // inject faults on links and restart a crashed server from its peers,
  // so with one server every check there fails by construction.
  std::uint32_t min_plan_servers;
};
const BackendCaps& capabilities(Backend backend);

// What every run names, whatever its backend: the shared header of a fuzz
// plan, and what `simctl run|serve|join` configure a cluster from.
struct RunHeader {
  Backend backend = Backend::kSim;
  std::uint64_t seed = 1;
  std::string protocol = "brb";  // brb | bcb | fifo | pbft | beacon
  std::uint32_t n = 4;
  std::uint32_t instances = 6;
  std::uint64_t duration_ns = 1'000'000'000;
  SigScheme sig = SigScheme::kIdeal;
  // Real runtimes only: interpretation workers (unset = auto, 0 = serial)
  // and dissemination batching. Local tuning, never part of a derivation.
  std::optional<std::uint32_t> interpret_workers;
  bool batch = true;

  bool operator==(const RunHeader&) const = default;
};

// The ThreadedRuntime configuration a header describes: cluster size,
// seed, scheme, batching, workers and backend. UDP gets the fault
// injector seeded from the header and millisecond-scale RTOs, so injected
// loss costs milliseconds to recover. Callers add pacing and the rest.
rt::ThreadedConfig threaded_config(const RunHeader& header);

// --runtime udp: the injected wire-fault profile.
struct WireFaults {
  struct Override {
    ServerId from = 0;
    ServerId to = 0;
    rt::LinkFault fault;
    bool operator==(const Override&) const = default;
  };
  rt::LinkFault base;
  std::vector<Override> overrides;  // hostile directed links, never from == to
  bool partition = false;
  ServerId isolated = 0;  // {isolated} vs rest, the middle third of the run

  bool operator==(const WireFaults&) const = default;
};

// --runtime threads|tcp: the crash-churn plan. Storage is never wiped: a
// server that already built blocks and then lost its durable state would
// reuse sequence numbers (amnesia, which the crash-recovery model of
// DESIGN.md §10 excludes).
struct ChurnPlan {
  struct Event {
    ServerId victim = 0;
    double crash_frac = 0.0;    // crash time as a fraction of the run
    double restart_frac = 0.0;  // restart time, ditto (> crash_frac)
    bool operator==(const Event&) const = default;
  };
  std::uint64_t epoch_blocks = 4;  // checkpoint cadence
  // With a real scheme and n >= 4 the last server is not a protocol node
  // but a raw-hosted forger (runtime/byzantine.h kForger) flooding
  // invalidly-signed blocks at the honest servers.
  bool forger = false;
  ServerId forger_id = 0;
  std::vector<Event> events;  // victims are honest and distinct

  std::uint32_t honest(std::uint32_t n) const { return forger ? n - 1 : n; }
  bool operator==(const ChurnPlan&) const = default;
};

struct FuzzPlan {
  RunHeader header;
  std::variant<FaultPlan, WireFaults, ChurnPlan> faults;

  // The plan for one seed. `pins` carries what the command line fixed:
  // protocol "mix" and n 0 rotate per seed; instances, duration and sig
  // apply as given; interpret_workers and batch pass through to the real
  // runtimes and never perturb a derivation. Pure: equal inputs give
  // equal plans, on every backend.
  static FuzzPlan derive(Backend backend, std::uint64_t seed,
                         const RunHeader& pins);

  // The simulator's view of the header (sim plans only).
  ScenarioConfig scenario() const;
  // `simctl replay …` line that re-derives exactly this plan: every
  // rotated field pinned, the duration in integer nanoseconds.
  std::string repro_line() const;
  // Header line plus the fault section, as `simctl replay` prints it.
  std::string summary() const;
  // Executes the plan with the checkers on. `violations` is filled on
  // every backend; the remaining ScenarioResult fields only on the
  // simulator, whose runs are exact (run_digest pins them).
  ScenarioResult run() const;

  bool operator==(const FuzzPlan& other) const;
};

// Who may issue simctl's workload (instance i on label 1 + i).
struct Issuers {
  std::uint32_t n = 0;     // cluster size: a beacon takes f + 1 contributions
  std::uint32_t ring = 0;  // brb/bcb/fifo instance i starts at server i % ring
  // Servers allowed to issue, ascending. A target outside the list passes
  // to the next listed server round the ring.
  std::vector<ServerId> servers;
  bool pbft_everyone = false;  // each listed server proposes every pbft slot;
                               // otherwise the first listed one does

  static Issuers all(std::uint32_t n);
};

// The requests instance i of the workload makes, one (server, request)
// pair each: a beacon instance takes one contribution from each of the
// first f + 1 issuers, a pbft slot goes to the first issuer (or every
// issuer), anything else to one server round the ring. Empty when no
// server may issue.
std::vector<std::pair<ServerId, Bytes>> workload_requests(
    const std::string& protocol, std::uint32_t i, const Issuers& issuers);

}  // namespace blockdag
