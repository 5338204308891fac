// simctl — command-line driver for the block DAG simulator and runtimes.
// Every subcommand's flags come from one table (kFlags below), which also
// generates the usage text; what each backend accepts is its capability
// row in runtime/fuzz_plan.h.
//
//   simctl [run] [--runtime sim|threads|tcp|udp] [--n N]
//          [--protocol brb|bcb|fifo|pbft|beacon] [--seconds S]
//          [--instances K] [--interval MS] [--seed X] [--drop P]
//          [--byzantine ID:KIND ...] [--sig ideal|hmac|wots] [--dot FILE]
//          [--interpret-workers N] [--batch on|off]
//     Runs a cluster of shim(P) servers and prints a report: deliveries,
//     wire traffic, signature counts, interpretation stats, DAG audit.
//     The simulator (default) is deterministic; --runtime threads runs the
//     same stack on one OS thread per server with a real clock (--seconds
//     bounds the wall-clock run), tcp moves every payload over localhost
//     TCP, and udp over real datagrams with userspace reliability and an
//     in-path fault injector (--drop P: loss on every directed link,
//     DESIGN.md §9). Byzantine kinds (simulator only): silent, equivocator,
//     duplicate, flooder, badsigner, garbage, forger. --interpret-workers
//     and --batch tune the real runtimes only.
//
//   simctl serve --n N --port PORT [--runtime tcp|udp] [--loss P]
//                [--data-dir DIR] [--checkpoint K] [run options]
//   simctl join --id I --n N --port PORT [same options]
//     A multi-process cluster (DESIGN.md §8): one server per OS process
//     over 127.0.0.1:(PORT + id); serve hosts server 0. Each member issues
//     its share of the workload, then the members settle by exchanging
//     digest beats on the wire and exit 0 once every server reports the
//     identical DAG and per-block interpretation digests (Lemma 3.7 /
//     Lemma 4.2) and every instance is delivered. With --data-dir a member
//     persists epoch checkpoints (every K interpreted blocks, default 32)
//     plus a block log, restores from them on restart and state-syncs what
//     it missed (tools/crash_cluster_smoke.sh); every member of a cluster
//     must agree on whether --data-dir is in use. Exit codes: 0 converged,
//     1 settle timeout, 2 bind or usage failure, 3 corrupt durable state.
//
//   simctl fuzz --seeds A..B [--runtime sim|udp|threads|tcp]
//               [--protocol P|mix] [--n N] [--instances K]
//               [--duration S | --duration-ns NS] [--sig ideal|hmac|wots]
//               [--interpret-workers N] [--batch on|off] [--repro-file FILE]
//   simctl replay --seed S [same options] [--trace FILE]
//     The scenario engine (DESIGN.md §6): one seeded adversarial FuzzPlan
//     per seed with the property checkers always on — the simulator's
//     fault plan, a UDP wire-fault profile, or threads/tcp crash churn over
//     durable storage (runtime/fuzz_plan.h). Protocol and cluster size
//     rotate per seed unless pinned (a pinned --n is 2 or more on
//     threads|tcp|udp); a non-ideal --sig also arms the forger adversary. Every fuzz failure prints a one-line `simctl replay …`
//     repro (also appended to --repro-file); replay re-derives exactly that
//     plan, prints it and the result, and on the simulator optionally
//     writes a JSON trace. Simulator replays are exact; on the real
//     runtimes the plan is exact and the thread and socket timing is real.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <map>
#include <string>
#include <string_view>
#include <tuple>

#include <chrono>
#include <thread>

#include "dag/audit.h"
#include "dag/dot.h"
#include "runtime/cluster.h"
#include "runtime/fuzz_plan.h"
#include "runtime/table.h"
#include "util/hex.h"
#include "util/histogram.h"
#include "util/serialize.h"

using namespace blockdag;

namespace {

// ---- the one option parser ----

// Bit i is the subcommand kCommandNames[i].
enum Command : unsigned {
  kRun = 1, kServe = 2, kJoin = 4, kFuzz = 8, kReplay = 16
};
constexpr unsigned kMember = kServe | kJoin;
constexpr unsigned kPlan = kFuzz | kReplay;
constexpr unsigned kAny = kRun | kMember | kPlan;
constexpr const char* kCommandNames[] = {"run", "serve", "join", "fuzz", "replay"};

// Bounds that keep a typo from asking for millions of threads, a
// multi-gigabyte allocation or a deadline past the clock's range.
constexpr std::uint64_t kMaxServers = 256;
constexpr std::uint64_t kMaxWorkers = 256;
constexpr std::uint64_t kMaxInstances = 65536;
constexpr std::uint64_t kMaxSeconds = 1'000'000;

struct Options {
  Command command = kRun;
  // Backend, seed (fuzz: the first of --seeds), protocol ("mix" rotates on
  // fuzz/replay), n (fuzz/replay: 0 rotates), instances, sig, workers,
  // batching; duration_ns is filled from the two fields below.
  RunHeader run;
  double seconds = 2.0;           // --seconds / --duration
  std::uint64_t duration_ns = 0;  // --duration-ns: exact, wins over seconds
  std::uint64_t last_seed = 0;    // fuzz: --seeds A..B
  bool seen_batch = false;
  std::uint64_t interval_ms = 10;
  double drop = 0.0;  // run --drop, serve/join --loss: injected loss
  std::map<ServerId, ByzantineKind> byzantine;
  std::string dot_file;
  std::string repro_file;
  std::string trace_file;
  // serve/join: server 0 for serve; server s listens on 127.0.0.1:(port+s).
  ServerId id = 0;
  std::uint16_t port = 0;
  // Durable crash recovery (DESIGN.md §10): when set, a member persists
  // checkpoints + a block log under the directory, restores from it on
  // startup (exit 3 if the durable state is corrupt) and mounts a
  // state-sync engine to catch up on history it missed while down.
  std::string data_dir;
  std::uint64_t checkpoint_blocks = 32;  // epoch cadence (with --data-dir)
};

Options defaults_for(Command command) {
  Options opt;
  opt.command = command;
  if (command & kMember) {
    opt.run.backend = Backend::kTcp;
    opt.run.n = 2;
    opt.run.instances = 4;
    opt.seconds = 30.0;  // wall-clock budget for the whole run
    opt.interval_ms = 5;
  } else if (command & kPlan) {
    opt.run.protocol = "mix";
    opt.run.n = 0;
    opt.seconds = 1.0;
  } else {
    opt.run.instances = 8;
  }
  return opt;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && end == s.data() + s.size() && !s.empty();
}

template <typename T>
bool parse_bounded(std::string_view s, std::uint64_t lo, std::uint64_t hi, T& out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, v) || v < lo || v > hi) return false;
  out = static_cast<T>(v);
  return true;
}

// A whole-string double. NaN fails every comparison, so the range checks
// below reject it.
bool parse_double(const char* s, double& out) {
  const char* end = s + std::strlen(s);
  const auto [stop, ec] = std::from_chars(s, end, out);
  return ec == std::errc() && stop == end && stop != s;
}
bool parse_duration(const char* s, double& out) {
  return parse_double(s, out) && out > 0.0 && out <= kMaxSeconds;
}
bool parse_probability(const char* s, double& out) {
  return parse_double(s, out) && out >= 0.0 && out < 1.0;
}

// A seed or an inclusive range A..B.
bool parse_seeds(std::string_view spec, Options& opt) {
  const auto dots = spec.find("..");
  const bool range = dots != std::string_view::npos;
  return parse_u64(spec.substr(0, dots), opt.run.seed) &&
         parse_u64(range ? spec.substr(dots + 2) : spec, opt.last_seed) &&
         opt.run.seed <= opt.last_seed;
}

std::optional<ByzantineKind> parse_kind(const std::string& name) {
  if (name == "silent") return ByzantineKind::kSilent;
  if (name == "equivocator") return ByzantineKind::kEquivocator;
  if (name == "duplicate") return ByzantineKind::kDuplicateReferencer;
  if (name == "flooder") return ByzantineKind::kFlooder;
  if (name == "badsigner") return ByzantineKind::kBadSigner;
  if (name == "garbage") return ByzantineKind::kGarbageSpammer;
  if (name == "forger") return ByzantineKind::kForger;
  return std::nullopt;
}

// Every flag takes one value. The table is the whole command-line
// grammar: parse_args reads it, and so does the usage text.
struct Flag {
  const char* name;
  const char* value;   // as the usage text shows it
  unsigned commands;   // subcommands that accept the flag
  unsigned required;   // subcommands that need it
  bool (*apply)(const char* value, Options& opt);
};

const Flag kFlags[] = {
    {"--seeds", "A..B", kFuzz, kFuzz,
     [](const char* v, Options& o) { return parse_seeds(v, o); }},
    {"--seed", "S", kRun | kMember | kReplay, kReplay,
     [](const char* v, Options& o) {
       // replay also takes the one-seed range A..A; a wider range would
       // replay only its first seed, so it is refused.
       return o.command == kReplay
                  ? parse_seeds(v, o) && o.run.seed == o.last_seed
                  : parse_u64(v, o.run.seed);
     }},
    {"--id", "I", kJoin, kJoin,
     [](const char* v, Options& o) {
       return parse_bounded(v, 1, kMaxServers, o.id);
     }},
    {"--n", "N", kAny, 0,
     [](const char* v, Options& o) {
       return parse_bounded(v, 0, kMaxServers, o.run.n);
     }},
    {"--port", "PORT", kMember, kMember,
     [](const char* v, Options& o) { return parse_bounded(v, 1, 65535, o.port); }},
    {"--runtime", "sim|threads|tcp|udp", kAny, 0,
     [](const char* v, Options& o) {
       const auto backend = parse_backend(v);
       if (backend) o.run.backend = *backend;
       return backend.has_value();
     }},
    {"--protocol", "brb|bcb|fifo|pbft|beacon", kRun | kMember, 0,
     [](const char* v, Options& o) {
       o.run.protocol = v;
       return protocol_factory(v) != nullptr;
     }},
    {"--protocol", "brb|bcb|fifo|pbft|beacon|mix", kPlan, 0,
     [](const char* v, Options& o) {
       o.run.protocol = v;
       return protocol_factory(v) != nullptr || o.run.protocol == "mix";
     }},
    {"--instances", "K", kAny, 0,
     [](const char* v, Options& o) {
       return parse_bounded(v, 0, kMaxInstances, o.run.instances);
     }},
    {"--seconds", "S", kRun | kMember, 0,
     [](const char* v, Options& o) { return parse_duration(v, o.seconds); }},
    {"--duration", "S", kPlan, 0,
     [](const char* v, Options& o) { return parse_duration(v, o.seconds); }},
    {"--duration-ns", "NS", kPlan, 0,
     [](const char* v, Options& o) {
       return parse_bounded(v, 1, kMaxSeconds * 1'000'000'000, o.duration_ns);
     }},
    {"--interval", "MS", kRun | kMember, 0,
     [](const char* v, Options& o) {
       return parse_bounded(v, 1, UINT32_MAX, o.interval_ms);
     }},
    {"--drop", "P", kRun, 0,
     [](const char* v, Options& o) { return parse_probability(v, o.drop); }},
    {"--loss", "P", kMember, 0,
     [](const char* v, Options& o) { return parse_probability(v, o.drop); }},
    {"--byzantine", "ID:KIND", kRun, 0,
     [](const char* v, Options& o) {
       const std::string_view spec = v;
       const auto colon = spec.find(':');
       ServerId id = 0;
       const auto kind = parse_kind(std::string(spec.substr(colon + 1)));
       if (colon == std::string_view::npos || !kind ||
           !parse_bounded(spec.substr(0, colon), 0, kMaxServers, id)) {
         return false;
       }
       o.byzantine[id] = *kind;
       return true;
     }},
    {"--sig", "ideal|hmac|wots", kAny, 0,
     [](const char* v, Options& o) {
       const auto scheme = parse_sig_scheme(v);
       if (scheme) o.run.sig = *scheme;
       return scheme.has_value();
     }},
    {"--interpret-workers", "N", kAny, 0,
     [](const char* v, Options& o) {
       std::uint32_t workers = 0;
       if (!parse_bounded(v, 0, kMaxWorkers, workers)) return false;
       o.run.interpret_workers = workers;
       return true;
     }},
    // Dissemination batching on the real runtimes (ThreadedConfig::
    // batching, DESIGN.md §13). Default on; off ships one envelope per wire
    // frame — the A/B baseline. Local tuning: a batching member
    // interoperates with a non-batching one.
    {"--batch", "on|off", kAny, 0,
     [](const char* v, Options& o) {
       o.seen_batch = true;
       o.run.batch = std::strcmp(v, "on") == 0;
       return o.run.batch || std::strcmp(v, "off") == 0;
     }},
    {"--dot", "FILE", kRun, 0,
     [](const char* v, Options& o) { return !(o.dot_file = v).empty(); }},
    {"--data-dir", "DIR", kMember, 0,
     [](const char* v, Options& o) { return !(o.data_dir = v).empty(); }},
    {"--checkpoint", "K", kMember, 0,
     [](const char* v, Options& o) {
       return parse_bounded(v, 1, UINT64_MAX, o.checkpoint_blocks);
     }},
    {"--repro-file", "FILE", kFuzz, 0,
     [](const char* v, Options& o) { return !(o.repro_file = v).empty(); }},
    {"--trace", "FILE", kReplay, 0,
     [](const char* v, Options& o) { return !(o.trace_file = v).empty(); }},
};

// Parses argv (after the subcommand) into `opt` and checks what no single
// flag can: required flags, cluster-size floors and cross-flag ranges.
bool parse_args(int argc, char** argv, Options& opt) {
  constexpr std::size_t kCount = std::size(kFlags);
  static_assert(kCount <= 32, "seen holds one bit per flag");
  std::uint32_t seen = 0;  // bit k: kFlags[k] given
  for (int i = 0; i < argc; i += 2) {
    std::size_t k = 0;
    while (k < kCount && (std::strcmp(argv[i], kFlags[k].name) != 0 ||
                          !(kFlags[k].commands & opt.command))) {
      ++k;
    }
    if (k == kCount || i + 1 >= argc || !kFlags[k].apply(argv[i + 1], opt)) {
      return false;
    }
    seen |= 1u << k;
  }
  for (std::size_t k = 0; k < kCount; ++k) {
    if ((kFlags[k].required & opt.command) && !(seen & (1u << k))) return false;
  }
  opt.run.duration_ns = opt.duration_ns != 0
                            ? opt.duration_ns
                            : static_cast<std::uint64_t>(opt.seconds * 1e9);
  if (opt.command == kRun) {
    // Byzantine ids name servers of the cluster, and at least one server
    // stays correct: the report reads its DAG.
    return opt.run.n >= 1 && opt.byzantine.size() < opt.run.n &&
           (opt.byzantine.empty() || opt.byzantine.rbegin()->first < opt.run.n);
  }
  // A member cluster has two servers or more, and all of its ports
  // (base .. base + n − 1) fit in 16 bits.
  return !(opt.command & kMember) ||
         (opt.run.n >= 2 && opt.id < opt.run.n &&
          static_cast<std::uint32_t>(opt.port) + opt.run.n - 1 <= 65535);
}

// The capability table of runtime/fuzz_plan.h, applied to the flags given.
bool backend_supports(const Options& opt) {
  const BackendCaps& caps = capabilities(opt.run.backend);
  const struct {
    const char* flag;
    bool given;
    bool BackendCaps::*cap;
    const char* needs;
  } kNeeds[] = {
      {"serve/join", (opt.command & kMember) != 0, &BackendCaps::sockets,
       "a socket wire (tcp|udp)"},
      {"--interpret-workers", opt.run.interpret_workers.has_value(),
       &BackendCaps::real,
       "a real runtime (threads|tcp|udp): the simulator never parallelizes "
       "interpretation, keeping seeded replays byte-deterministic"},
      {"--batch", opt.seen_batch, &BackendCaps::real,
       "a real runtime (threads|tcp|udp): the simulator is serial by design "
       "and has no batching path"},
      {opt.command == kRun ? "--drop" : "--loss", opt.drop != 0.0,
       &BackendCaps::lossy, "a lossy wire (sim|udp)"},
      {"--byzantine", !opt.byzantine.empty(), &BackendCaps::byzantine,
       "the simulator (protocol-level fault injection; the forger slice of "
       "`simctl fuzz --runtime threads --sig wots` hosts adversaries on the "
       "real runtime)"},
      {"--trace", !opt.trace_file.empty(), &BackendCaps::trace,
       "the simulator (real runtimes have no virtual-time event log)"},
  };
  for (const auto& need : kNeeds) {
    if (need.given && !(caps.*need.cap)) {
      std::fprintf(stderr, "%s needs %s, not --runtime %s\n", need.flag,
                   need.needs, backend_name(opt.run.backend));
      return false;
    }
  }
  // --n 0 rotates the cluster size, and rotation never goes below 3.
  if ((opt.command & kPlan) && opt.run.n != 0 && opt.run.n < caps.min_plan_servers) {
    std::fprintf(stderr,
                 "%s --runtime %s needs --n %u or more: its faults need links "
                 "between servers and a peer to restart from\n",
                 opt.command == kFuzz ? "fuzz" : "replay",
                 backend_name(opt.run.backend), caps.min_plan_servers);
    return false;
  }
  return true;
}

// One synopsis per subcommand in `commands`, generated from kFlags.
void print_usage(unsigned commands) {
  const char* prefix = "usage: ";
  for (unsigned bit = 0; bit < std::size(kCommandNames); ++bit) {
    const unsigned command = 1u << bit;
    if (!(commands & command)) continue;
    std::string text;
    std::string line = std::string(prefix) + "simctl " +
                       (command == kRun ? "[run]" : kCommandNames[bit]);
    const auto add = [&](const std::string& item) {
      if (line.size() + 1 + item.size() > 78) {
        text += line + "\n";
        line = std::string(14, ' ');
      }
      line += " " + item;
    };
    for (const Flag& f : kFlags) {
      if (f.required & command) add(std::string(f.name) + " " + f.value);
    }
    for (const Flag& f : kFlags) {
      if ((f.commands & command) && !(f.required & command)) {
        add("[" + std::string(f.name) + " " + f.value + "]");
      }
    }
    std::fprintf(stderr, "%s%s\n", text.c_str(), line.c_str());
    prefix = "       ";
  }
}

// ---- simctl run ----

// One row per wire class that carried traffic.
void print_traffic(const WireMetrics& wire) {
  Table traffic({"wire class", "messages", "bytes"});
  for (std::size_t k = 0; k < static_cast<std::size_t>(WireKind::kCount); ++k) {
    if (wire.messages[k] == 0) continue;
    traffic.add_row({wire_kind_name(static_cast<WireKind>(k)),
                     Table::num(wire.messages[k]), Table::num(wire.bytes[k])});
  }
  std::printf("\n");
  traffic.print();
}

// The same deployment on the multi-threaded runtime: one OS thread per
// server, real wall-clock pacing, bytes moved by the loopback transport
// (--runtime threads), real localhost TCP sockets (--runtime tcp) or lossy
// UDP (--runtime udp). Reports aggregate throughput instead of the
// simulator's virtual-time report.
int run_threaded(const Options& opt, const ProtocolFactory& factory) {
  const RunHeader& h = opt.run;
  rt::ThreadedConfig cfg = threaded_config(h);
  cfg.pacing.interval = sim_ms(opt.interval_ms);
  cfg.udp.default_fault.drop = opt.drop;  // only udp accepts --drop

  const auto t0 = std::chrono::steady_clock::now();
  rt::ThreadedRuntime runtime(factory, cfg);
  if (!runtime.transport_ok()) {
    std::fprintf(stderr, "failed to bind %s sockets\n", backend_name(h.backend));
    return 2;
  }
  runtime.start();

  std::uint32_t issued = 0;
  for (std::uint32_t i = 0; i < h.instances; ++i) {
    for (auto& [server, request] :
         workload_requests(h.protocol, i, Issuers::all(h.n))) {
      runtime.request(server, 1 + i, std::move(request));
    }
    ++issued;
  }

  // Poll for completion (every label indicated everywhere) up to the
  // wall-clock budget, then settle with explicit convergence rounds.
  const auto deadline = t0 + std::chrono::nanoseconds(h.duration_ns);
  const auto count_complete = [&] {
    std::uint32_t complete = 0;
    for (std::uint32_t i = 0; i < h.instances; ++i) {
      if (runtime.indicated_count(1 + i) == h.n) ++complete;
    }
    return complete;
  };
  while (std::chrono::steady_clock::now() < deadline &&
         count_complete() != issued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const bool converged = runtime.quiesce_and_converge();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const std::uint32_t complete = count_complete();

  std::printf("simctl report — runtime=%s protocol=%s n=%u instances=%u "
              "seed=%llu sig=%s batch=%s\n\n",
              backend_name(h.backend), h.protocol.c_str(), h.n, issued,
              static_cast<unsigned long long>(h.seed), sig_scheme_name(h.sig),
              h.batch ? "on" : "off");
  const std::uint64_t blocks = runtime.total_blocks_inserted();
  std::printf("instances complete everywhere : %u / %u\n", complete, issued);
  std::printf("converged (joint DAG + interp) : %s\n", converged ? "yes" : "no");
  std::printf("wall time                      : %.3f s\n", wall);
  std::printf("aggregate blocks inserted      : %llu (%.0f blocks/s)\n",
              static_cast<unsigned long long>(blocks),
              wall > 0 ? static_cast<double>(blocks) / wall : 0.0);
  if (h.sig != SigScheme::kIdeal) {
    const VerifierPoolStats vp = runtime.verifier_stats();
    std::printf("verifier pool                  : %llu submitted, %llu "
                "verified in %llu batches, %llu cache hits\n",
                static_cast<unsigned long long>(vp.submitted),
                static_cast<unsigned long long>(vp.verified),
                static_cast<unsigned long long>(vp.batches),
                static_cast<unsigned long long>(vp.cache_hits));
  }
  const InterpreterStats is = runtime.interpreter_stats();
  std::printf("interpretation                 : %llu blocks, %llu delivered, "
              "%llu materialized, %llu indications, %llu clones\n",
              static_cast<unsigned long long>(is.blocks_interpreted),
              static_cast<unsigned long long>(is.messages_delivered),
              static_cast<unsigned long long>(is.messages_materialized),
              static_cast<unsigned long long>(is.indications),
              static_cast<unsigned long long>(is.instance_clones));
  std::printf("instance state retained        : %llu blocks hold B.PIs, "
              "%llu chain replays, %llu lost states\n",
              static_cast<unsigned long long>(is.blocks_holding_pis),
              static_cast<unsigned long long>(is.chain_replays),
              static_cast<unsigned long long>(is.states_lost));
  std::printf("parallel interpret             : %zu workers, %llu parallel / "
              "%llu serial batches, %llu work units, max shard %llu, "
              "merge %.2f ms\n",
              runtime.interpret_workers(),
              static_cast<unsigned long long>(is.parallel_batches),
              static_cast<unsigned long long>(is.serial_batches),
              static_cast<unsigned long long>(is.work_units),
              static_cast<unsigned long long>(is.max_shard_width),
              static_cast<double>(is.merge_ns) / 1e6);

  const WireMetrics wire = runtime.wire_metrics();
  print_traffic(wire);
  if (runtime.tcp()) {
    const rt::TcpStats tcp = runtime.tcp()->stats();
    std::printf("sockets: %llu connections, %llu frames sent, %llu received, "
                "%llu resets\n",
                static_cast<unsigned long long>(tcp.connects),
                static_cast<unsigned long long>(tcp.frames_sent),
                static_cast<unsigned long long>(tcp.frames_received),
                static_cast<unsigned long long>(tcp.resets));
    if (tcp.batches_sent != 0 || tcp.batches_received != 0) {
      std::printf("batching: %llu batches carrying %llu envelopes sent "
                  "(%llu received / %llu envelopes), %llu writev calls\n",
                  static_cast<unsigned long long>(tcp.batches_sent),
                  static_cast<unsigned long long>(tcp.batched_envelopes),
                  static_cast<unsigned long long>(tcp.batches_received),
                  static_cast<unsigned long long>(tcp.batched_envelopes_received),
                  static_cast<unsigned long long>(tcp.writev_calls));
    }
  }
  if (runtime.udp()) {
    const rt::UdpStats udp = runtime.udp()->stats();
    std::printf(
        "sockets: %llu datagrams sent, %llu received, %llu frames sent, "
        "%llu received\n"
        "reliability: %llu retransmits, %llu channel resets, %llu dups "
        "deduped, %llu injected drops, %llu injected dups\n",
        static_cast<unsigned long long>(udp.datagrams_sent),
        static_cast<unsigned long long>(udp.datagrams_received),
        static_cast<unsigned long long>(udp.frames_sent),
        static_cast<unsigned long long>(udp.frames_received),
        static_cast<unsigned long long>(udp.retransmits),
        static_cast<unsigned long long>(udp.channel_resets),
        static_cast<unsigned long long>(udp.duplicates_dropped),
        static_cast<unsigned long long>(udp.injected_drops),
        static_cast<unsigned long long>(udp.injected_dups));
    if (udp.batches_sent != 0 || udp.batches_received != 0) {
      std::printf("batching: %llu batches carrying %llu envelopes sent "
                  "(%llu received / %llu envelopes)\n",
                  static_cast<unsigned long long>(udp.batches_sent),
                  static_cast<unsigned long long>(udp.batched_envelopes),
                  static_cast<unsigned long long>(udp.batches_received),
                  static_cast<unsigned long long>(udp.batched_envelopes_received));
    }
    // Per-peer accounting, the DESIGN.md §9 counters: one row per directed
    // link that carried traffic.
    Table links({"link", "datagrams", "chunks", "rexmit", "resets", "dedup",
                 "inj.drop", "inj.dup"});
    for (ServerId a = 0; a < h.n; ++a) {
      for (ServerId b = 0; b < h.n; ++b) {
        if (a == b) continue;
        const rt::UdpLinkStats link = runtime.udp()->link_stats(a, b);
        if (link.datagrams_sent == 0 && link.chunks_delivered == 0) continue;
        links.add_row({std::to_string(a) + "->" + std::to_string(b),
                       Table::num(link.datagrams_sent),
                       Table::num(link.chunks_delivered),
                       Table::num(link.retransmits),
                       Table::num(link.channel_resets),
                       Table::num(link.duplicates_dropped),
                       Table::num(link.injected_drops),
                       Table::num(link.injected_dups)});
      }
    }
    std::printf("\n");
    links.print();
  }

  // The Lemma 3.7 / 4.2 cross-check the threaded runtime must still pass.
  bool digests_equal = converged;
  const Bytes dag0 = runtime.dag_digest(0);
  const Bytes interp0 = runtime.interpretation_digest(0);
  for (ServerId s = 1; s < h.n; ++s) {
    if (runtime.dag_digest(s) != dag0 ||
        runtime.interpretation_digest(s) != interp0) {
      digests_equal = false;
    }
  }
  std::printf("\nidentical DAG + interpretation digests on all %u servers: %s\n",
              h.n, digests_equal ? "yes" : "NO");

  if (!opt.dot_file.empty()) {
    const std::string dot =
        runtime.call(0, [](Shim& shim) { return to_dot(shim.dag()); });
    std::ofstream out(opt.dot_file);
    out << dot;
    std::printf("\nDOT written to %s\n", opt.dot_file.c_str());
  }
  return (complete == issued && digests_equal) ? 0 : 1;
}

int run(const Options& opt) {
  const RunHeader& h = opt.run;
  const ProtocolFactory& factory = *protocol_factory(h.protocol);
  if (capabilities(h.backend).real) return run_threaded(opt, factory);

  ClusterConfig cfg;
  cfg.n_servers = h.n;
  cfg.seed = h.seed;
  cfg.sig_scheme = h.sig;
  cfg.pacing.interval = sim_ms(opt.interval_ms);
  cfg.net.drop_probability = opt.drop;
  cfg.net.max_drops_per_pair = 16;
  cfg.byzantine = opt.byzantine;

  Cluster cluster(factory, cfg);
  cluster.start();

  // Requests go to correct servers only: round-robin from server i, PBFT
  // proposals from the view-0 leader (server 0) on — if it is byzantine
  // the complaint path would be needed, which simctl does not script.
  const Issuers issuers{h.n, h.n, cluster.correct_servers(), false};
  std::vector<SimTime> requested_at(h.instances, 0);
  std::uint32_t issued = 0;
  for (std::uint32_t i = 0; i < h.instances; ++i) {
    auto requests = workload_requests(h.protocol, i, issuers);
    if (requests.empty()) continue;
    requested_at[i] = cluster.scheduler().now();
    for (auto& [server, request] : requests) {
      cluster.request(server, 1 + i, std::move(request));
    }
    ++issued;
  }
  cluster.run_for(h.duration_ns);
  cluster.stop();

  // ---- report ----
  std::printf("simctl report — protocol=%s n=%u instances=%u seed=%llu sig=%s\n\n",
              h.protocol.c_str(), h.n, issued,
              static_cast<unsigned long long>(h.seed), sig_scheme_name(h.sig));

  Histogram latency;
  std::size_t complete = 0;
  for (std::uint32_t i = 0; i < h.instances; ++i) {
    if (cluster.indicated_count(1 + i) == cluster.n_correct()) ++complete;
  }
  for (ServerId s : cluster.correct_servers()) {
    for (const UserIndication& ind : cluster.shim(s).indications()) {
      if (ind.label >= 1 && ind.label <= h.instances) {
        latency.record(static_cast<double>(ind.at - requested_at[ind.label - 1]) / 1e6);
      }
    }
  }
  std::printf("instances complete everywhere : %zu / %u\n", complete, issued);
  std::printf("delivery latency (ms)          : %s\n", latency.summary(1).c_str());

  const auto& wire = cluster.network().metrics();
  print_traffic(wire);
  std::printf("dropped: %llu\n", static_cast<unsigned long long>(wire.dropped));

  const ServerId witness = cluster.correct_servers().front();
  const auto& interp = cluster.shim(witness).interpreter().stats();
  std::printf("\ninterpretation (server %u): %llu blocks, %llu materialized "
              "messages, %llu indications\n",
              witness, static_cast<unsigned long long>(interp.blocks_interpreted),
              static_cast<unsigned long long>(interp.messages_materialized),
              static_cast<unsigned long long>(interp.indications));
  std::printf("signatures: %llu signs, %llu verifies\n",
              static_cast<unsigned long long>(cluster.signatures().counters().signs),
              static_cast<unsigned long long>(cluster.signatures().counters().verifies));

  std::printf("\n%s", audit(cluster.shim(witness).dag()).summary().c_str());

  if (!opt.dot_file.empty()) {
    std::ofstream out(opt.dot_file);
    out << to_dot(cluster.shim(witness).dag());
    std::printf("\nDOT written to %s\n", opt.dot_file.c_str());
  }
  return complete == issued ? 0 : 1;
}

// ---- multi-process cluster (serve / join) ----

// The digest beat every member broadcasts on the control plane
// (WireKind::kControl — routed by the socket transports, invisible to
// gossip).
Bytes encode_digest_beat(const Bytes& dag, const Bytes& interp, bool done) {
  Writer w;
  // A tagged envelope like every payload (net/codec.h): the tag is what
  // routes a beat to the control handler when it rides inside a kBatch.
  w.u8(static_cast<std::uint8_t>(WireKind::kControl));
  w.u8(1);  // control-protocol version
  w.bytes(dag);
  w.bytes(interp);
  w.u8(done ? 1 : 0);
  return std::move(w).take();
}

// One member of a multi-OS-process cluster: hosts exactly one server on
// a real-socket transport (TCP by default, lossy UDP with --runtime udp),
// issues its share of the workload, then settles via digest exchange. The
// acceptance criterion of DESIGN.md §8: exit 0 iff every server in the
// cluster reports the identical DAG digest and the identical per-block
// interpretation digest (Lemma 3.7 / Lemma 4.2) and every instance was
// delivered locally. Over UDP with --loss the digest beats themselves ride
// the retransmitting channels, so agreement doubles as a liveness check of
// the reliability layer across process boundaries.
int run_member(const Options& opt) {
  const RunHeader& h = opt.run;
  const char* role = opt.command == kJoin ? "join" : "serve";
  rt::ThreadedConfig cfg = threaded_config(h);
  cfg.pacing.interval = sim_ms(opt.interval_ms);
  cfg.gossip.fwd_retry_delay = sim_ms(20);
  if (h.backend == Backend::kUdp) {
    cfg.udp.base_port = opt.port;
    cfg.udp.local_servers = {opt.id};
    cfg.udp.fault_seed = h.seed + opt.id;  // distinct decision streams
    cfg.udp.default_fault.drop = opt.drop;  // applied to outbound datagrams
  } else {
    cfg.tcp.base_port = opt.port;
    cfg.tcp.local_servers = {opt.id};
  }

  // Durable recovery: a --data-dir member checkpoints every K interpreted
  // blocks (rotating its block log), restores on startup and state-syncs
  // whatever it missed while down. Declared before the runtime — the
  // storage sink must outlive it.
  std::optional<blockdag::sync::DataDir> store;
  if (!opt.data_dir.empty()) {
    store.emplace(opt.data_dir);
    if (!store->ok()) {
      std::fprintf(stderr,
                   "simctl %s: cannot open --data-dir %s (mkdir failed?)\n",
                   role, opt.data_dir.c_str());
      return 3;
    }
    cfg.storage = [&store](ServerId) { return &*store; };
    cfg.checkpoint.epoch_blocks = opt.checkpoint_blocks;
    cfg.enable_state_sync = true;
    cfg.sync.progress_timeout = sim_ms(200);
    cfg.sync.retry_base = sim_ms(50);
  }

  // Latest digest beat per peer. Written by the control handler on the
  // hosted server's thread, read by this (harness) thread. Declared
  // *before* the runtime: the handler may still run (a lingering peer
  // re-sending its final beat) until the runtime's destructor joins the
  // poll and node threads, so the captured state must outlive it.
  struct PeerView {
    Bytes dag, interp;
    bool done = false;
    bool seen = false;
  };
  std::mutex peers_mu;
  std::vector<PeerView> peers(h.n);

  rt::ThreadedRuntime runtime(*protocol_factory(h.protocol), cfg);
  if (!runtime.transport_ok()) {
    std::fprintf(stderr,
                 "simctl %s: failed to bind 127.0.0.1:%u (port in use or "
                 "port range exceeds 65535?)\n",
                 role, opt.port + opt.id);
    return 2;
  }
  if (!runtime.restore_failures().empty()) {
    // Distinct from a settle timeout (1) and a bind failure (2): the
    // durable state exists but will not restore — running on would risk
    // equivocation (a lost own-block means a reused sequence number).
    std::fprintf(stderr,
                 "simctl %s: corrupt durable state in --data-dir %s — refusing "
                 "to run half-restored (wipe the directory to rejoin fresh)\n",
                 role, opt.data_dir.c_str());
    return 3;
  }
  // Control-plane sender, transport-agnostic: kControl frames bypass the
  // protocol handler on both socket backends.
  const auto send_control = [&runtime, &opt](ServerId to, Bytes beat) {
    runtime.socket_transport()->send(opt.id, to, WireKind::kControl,
                                     std::move(beat));
  };
  runtime.set_control_handler(
      opt.id, [&peers_mu, &peers](ServerId from, const Bytes& payload) {
        Reader r(payload);
        const auto tag = r.u8();
        const auto version = r.u8();
        if (!tag || *tag != static_cast<std::uint8_t>(WireKind::kControl) ||
            !version || *version != 1) {
          return;
        }
        const auto dag = r.bytes();
        const auto interp = r.bytes();
        const auto done = r.u8();
        if (!dag || !interp || !done || !r.done()) return;
        std::lock_guard<std::mutex> lock(peers_mu);
        peers[from] = PeerView{*dag, *interp, *done != 0, true};
      });

  std::printf("simctl %s — server %u of %u, protocol=%s, %s 127.0.0.1:%u..%u%s\n",
              role, opt.id, h.n, h.protocol.c_str(), backend_name(h.backend),
              opt.port, opt.port + h.n - 1, opt.drop > 0.0 ? " (lossy)" : "");
  runtime.start();
  if (store) {
    // Catch up on history missed while down (restart over an existing data
    // dir) or never seen (fresh dir joining a running cluster). For a
    // cluster starting together this is a cheap no-op round: peers answer
    // from near-empty DAGs and gossip dedup drops the overlap.
    runtime.start_sync(opt.id);
  }

  // This process's share of the workload: the member hosting the issuing
  // server of instance i makes the request (the same routing rule as
  // `simctl run`). A restored member skips instances its pre-crash
  // incarnation already delivered — the indication log survives the
  // crash, and re-issuing a completed instance would double-deliver it.
  for (std::uint32_t i = 0; i < h.instances; ++i) {
    if (runtime.indicated_count(1 + i) != 0) continue;
    for (auto& [server, request] :
         workload_requests(h.protocol, i, Issuers::all(h.n))) {
      if (server == opt.id) runtime.request(opt.id, 1 + i, std::move(request));
    }
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(h.duration_ns);
  const auto labels_complete = [&] {
    for (std::uint32_t i = 0; i < h.instances; ++i) {
      if (runtime.indicated_count(1 + i) != 1) return false;
    }
    return true;
  };

  // Phase 1: paced dissemination until every instance indicated locally.
  while (std::chrono::steady_clock::now() < deadline && !labels_complete()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Phase 2: stop building blocks; keep the receive path, FWD recovery and
  // interpretation live, and exchange digest beats until the whole cluster
  // agrees (every further block could only chase a moving target — with
  // builders stopped, the joint DAG is a fixed set to drain toward).
  runtime.stop();

  int exit_code = 1;
  Bytes last_dag, last_interp;
  int stable = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const bool force_gc = cfg.checkpoint.epoch_blocks != 0;
    const auto [dag, interp, pending] =
        runtime.call(opt.id, [force_gc](Shim& shim) {
          shim.interpreter().run();
          // With checkpoint epochs on, per-member GC cadences leave
          // different live sets for the same joint DAG; prune to the
          // fixpoint before sampling so digests are comparable (every
          // member must do this — hence "all members agree on --data-dir").
          if (force_gc) shim.collect_garbage();
          return std::make_tuple(
              rt::dag_digest(shim.dag()),
              rt::interpretation_digest(shim.interpreter(), shim.dag()),
              shim.gossip().pending_blocks());
        });
    stable = (dag == last_dag && interp == last_interp) ? stable + 1 : 0;
    last_dag = dag;
    last_interp = interp;
    const bool self_done = labels_complete() && pending == 0 && stable >= 2;

    const Bytes beat = encode_digest_beat(dag, interp, self_done);
    for (ServerId s = 0; s < h.n; ++s) {
      if (s != opt.id) send_control(s, Bytes(beat));
    }

    bool cluster_done = self_done;
    {
      std::lock_guard<std::mutex> lock(peers_mu);
      for (ServerId s = 0; s < h.n && cluster_done; ++s) {
        if (s == opt.id) continue;
        const PeerView& peer = peers[s];
        if (!peer.seen || !peer.done || peer.dag != dag || peer.interp != interp) {
          cluster_done = false;
        }
      }
    }
    if (cluster_done) {
      // Linger a few beats so peers still sampling can observe agreement
      // before this process (and its sockets) disappear.
      for (int i = 0; i < 3; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        for (ServerId s = 0; s < h.n; ++s) {
          if (s != opt.id) send_control(s, Bytes(beat));
        }
      }
      exit_code = 0;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  const std::uint64_t blocks = runtime.call(opt.id, [](Shim& shim) {
    return shim.gossip().stats().blocks_inserted;
  });
  std::printf("server %u: %llu blocks, dag=%s interp=%s\n", opt.id,
              static_cast<unsigned long long>(blocks),
              to_hex(last_dag).substr(0, 16).c_str(),
              to_hex(last_interp).substr(0, 16).c_str());
  const InterpreterStats is = runtime.interpreter_stats();
  std::printf("interpretation: %llu blocks, %llu delivered, %llu indications "
              "(%zu workers, %llu parallel / %llu serial batches, "
              "%llu work units)\n",
              static_cast<unsigned long long>(is.blocks_interpreted),
              static_cast<unsigned long long>(is.messages_delivered),
              static_cast<unsigned long long>(is.indications),
              runtime.interpret_workers(),
              static_cast<unsigned long long>(is.parallel_batches),
              static_cast<unsigned long long>(is.serial_batches),
              static_cast<unsigned long long>(is.work_units));
  if (store) {
    const auto recovery = runtime.sync_snapshot(opt.id);
    std::printf(
        "recovery: restored=%s (epoch %llu, %llu ckpt + %llu log blocks, "
        "%llu interpreted live), %llu checkpoints stored, sync: %llu "
        "completed / %llu blocks added\n",
        recovery.restore.restored ? "yes" : "no",
        static_cast<unsigned long long>(recovery.restore.checkpoint_epoch),
        static_cast<unsigned long long>(recovery.restore.blocks_from_checkpoint),
        static_cast<unsigned long long>(recovery.restore.own_blocks_from_log +
                                        recovery.restore.recv_blocks_from_log),
        static_cast<unsigned long long>(recovery.blocks_interpreted),
        static_cast<unsigned long long>(recovery.checkpointer.checkpoints_stored),
        static_cast<unsigned long long>(recovery.sync.completions),
        static_cast<unsigned long long>(recovery.sync.blocks_added));
  }
  if (runtime.udp()) {
    const rt::UdpStats udp = runtime.udp()->stats();
    std::printf("sockets: %llu datagrams sent, %llu received, "
                "%llu retransmits, %llu injected drops\n",
                static_cast<unsigned long long>(udp.datagrams_sent),
                static_cast<unsigned long long>(udp.datagrams_received),
                static_cast<unsigned long long>(udp.retransmits),
                static_cast<unsigned long long>(udp.injected_drops));
  } else {
    const rt::TcpStats tcp = runtime.tcp()->stats();
    std::printf("sockets: %llu connects, %llu frames sent, %llu received\n",
                static_cast<unsigned long long>(tcp.connects),
                static_cast<unsigned long long>(tcp.frames_sent),
                static_cast<unsigned long long>(tcp.frames_received));
  }
  std::printf("%s\n", exit_code == 0
                          ? "OK — cluster-wide identical DAG + interpretation digests"
                          : "TIMEOUT — cluster did not reach digest agreement");
  return exit_code;
}

// ---- scenario engine subcommands ----

int cmd_fuzz(const Options& opt) {
  std::size_t passed = 0, failed = 0;
  for (std::uint64_t seed = opt.run.seed;; ++seed) {
    const FuzzPlan plan = FuzzPlan::derive(opt.run.backend, seed, opt.run);
    const ScenarioResult result = plan.run();
    if (result.ok()) {
      ++passed;
    } else {
      ++failed;
      const std::string repro = plan.repro_line();
      std::printf("FAIL seed=%llu protocol=%s n=%u: %s\n",
                  static_cast<unsigned long long>(seed),
                  plan.header.protocol.c_str(), plan.header.n,
                  result.violations.front().c_str());
      std::printf("  repro: %s\n", repro.c_str());
      if (!opt.repro_file.empty()) {
        std::ofstream out(opt.repro_file, std::ios::app);
        out << repro << "\n";
      }
    }
    if (seed == opt.last_seed) break;  // also ends a range up to UINT64_MAX
  }
  std::printf("fuzz: %zu/%zu seeds passed (%llu..%llu)\n", passed,
              passed + failed, static_cast<unsigned long long>(opt.run.seed),
              static_cast<unsigned long long>(opt.last_seed));
  return failed == 0 ? 0 : 1;
}

int cmd_replay(const Options& opt) {
  const FuzzPlan plan = FuzzPlan::derive(opt.run.backend, opt.run.seed, opt.run);
  std::printf("%s", plan.summary().c_str());
  const ScenarioResult result = plan.run();
  std::printf("---- result ----\n");
  if (plan.header.backend == Backend::kSim) {
    std::printf("blocks=%zu deliveries=%zu labels_complete=%zu converged=%s\n",
                result.blocks, result.deliveries, result.labels_complete,
                result.converged ? "yes" : "no");
  }
  for (const std::string& violation : result.violations) {
    std::printf("VIOLATION: %s\n", violation.c_str());
  }
  if (result.ok()) std::printf("OK — no violations\n");
  if (!opt.trace_file.empty()) {
    std::ofstream out(opt.trace_file);
    out << scenario_trace_json(plan.scenario(), std::get<FaultPlan>(plan.faults),
                               result);
    std::printf("trace written to %s\n", opt.trace_file.c_str());
  }
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Command command = kRun;
  int first = 1;
  for (unsigned bit = 0; bit < std::size(kCommandNames); ++bit) {
    if (argc > 1 && std::strcmp(argv[1], kCommandNames[bit]) == 0) {
      command = static_cast<Command>(1u << bit);
      first = 2;
    }
  }
  Options opt = defaults_for(command);
  if (!parse_args(argc - first, argv + first, opt)) {
    print_usage(command == kRun ? kAny : (command & kMember) ? kMember : command);
    return 2;
  }
  if (!backend_supports(opt)) return 2;
  switch (command) {
    case kRun: return run(opt);
    case kServe:
    case kJoin: return run_member(opt);
    case kFuzz: return cmd_fuzz(opt);
    case kReplay: return cmd_replay(opt);
  }
  return 2;
}
