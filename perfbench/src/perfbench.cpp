// perfbench — open-loop request→quorum latency and capacity benchmark on
// the threaded runtime (rt::ThreadedRuntime, n = 4, f = 1).
//
//   perfbench --workload broadcast|payments|lossy --seed N --seconds S
//             --trace 0|1 --tmp DIR [--commit ID]
//
// One harness thread sends requests on a seeded Poisson schedule and times
// each one from its *due* time. Request values carry their request id, so
// every indication is matched back to its request and checked against the
// submitted value. A request for label ℓ always goes to its home server
// (ℓ mod n). Everything the program sees is generated from --seed before a
// phase starts. perfbench/NOTES.md defines every metric.
//
// --trace 0 prints the end-to-end metrics: round(S / 1.5 s) nominal segments
// (at least three), each on a fresh cluster in a fresh child process. A
// segment is timed from construction to its warm-up request's quorum
// (setup_s), runs 1.5 s of the workload's nominal schedule, drains, and must
// pass the correctness gate: integrity, no duplication and FIFO order per
// indication, then quiesce_and_converge with equal DAG and interpretation
// digests on every server, and delivery of every request everywhere. Peak
// RSS is the median over the segments and setup_s the mean of their fastest
// set-ups; latency and CPU per request go to the detail line only (they
// follow the host more than the code, see NOTES.md). A segment whose
// generator woke late is re-run, not scored; a run left short of segments
// is invalid.
// --trace 1 prints the per-layer metrics: untraced and traced nominal
// segments (their difference is the tracing overhead), the capacity ladder,
// an offline replay of server 0's recorded DAG through each layer's public
// functions, and an exact-count replay of the same inputs on the
// deterministic sim Cluster.
//
// The last stdout line is the result object {"correct", "attempted",
// "failed", "metrics"}; the line before it is a detail object with the
// environment, resolved runtime defaults, per-segment figures and every
// rung. Exit code 0 iff every correctness check held; 3 (and no result) for
// an invalid run.
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "crypto/signature.h"
#include "dag/block.h"
#include "dag/dag.h"
#include "dag/validity.h"
#include "interpret/interpreter.h"
#include "interpret/parallel_interpreter.h"
#include "protocols/brb.h"
#include "protocols/fifo_brb.h"
#include "rt/threaded_runtime.h"
#include "runtime/cluster.h"
#include "sync/storage.h"
#include "util/rng.h"
#include "util/serialize.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace blockdag;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kServers = 4;
constexpr std::uint32_t kQuorum = kServers - max_faulty(kServers);  // n − f
constexpr double kBacklogFactor = 4.0;     // last-fifth vs first-fifth p50
// A nominal segment whose generator woke late by more than this share of the
// latency limit (at p99) measured the host, not the system: it is not scored
// but re-run. A run that cannot collect its segments within kMaxAttempts
// segment attempts per segment slot is invalid and prints no metrics.
constexpr double kLateShareOfLimit = 0.2;
constexpr int kMaxAttempts = 2;
constexpr double kSegmentSeconds = 1.5;    // one nominal segment's schedule
constexpr int kMinSegments = 3;
constexpr int kReferenceSegments = 3;      // untraced segments of a traced run
// setup_s is the mean of the fastest 30% of a run's set-ups. A set-up ends
// with the warm-up request's quorum, so it carries one request latency, and
// on a busy host most set-ups absorb a scheduling stall; the fastest ones
// measure construction and that one latency.
constexpr double kSetupShare = 0.3;
constexpr int kLadderRungs = 8;            // capacity ladder (traced runs)
constexpr double kRungSeconds = 1.5;
constexpr double kDrainSeconds = 5.0;      // nominal drain deadline
constexpr double kRungDrainSeconds = 1.0;  // capacity-rung drain deadline
constexpr double kStageTolerancePct = 1.0; // stage sum vs quorum latency
constexpr int kInvalidExit = 3;            // exit code of an invalid run

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Proto { kBrb, kFifo };

struct Workload {
  const char* name;
  rt::TransportBackend backend;
  Proto proto;
  SigScheme sig;
  std::uint64_t beat_ms;
  double nominal_rps;
  double limit_ms;         // capacity: quorum p99 latency limit
  double ladder_base_rps;  // rung k offers ladder_base_rps · 2^(k/2)
  std::size_t value_bytes;
  std::uint32_t accounts;  // 0 = a fresh label per request
  double zipf_s;           // account popularity skew (accounts > 0)
  double drop;             // per-datagram loss on every directed link (UDP)
  bool storage;            // file-backed DataDir per server
  std::uint64_t epoch_blocks;
};

const Workload kWorkloads[] = {
    {"broadcast", rt::TransportBackend::kLoopback, Proto::kBrb, SigScheme::kIdeal,
     5, 300.0, 100.0, 300.0, 32, 0, 0.0, 0.0, false, 0},
    {"payments", rt::TransportBackend::kTcp, Proto::kFifo, SigScheme::kHmac,
     2, 200.0, 100.0, 100.0, 100, 256, 1.0, 0.0, false, 0},
    {"lossy", rt::TransportBackend::kUdp, Proto::kBrb, SigScheme::kIdeal,
     5, 200.0, 500.0, 200.0, 32, 0, 0.0, 0.02, true, 128},
};

double rung_rate(const Workload& w, int k) {
  return w.ladder_base_rps * std::pow(2.0, k / 2.0);
}

struct Request {
  std::int64_t due_ns = 0;  // offset from the phase start
  Label label = 0;
  ServerId home = 0;
  Bytes value;    // what every indication for this request must carry
  Bytes request;  // the P request submitted (moved out when sent)
};

// Request table of one phase: entry 0 is the warm-up request (due at 0,
// not timed), entries 1.. the Poisson schedule at `rate` for `seconds`.
// A value starts with its request id; the rest is seeded filler.
std::vector<Request> generate(const Workload& w, std::uint64_t seed,
                              std::uint64_t stream, double rate,
                              double seconds) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  std::vector<double> zipf_cdf;
  if (w.accounts > 0) {
    double total = 0;
    for (std::uint32_t a = 0; a < w.accounts; ++a) {
      total += 1.0 / std::pow(a + 1.0, w.zipf_s);
      zipf_cdf.push_back(total);
    }
    for (double& c : zipf_cdf) c /= total;
  }
  std::vector<Request> out;
  const auto add = [&](std::int64_t due, Label label) {
    const std::uint64_t id = out.size();
    Writer v;
    v.u64(id);
    if (w.accounts > 0) {  // a transfer: from, to, amount
      v.u32(static_cast<std::uint32_t>(label - 1));
      v.u32(static_cast<std::uint32_t>(rng.below(w.accounts)));
      v.u64(1 + rng.below(1000));
    }
    while (v.size() < w.value_bytes) v.u8(static_cast<std::uint8_t>(rng.next()));
    Request r;
    r.due_ns = due;
    r.label = label;
    r.home = static_cast<ServerId>(label % kServers);
    r.value = std::move(v).take();
    r.request = w.proto == Proto::kBrb ? brb::make_broadcast(r.value)
                                       : fifo::make_broadcast(r.value);
    out.push_back(std::move(r));
  };
  // Warm-up: a label of its own (one past the last account, or label 1).
  add(0, w.accounts > 0 ? w.accounts + 1 : 1);
  double t = 0;
  const double end = seconds;
  while (true) {
    t += -std::log(1.0 - rng.unit()) / rate;
    if (t >= end) break;
    Label label;
    if (w.accounts > 0) {
      const double u = rng.unit();
      const auto it = std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u);
      label = 1 + static_cast<Label>(std::min<std::size_t>(
                      it - zipf_cdf.begin(), w.accounts - 1));
    } else {
      label = 1 + out.size();
    }
    add(static_cast<std::int64_t>(t * 1e9), label);
  }
  return out;
}

// Request id carried by a request value / P request / indication.
std::optional<std::uint64_t> id_of_value(const Bytes& value) {
  Reader r(value);
  return r.u64();
}
std::optional<std::uint64_t> id_of_request(const Bytes& request) {
  Reader r(request);
  if (!r.u8()) return std::nullopt;
  const auto value = r.bytes();
  if (!value) return std::nullopt;
  return id_of_value(*value);
}

// ---------------------------------------------------------------------------
// Per-phase tracking (indication handlers run on the server threads)
// ---------------------------------------------------------------------------

class Tracker {
 public:
  Tracker(const std::vector<Request>& reqs, Proto proto, Label max_label,
          bool trace)
      : reqs_(reqs),
        proto_(proto),
        count_(reqs.size()),
        quorum_ns_(reqs.size()),
        local_ns_(reqs.size()),
        seen_(kServers, std::vector<std::uint8_t>(reqs.size(), 0)),
        last_id_(kServers, std::vector<std::int64_t>(max_label + 1, -1)),
        inserted_ns_(kServers),
        probe_wait_ns_(kServers) {
    for (auto& c : count_) c.store(0, std::memory_order_relaxed);
    for (auto& q : quorum_ns_) q.store(-1, std::memory_order_relaxed);
    for (auto& l : local_ns_) l.store(-1, std::memory_order_relaxed);
    if (trace) {
      for (auto& v : inserted_ns_) v.assign(reqs.size(), -1);
    }
  }

  void set_origin(std::int64_t t0) { t0_ = t0; }
  std::int64_t origin() const { return t0_; }

  // Shim::IndicationHandler body, on server `s`'s thread.
  void on_indication(ServerId s, Label label, const Bytes& indication) {
    const std::int64_t t = now_ns() - t0_;
    std::optional<Bytes> value;
    if (proto_ == Proto::kBrb) {
      value = brb::parse_deliver(indication);
    } else if (auto d = fifo::parse_deliver(indication)) {
      if (d->origin != label % kServers) {
        violation("FIFO delivery from a server other than the label's home");
        return;
      }
      value = std::move(d->value);
    }
    const auto id = value ? id_of_value(*value) : std::nullopt;
    if (!id || *id >= reqs_.size() || reqs_[*id].label != label ||
        reqs_[*id].value != *value) {
      violation("indication carries a value that was never submitted");
      return;
    }
    if (seen_[s][*id]) {
      violation("request delivered twice at one server");
      return;
    }
    seen_[s][*id] = 1;
    if (proto_ == Proto::kFifo) {
      // Ids are assigned in submission order, so per label they must rise.
      if (static_cast<std::int64_t>(*id) <= last_id_[s][label]) {
        violation("FIFO order broken for an account");
        return;
      }
      last_id_[s][label] = static_cast<std::int64_t>(*id);
    }
    if (s == reqs_[*id].home) local_ns_[*id].store(t, std::memory_order_relaxed);
    if (count_[*id].fetch_add(1, std::memory_order_acq_rel) + 1 == kQuorum) {
      quorum_ns_[*id].store(t, std::memory_order_relaxed);
      quorum_done_.fetch_add(1, std::memory_order_release);
    }
  }

  // Block sink / storage append on server `s`'s thread (trace only): the
  // first time a block carrying a request enters s's DAG.
  void on_block(ServerId s, const Block& block) {
    const std::int64_t t = now_ns() - t0_;
    for (const LabeledRequest& lr : block.rs()) {
      const auto id = id_of_request(lr.request);
      if (!id || *id >= reqs_.size()) continue;
      if (inserted_ns_[s][*id] < 0) inserted_ns_[s][*id] = t;
    }
  }

  // post() probe body on server `s`'s thread.
  void on_probe(ServerId s, std::int64_t enqueued) {
    probe_wait_ns_[s].push_back(now_ns() - enqueued);
  }

  std::uint64_t quorum_done() const {
    return quorum_done_.load(std::memory_order_acquire);
  }
  std::int64_t quorum_ns(std::size_t id) const {
    return quorum_ns_[id].load(std::memory_order_relaxed);
  }
  std::int64_t local_ns(std::size_t id) const {
    return local_ns_[id].load(std::memory_order_relaxed);
  }
  std::uint64_t violations() const { return violations_.load(); }
  std::string first_violation() {
    std::lock_guard<std::mutex> lock(mu_);
    return first_violation_;
  }
  // Per-server state below is written only by that server's thread; read
  // it only after the runtime is shut down.
  bool seen(ServerId s, std::size_t id) const { return seen_[s][id] != 0; }
  std::int64_t inserted_ns(ServerId s, std::size_t id) const {
    return inserted_ns_[s][id];
  }
  const std::vector<std::int64_t>& probe_waits(ServerId s) const {
    return probe_wait_ns_[s];
  }
  void violation(const char* what) {
    if (violations_.fetch_add(1) == 0) {
      std::lock_guard<std::mutex> lock(mu_);
      first_violation_ = what;
    }
  }

 private:
  const std::vector<Request>& reqs_;
  Proto proto_;
  std::int64_t t0_ = 0;
  std::vector<std::atomic<std::uint8_t>> count_;
  std::vector<std::atomic<std::int64_t>> quorum_ns_;
  std::vector<std::atomic<std::int64_t>> local_ns_;
  std::atomic<std::uint64_t> quorum_done_{0};
  std::atomic<std::uint64_t> violations_{0};
  std::mutex mu_;
  std::string first_violation_;
  std::vector<std::vector<std::uint8_t>> seen_;
  std::vector<std::vector<std::int64_t>> last_id_;
  std::vector<std::vector<std::int64_t>> inserted_ns_;
  std::vector<std::vector<std::int64_t>> probe_wait_ns_;
};

// ---------------------------------------------------------------------------
// Trace hooks: a timing ProtocolFactory and a recording StorageSink
// ---------------------------------------------------------------------------

struct ProtoTimers {
  std::atomic<std::uint64_t> step_ns{0}, steps{0}, clone_ns{0}, clones{0};
};

class TimedProcess final : public Process {
 public:
  TimedProcess(std::unique_ptr<Process> inner, ProtoTimers& timers)
      : inner_(std::move(inner)), timers_(timers) {}

  ServerId self() const override { return inner_->self(); }
  std::unique_ptr<Process> clone() const override {
    const std::int64_t t = now_ns();
    auto copy = inner_->clone();
    timers_.clone_ns.fetch_add(now_ns() - t, std::memory_order_relaxed);
    timers_.clones.fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<TimedProcess>(std::move(copy), timers_);
  }
  StepResult on_request(const Bytes& request) override {
    const std::int64_t t = now_ns();
    StepResult r = inner_->on_request(request);
    count_step(t);
    return r;
  }
  StepResult on_message(const Message& message) override {
    const std::int64_t t = now_ns();
    StepResult r = inner_->on_message(message);
    count_step(t);
    return r;
  }
  Bytes state_digest() const override { return inner_->state_digest(); }
  Bytes serialize() const override { return inner_->serialize(); }

 private:
  void count_step(std::int64_t t) const {
    timers_.step_ns.fetch_add(now_ns() - t, std::memory_order_relaxed);
    timers_.steps.fetch_add(1, std::memory_order_relaxed);
  }

  std::unique_ptr<Process> inner_;
  ProtoTimers& timers_;
};

class TimedFactory final : public ProtocolFactory {
 public:
  TimedFactory(const ProtocolFactory& inner, ProtoTimers& timers)
      : inner_(inner), timers_(timers) {}

  std::unique_ptr<Process> create(Label label, ServerId self,
                                  std::uint32_t n_servers) const override {
    return std::make_unique<TimedProcess>(inner_.create(label, self, n_servers),
                                          timers_);
  }
  std::unique_ptr<Process> deserialize(Label label, ServerId self,
                                       std::uint32_t n_servers,
                                       const Bytes& state) const override {
    auto p = inner_.deserialize(label, self, n_servers, state);
    if (!p) return nullptr;
    return std::make_unique<TimedProcess>(std::move(p), timers_);
  }
  const char* name() const override { return inner_.name(); }

 private:
  const ProtocolFactory& inner_;
  ProtoTimers& timers_;
};

// Recorder of server 0's blocks in insertion order (the offline replay's
// input); written on server 0's thread, read after shutdown.
struct BlockRecorder {
  std::vector<BlockPtr> blocks;
};

// Forwards to a DataDir; in traced runs it also reports each appended
// block (appends happen at DAG insertion) to the tracker and recorder.
class RecordingSink final : public sync::StorageSink {
 public:
  RecordingSink(std::string dir, ServerId self, Tracker* tracker,
                BlockRecorder* recorder)
      : dir_(std::move(dir)), self_(self), tracker_(tracker),
        recorder_(recorder) {}

  bool ok() const { return dir_.ok(); }
  bool store_checkpoint(std::uint64_t epoch, const Bytes& bytes) override {
    return dir_.store_checkpoint(epoch, bytes);
  }
  bool append_block(sync::LogKind kind, const Bytes& payload) override {
    if (tracker_ != nullptr) {
      if (auto block = Block::decode(payload)) {
        tracker_->on_block(self_, *block);
        if (recorder_ != nullptr) {
          recorder_->blocks.push_back(
              std::make_shared<const Block>(std::move(*block)));
        }
      }
    }
    return dir_.append_block(kind, payload);
  }
  bool load_latest(std::uint64_t& epoch, Bytes& checkpoint,
                   std::vector<sync::LogRecord>& log) override {
    return dir_.load_latest(epoch, checkpoint, log);
  }

 private:
  sync::DataDir dir_;
  ServerId self_;
  Tracker* tracker_;
  BlockRecorder* recorder_;
};

// ---------------------------------------------------------------------------
// One fresh cluster
// ---------------------------------------------------------------------------

struct Hooks {
  bool trace = false;
  BlockRecorder* recorder = nullptr;  // server 0's blocks (trace only)
};

// Members are destroyed in reverse order: the runtime (whose threads call
// into the tracker and the sinks) goes first.
struct LiveCluster {
  std::unique_ptr<Tracker> tracker;
  std::vector<std::unique_ptr<RecordingSink>> sinks;
  std::unique_ptr<rt::ThreadedRuntime> runtime;
  std::int64_t setup_ns = 0;
  bool ok = false;
};

std::string g_tmp_root;
int g_cluster_seq = 0;

rt::ThreadedConfig config_for(const Workload& w, std::uint64_t seed) {
  rt::ThreadedConfig cfg;
  cfg.n_servers = kServers;
  cfg.seed = seed;
  cfg.sig_scheme = w.sig;
  cfg.backend = w.backend;
  cfg.pacing.interval = sim_ms(w.beat_ms);
  if (w.backend == rt::TransportBackend::kUdp) {
    cfg.udp.fault_seed = seed;
    cfg.udp.default_fault.drop = w.drop;
  }
  if (w.storage) cfg.checkpoint.epoch_blocks = w.epoch_blocks;
  return cfg;
}

// Constructs, starts and warms up a cluster. setup_ns runs from the start
// of construction to the warm-up request's indication at n−f servers.
void open_cluster(LiveCluster& c, const Workload& w, const ProtocolFactory& factory,
                  std::uint64_t seed, const std::vector<Request>& reqs,
                  const Hooks& hooks) {
  const Label max_label = w.accounts > 0 ? w.accounts + 1 : reqs.size() + 1;
  c.tracker = std::make_unique<Tracker>(reqs, w.proto, max_label, hooks.trace);
  Tracker& tracker = *c.tracker;
  const std::int64_t t0 = now_ns();
  tracker.set_origin(t0);
  rt::ThreadedConfig cfg = config_for(w, seed);
  if (w.storage) {
    const fs::path root =
        fs::path(g_tmp_root) / ("cluster-" + std::to_string(g_cluster_seq++));
    std::error_code ec;
    fs::remove_all(root, ec);
    fs::create_directories(root, ec);
    for (ServerId s = 0; s < kServers; ++s) {
      c.sinks.push_back(std::make_unique<RecordingSink>(
          (root / ("s" + std::to_string(s))).string(), s,
          hooks.trace ? &tracker : nullptr,
          s == 0 ? hooks.recorder : nullptr));
      if (!c.sinks.back()->ok()) return;
    }
    cfg.storage = [&c](ServerId s) -> sync::StorageSink* {
      return c.sinks[s].get();
    };
  }
  c.runtime = std::make_unique<rt::ThreadedRuntime>(factory, cfg);
  rt::ThreadedRuntime& runtime = *c.runtime;
  if (!runtime.transport_ok()) return;
  for (ServerId s = 0; s < kServers; ++s) {
    BlockRecorder* recorder = s == 0 ? hooks.recorder : nullptr;
    const bool sink = hooks.trace && !w.storage;
    runtime.call(s, [&tracker, s, sink, recorder](Shim& shim) {
      shim.set_indication_handler([&tracker, s](Label label, const Bytes& ind) {
        tracker.on_indication(s, label, ind);
      });
      if (sink) {
        shim.set_block_sink([&tracker, s, recorder](const BlockPtr& block) {
          tracker.on_block(s, *block);
          if (recorder != nullptr) recorder->blocks.push_back(block);
        });
      }
    });
  }
  runtime.start();
  runtime.request(reqs[0].home, reqs[0].label, reqs[0].request);
  const std::int64_t deadline = t0 + 30'000'000'000LL;
  while (tracker.quorum_ns(0) < 0) {
    if (now_ns() > deadline) return;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  c.setup_ns = tracker.quorum_ns(0);
  c.ok = true;
}

// ---------------------------------------------------------------------------
// Open-loop sending and phase statistics
// ---------------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

// Mean of the smallest `share` of the values (at least one).
double fastest_mean(std::vector<double> v, double share) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = std::max<std::size_t>(1, static_cast<std::size_t>(share * v.size()));
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) sum += v[i];
  return sum / static_cast<double>(n);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// Runs `fn` in a forked child and returns the numbers it produced. The
// parent never starts a cluster of its own in an untraced run, so it is
// single-threaded at every fork: each cluster starts in a fresh process with
// a fresh heap, and the child's peak RSS is that cluster's alone. nullopt
// if the child crashed or exited non-zero.
std::optional<std::vector<double>> in_child(
    const std::function<std::vector<double>()>& fn) {
  int fds[2];
  if (::pipe(fds) != 0) return std::nullopt;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    // Die with the parent: a killed run must not leave clusters running.
    if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || ::getppid() != parent) {
      ::_exit(1);
    }
    ::close(fds[0]);
    const std::vector<double> out = fn();
    const std::uint64_t n = out.size();
    bool ok = ::write(fds[1], &n, sizeof n) == static_cast<ssize_t>(sizeof n);
    const char* p = reinterpret_cast<const char*>(out.data());
    std::size_t left = n * sizeof(double);
    while (ok && left > 0) {
      const ssize_t w = ::write(fds[1], p, left);
      ok = w > 0;
      if (ok) {
        p += w;
        left -= static_cast<std::size_t>(w);
      }
    }
    ::close(fds[1]);
    std::fflush(stderr);
    ::_exit(ok ? 0 : 1);
  }
  ::close(fds[1]);
  std::vector<char> bytes;
  char buf[1 << 16];
  while (true) {
    const ssize_t r = ::read(fds[0], buf, sizeof buf);
    if (r > 0) bytes.insert(bytes.end(), buf, buf + r);
    else if (r == 0 || errno != EINTR) break;
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  std::uint64_t n = 0;
  if (bytes.size() < sizeof n) return std::nullopt;
  std::memcpy(&n, bytes.data(), sizeof n);
  if (bytes.size() != sizeof n + n * sizeof(double)) return std::nullopt;
  std::vector<double> out(n);
  std::memcpy(out.data(), bytes.data() + sizeof n, n * sizeof(double));
  return out;
}

struct PhaseResult {
  std::size_t sent = 0;       // timed requests (warm-up excluded)
  std::size_t delivered = 0;  // quorum-delivered by the drain deadline
  std::vector<double> quorum_ms, local_ms, late_ms, send_ms;
  double cpu_s = 0;           // process CPU from first send to drain end
  double wall_s = 0;
  double quorum_p50 = 0, quorum_p99 = 0, local_p50 = 0, late_p99 = 0, send_p99 = 0;
  double backlog_ratio = 0;   // last-fifth p50 ÷ first-fifth p50
  bool rt_generator = false;  // the generator ran under SCHED_FIFO
};

// While alive, the calling thread runs under SCHED_FIFO (when the process
// may do so), so the open-loop generator wakes on time even while the
// cluster's own threads keep every CPU busy; it sleeps between sends, so it
// takes almost no CPU from them. Restores the previous policy on exit.
class GeneratorPriority {
 public:
  GeneratorPriority() {
    pthread_getschedparam(pthread_self(), &policy_, &param_);
    sched_param fifo{};
    fifo.sched_priority = 1;
    raised_ = pthread_setschedparam(pthread_self(), SCHED_FIFO, &fifo) == 0;
  }
  ~GeneratorPriority() {
    if (raised_) pthread_setschedparam(pthread_self(), policy_, &param_);
  }
  GeneratorPriority(const GeneratorPriority&) = delete;
  GeneratorPriority& operator=(const GeneratorPriority&) = delete;
  bool raised() const { return raised_; }

 private:
  int policy_ = SCHED_OTHER;
  sched_param param_{};
  bool raised_ = false;
};

// Sends reqs[1..] on schedule (probing the mailboxes every `probe_every_ns`
// when > 0), then waits until every request reached a quorum or the drain
// deadline passed. Requests still short of a quorum count as undelivered;
// their latency is taken as the deadline (a lower bound).
PhaseResult run_phase(LiveCluster& c, std::vector<Request>& reqs,
                      double drain_seconds, std::int64_t probe_every_ns = 0) {
  Tracker& tracker = *c.tracker;
  rt::ThreadedRuntime& runtime = *c.runtime;
  PhaseResult out;
  out.sent = reqs.size() - 1;
  // Re-base the schedule: the phase starts now, after set-up.
  const std::int64_t start = now_ns() - tracker.origin() + 1'000'000;
  const double cpu0 = cpu_seconds();
  std::int64_t next_probe = start;
  ServerId probe_target = 0;
  std::optional<GeneratorPriority> priority(std::in_place);
  out.rt_generator = priority->raised();
  for (std::size_t i = 1; i < reqs.size(); ++i) {
    Request& r = reqs[i];
    r.due_ns += start;
    std::int64_t asleep = 0;  // when the last sleep before this send began
    while (true) {
      const std::int64_t due = probe_every_ns > 0 ? std::min(next_probe, r.due_ns)
                                                  : r.due_ns;
      asleep = now_ns() - tracker.origin();
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(tracker.origin() + due)));
      if (probe_every_ns > 0 && next_probe <= r.due_ns) {
        const std::int64_t enq = now_ns();
        const ServerId s = probe_target;
        runtime.post(s, [&tracker, s, enq] { tracker.on_probe(s, enq); });
        probe_target = (probe_target + 1) % kServers;
        next_probe += probe_every_ns;
        continue;
      }
      break;
    }
    // Host lateness: how long after its due time (or after it went to
    // sleep, when the previous request() returned past this one's due time)
    // the generator woke. Time spent inside request() is the system's own
    // send path; it is timed separately and counts in the request latency.
    const std::int64_t woke = now_ns() - tracker.origin();
    out.late_ms.push_back(ms(woke - std::max(r.due_ns, asleep)));
    runtime.request(r.home, r.label, std::move(r.request));
    out.send_ms.push_back(ms(now_ns() - tracker.origin() - woke));
  }
  priority.reset();
  const std::int64_t last_due = reqs.back().due_ns;
  const std::int64_t deadline =
      last_due + static_cast<std::int64_t>(drain_seconds * 1e9);
  while (tracker.quorum_done() < reqs.size() &&
         now_ns() - tracker.origin() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  out.cpu_s = cpu_seconds() - cpu0;
  out.wall_s = ms(now_ns() - tracker.origin() - start) / 1e3;
  std::vector<double> first, last;
  const std::size_t fifth = std::max<std::size_t>(1, out.sent / 5);
  for (std::size_t i = 1; i < reqs.size(); ++i) {
    const std::int64_t q = tracker.quorum_ns(i);
    double lat;
    if (q >= 0 && q <= deadline) {
      ++out.delivered;
      lat = ms(q - reqs[i].due_ns);
    } else {
      lat = ms(deadline - reqs[i].due_ns);
    }
    out.quorum_ms.push_back(lat);
    if (i <= fifth) first.push_back(lat);
    if (i > out.sent - fifth) last.push_back(lat);
    const std::int64_t l = tracker.local_ns(i);
    if (l >= 0) out.local_ms.push_back(ms(l - reqs[i].due_ns));
  }
  out.quorum_p50 = quantile(out.quorum_ms, 0.5);
  out.quorum_p99 = quantile(out.quorum_ms, 0.99);
  out.local_p50 = quantile(out.local_ms, 0.5);
  out.late_p99 = quantile(out.late_ms, 0.99);
  out.send_p99 = quantile(out.send_ms, 0.99);
  const double f50 = quantile(first, 0.5);
  out.backlog_ratio = f50 > 0 ? quantile(last, 0.5) / f50 : 0.0;
  return out;
}

// The correctness gate after a nominal phase: drains to the joint-DAG fixed
// point, compares digests, shuts the runtime down, then checks that every
// server delivered every request exactly once (BRB totality and
// no-duplication; integrity and FIFO order were checked per indication).
// Returns the number of requests that failed the gate.
std::size_t gate(LiveCluster& c, const std::vector<Request>& reqs,
                 std::string& why) {
  rt::ThreadedRuntime& runtime = *c.runtime;
  std::size_t failed = 0;
  const bool converged = runtime.quiesce_and_converge(256);
  runtime.shutdown();
  if (!converged) {
    why = "quiesce_and_converge did not reach a fixed point";
    failed = reqs.size();
  } else {
    // After shutdown() call() runs on the caller's thread, so the four
    // servers' digests are computed side by side, one helper each.
    std::vector<std::pair<Bytes, Bytes>> digests(kServers);
    std::vector<std::thread> helpers;
    for (ServerId s = 0; s < kServers; ++s) {
      helpers.emplace_back([&runtime, &digests, s] {
        digests[s] = {runtime.dag_digest(s), runtime.interpretation_digest(s)};
      });
    }
    for (std::thread& t : helpers) t.join();
    for (ServerId s = 1; s < kServers; ++s) {
      if (digests[s] != digests[0]) {
        why = "servers disagree on the DAG or its interpretation digest";
        failed = reqs.size();
      }
    }
  }
  if (failed == 0) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      bool all = true;
      for (ServerId s = 0; s < kServers; ++s) all = all && c.tracker->seen(s, i);
      if (!all) {
        ++failed;
        if (why.empty()) why = "a request was not delivered at every server";
      }
    }
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_str(metrics[i].name) + ": {\"value\": " +
           json_num(metrics[i].value) + ", \"unit\": " +
           json_str(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (!out.empty()) out += ",";
    out += std::to_string(cpu);
  }
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string tmp;
  std::string commit = "unknown";
};

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") o.workload = val;
    else if (key == "--seed") o.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") o.seconds = std::atof(val.c_str());
    else if (key == "--trace") o.trace = std::atoi(val.c_str());
    else if (key == "--tmp") o.tmp = val;
    else if (key == "--commit") o.commit = val;
    else return std::nullopt;
  }
  if (argc % 2 != 1 || o.workload.empty() || o.tmp.empty() || o.seconds <= 0 ||
      (o.trace != 0 && o.trace != 1)) {
    return std::nullopt;
  }
  return o;
}

// ---------------------------------------------------------------------------
// Capacity ladder
// ---------------------------------------------------------------------------

const ProtocolFactory& base_factory(Proto proto) {
  static const brb::BrbFactory brb_factory;
  static const fifo::FifoBrbFactory fifo_factory;
  return proto == Proto::kBrb ? static_cast<const ProtocolFactory&>(brb_factory)
                              : fifo_factory;
}

struct Rung {
  double rate = 0;
  double p99 = 0;
  double backlog = 0;
  std::size_t undelivered = 0;
  bool pass = false;  // p99 within the limit, no backlog growth, all delivered
};

struct Ladder {
  std::vector<Rung> rungs;  // in the order run
  double capacity = 0;      // highest passing rate; 0 when no rung passed
  std::uint64_t attempted = 0;
  std::uint64_t violations = 0;
  std::string why;
};

// One capacity rung on a fresh cluster, in a child process (in_child).
Rung run_rung(const Workload& w, const ProtocolFactory& factory,
              std::uint64_t seed, int k, Ladder& out) {
  Rung r;
  r.rate = rung_rate(w, k);
  const auto packed = in_child([&]() -> std::vector<double> {
    // Left running, with the requests its indication handlers read: the
    // child exits as soon as the numbers are out (see run_segment's `leak`).
    std::vector<Request>& reqs = *new std::vector<Request>(
        generate(w, seed, 1000 + static_cast<std::uint64_t>(k), r.rate, kRungSeconds));
    LiveCluster& c = *new LiveCluster;
    open_cluster(c, w, factory, seed, reqs, Hooks{});
    if (!c.ok) {
      std::fprintf(stderr, "perfbench: capacity rung cluster failed to start\n");
      return {};
    }
    const PhaseResult p = run_phase(c, reqs, kRungDrainSeconds);
    if (c.tracker->violations() > 0) {
      std::fprintf(stderr, "perfbench: capacity rung: %s\n",
                   c.tracker->first_violation().c_str());
    }
    return {p.quorum_p99, p.backlog_ratio, static_cast<double>(p.sent - p.delivered),
            static_cast<double>(reqs.size()), static_cast<double>(c.tracker->violations())};
  });
  if (!packed || packed->size() != 5) {
    ++out.violations;
    out.why = "capacity rung process failed";
    return r;
  }
  const std::vector<double>& v = *packed;
  r.p99 = v[0];
  r.backlog = v[1];
  r.undelivered = static_cast<std::size_t>(v[2]);
  r.pass = r.p99 <= w.limit_ms && r.backlog <= kBacklogFactor && r.undelivered == 0;
  out.attempted += static_cast<std::uint64_t>(v[3]);
  if (v[4] > 0) {
    out.violations += static_cast<std::uint64_t>(v[4]);
    out.why = "capacity rung failed the integrity check (see stderr)";
  }
  return r;
}

// capacity_rps: the fixed geometric ladder is climbed from its lowest rate
// until a rung fails; the capacity is the highest rate that passed.
Ladder climb(const Workload& w, std::uint64_t seed) {
  Ladder ladder;
  for (int k = 0; k < kLadderRungs; ++k) {
    ladder.rungs.push_back(run_rung(w, base_factory(w.proto), seed, k, ladder));
    if (!ladder.rungs.back().pass) break;
    ladder.capacity = ladder.rungs.back().rate;
  }
  return ladder;
}

// ---------------------------------------------------------------------------
// Nominal segments
// ---------------------------------------------------------------------------

// Runtime counters read right after a traced segment drained (before the
// gate's convergence rounds add traffic of their own).
struct LiveCounters {
  InterpreterStats interp;
  VerifierPoolStats verifier;
  WireMetrics wire;
  std::uint64_t blocks_inserted = 0, blocks_received = 0, fwd_requests = 0;
  std::uint64_t rejected = 0, checkpoints = 0, blocks_logged = 0;
  double envelopes_per_frame = 0, envelopes_per_writev = 0, retransmit_ratio = 0;
};

LiveCounters read_counters(rt::ThreadedRuntime& runtime) {
  LiveCounters c;
  c.interp = runtime.interpreter_stats();
  c.verifier = runtime.verifier_stats();
  c.wire = runtime.wire_metrics();
  c.blocks_inserted = runtime.total_blocks_inserted();
  c.rejected = runtime.total_blocks_rejected();
  for (ServerId s = 0; s < kServers; ++s) {
    const GossipStats g = runtime.call(s, [](Shim& shim) { return shim.gossip().stats(); });
    c.blocks_received += g.blocks_received;
    c.fwd_requests += g.fwd_requests_sent;
    const auto snap = runtime.sync_snapshot(s);
    c.checkpoints += snap.checkpointer.checkpoints_stored;
    c.blocks_logged += snap.checkpointer.blocks_logged;
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  if (rt::TcpTransport* tcp = runtime.tcp()) {
    const rt::TcpStats t = tcp->stats();
    const double envelopes = static_cast<double>(t.frames_sent - t.batches_sent +
                                                 t.batched_envelopes);
    c.envelopes_per_frame = ratio(envelopes, t.frames_sent);
    c.envelopes_per_writev = ratio(envelopes, t.writev_calls);
  }
  if (rt::UdpTransport* udp = runtime.udp()) {
    const rt::UdpStats u = udp->stats();
    const double envelopes = static_cast<double>(u.frames_sent - u.batches_sent +
                                                 u.batched_envelopes);
    c.envelopes_per_frame = ratio(envelopes, u.frames_sent);
    c.retransmit_ratio = ratio(u.retransmits, u.datagrams_sent);
  }
  return c;
}

struct Segment {
  PhaseResult phase;
  double setup_s = 0;
  std::size_t workers = 0;
  bool pool_on = false;
  std::uint64_t failed = 0;  // undelivered by the deadline + gate failures
  std::string why;
  double rss_mb = 0;         // peak RSS of the segment's own process
  double elapsed_s = 0;      // wall time of the whole segment, gate included
  LiveCounters counters;     // traced segments only
  std::vector<BlockPtr> server0_blocks;
  struct Stages {
    std::vector<double> inscribe, spread, decide, total;
    double quorum_mean = 0;  // over every quorum-delivered request
  } stages;
  std::vector<double> probe_wait_us;
};

// One nominal segment on a fresh cluster: set-up, open-loop phase, drain,
// correctness gate. Traced segments run P through a timing factory, stamp
// block insertions, probe the mailboxes and keep server 0's blocks.
// With `leak` (a child process that exits right after) the cluster is not
// torn down: freeing every block's interpretation state takes longer than
// the process exit that reclaims it anyway.
Segment run_segment(const Workload& w, std::uint64_t seed, std::uint64_t stream,
                    double seconds, bool trace, ProtoTimers* timers, bool leak) {
  Segment seg;
  std::vector<Request> reqs = generate(w, seed, stream, w.nominal_rps, seconds);
  std::optional<TimedFactory> timed;
  if (trace) timed.emplace(base_factory(w.proto), *timers);
  auto owned = std::make_unique<LiveCluster>();
  LiveCluster& c = *owned;
  if (leak) owned.release();
  const ProtocolFactory& factory =
      trace ? static_cast<const ProtocolFactory&>(*timed) : base_factory(w.proto);
  BlockRecorder recorder;
  Hooks hooks;
  hooks.trace = trace;
  hooks.recorder = trace ? &recorder : nullptr;
  open_cluster(c, w, factory, seed, reqs, hooks);
  if (!c.ok) {
    seg.failed = reqs.size();
    seg.why = "cluster failed to start";
    return seg;
  }
  seg.setup_s = c.setup_ns / 1e9;
  seg.workers = c.runtime->interpret_workers();
  seg.phase = run_phase(c, reqs, kDrainSeconds, trace ? 1'000'000 : 0);
  seg.pool_on = c.runtime->verifier_stats().submitted > 0;
  if (trace) seg.counters = read_counters(*c.runtime);
  seg.failed = seg.phase.sent - seg.phase.delivered;
  const std::size_t gate_failed = gate(c, reqs, seg.why);
  seg.failed = std::max<std::uint64_t>(seg.failed, gate_failed);
  if (c.tracker->violations() > 0) {
    seg.failed += c.tracker->violations();
    seg.why = c.tracker->first_violation();
  }
  if (trace) {
    const Tracker& t = *c.tracker;
    double quorum_sum = 0;
    std::size_t quorum_n = 0;
    for (std::size_t i = 1; i < reqs.size(); ++i) {
      const std::int64_t q = t.quorum_ns(i);
      if (q < 0) continue;
      quorum_sum += ms(q - reqs[i].due_ns);
      ++quorum_n;
      std::vector<std::int64_t> ins;
      for (ServerId s = 0; s < kServers; ++s) {
        if (t.inserted_ns(s, i) >= 0) ins.push_back(t.inserted_ns(s, i));
      }
      const std::int64_t home = t.inserted_ns(reqs[i].home, i);
      if (ins.size() < kQuorum || home < 0) continue;
      std::sort(ins.begin(), ins.end());
      const std::int64_t third = ins[kQuorum - 1];
      seg.stages.inscribe.push_back(ms(home - reqs[i].due_ns));
      seg.stages.spread.push_back(ms(third - home));
      seg.stages.decide.push_back(ms(q - third));
      seg.stages.total.push_back(ms(q - reqs[i].due_ns));
    }
    seg.stages.quorum_mean = quorum_n ? quorum_sum / quorum_n : 0;
    for (ServerId s = 0; s < kServers; ++s) {
      for (const std::int64_t ns : t.probe_waits(s)) {
        seg.probe_wait_us.push_back(ns / 1e3);
      }
    }
    seg.server0_blocks = std::move(recorder.blocks);
  }
  return seg;
}

// An untraced segment in a child process (in_child), marshalled as numbers.
Segment run_segment_isolated(const Workload& w, std::uint64_t seed,
                             std::uint64_t stream, double seconds) {
  const auto packed = in_child([&] {
    const Segment seg = run_segment(w, seed, stream, seconds, false, nullptr, true);
    if (seg.failed > 0) {
      std::fprintf(stderr, "perfbench: nominal segment %llu: %s\n",
                   static_cast<unsigned long long>(stream),
                   seg.why.empty() ? "requests not delivered by the drain deadline"
                                   : seg.why.c_str());
    }
    const PhaseResult& p = seg.phase;
    std::vector<double> out = {seg.setup_s, static_cast<double>(seg.workers),
                               seg.pool_on ? 1.0 : 0.0, static_cast<double>(seg.failed),
                               static_cast<double>(p.sent),
                               static_cast<double>(p.delivered), p.cpu_s, p.wall_s,
                               p.backlog_ratio, rss_peak_mb(),
                               p.rt_generator ? 1.0 : 0.0};
    for (const std::vector<double>* v :
         {&p.quorum_ms, &p.local_ms, &p.late_ms, &p.send_ms}) {
      out.push_back(static_cast<double>(v->size()));
      out.insert(out.end(), v->begin(), v->end());
    }
    return out;
  });
  Segment seg;
  constexpr std::size_t kScalars = 11;
  if (!packed || packed->size() < kScalars) {
    seg.failed = 1;
    seg.why = "nominal segment process failed";
    return seg;
  }
  const std::vector<double>& v = *packed;
  seg.setup_s = v[0];
  seg.workers = static_cast<std::size_t>(v[1]);
  seg.pool_on = v[2] != 0;
  seg.failed = static_cast<std::uint64_t>(v[3]);
  if (seg.failed > 0) seg.why = "nominal segment failed the gate (see stderr)";
  PhaseResult& p = seg.phase;
  p.sent = static_cast<std::size_t>(v[4]);
  p.delivered = static_cast<std::size_t>(v[5]);
  p.cpu_s = v[6];
  p.wall_s = v[7];
  p.backlog_ratio = v[8];
  seg.rss_mb = v[9];
  p.rt_generator = v[10] != 0;
  std::size_t i = kScalars;
  for (std::vector<double>* dst : {&p.quorum_ms, &p.local_ms, &p.late_ms, &p.send_ms}) {
    const std::size_t n = i < v.size() ? static_cast<std::size_t>(v[i++]) : 0;
    if (i + n > v.size()) break;
    dst->assign(v.begin() + static_cast<std::ptrdiff_t>(i),
                v.begin() + static_cast<std::ptrdiff_t>(i + n));
    i += n;
  }
  p.quorum_p50 = quantile(p.quorum_ms, 0.5);
  p.quorum_p99 = quantile(p.quorum_ms, 0.99);
  p.local_p50 = quantile(p.local_ms, 0.5);
  p.late_p99 = quantile(p.late_ms, 0.99);
  p.send_p99 = quantile(p.send_ms, 0.99);
  return seg;
}

// Pools several segments' samples into one PhaseResult.
PhaseResult pool(const std::vector<Segment>& segs) {
  PhaseResult out;
  std::vector<double> backlog;
  for (const Segment& s : segs) {
    const PhaseResult& p = s.phase;
    out.sent += p.sent;
    out.delivered += p.delivered;
    out.cpu_s += p.cpu_s;
    out.wall_s += p.wall_s;
    out.quorum_ms.insert(out.quorum_ms.end(), p.quorum_ms.begin(), p.quorum_ms.end());
    out.local_ms.insert(out.local_ms.end(), p.local_ms.begin(), p.local_ms.end());
    out.late_ms.insert(out.late_ms.end(), p.late_ms.begin(), p.late_ms.end());
    out.send_ms.insert(out.send_ms.end(), p.send_ms.begin(), p.send_ms.end());
    backlog.push_back(p.backlog_ratio);
  }
  out.quorum_p50 = quantile(out.quorum_ms, 0.5);
  out.quorum_p99 = quantile(out.quorum_ms, 0.99);
  out.local_p50 = quantile(out.local_ms, 0.5);
  out.late_p99 = quantile(out.late_ms, 0.99);
  out.send_p99 = quantile(out.send_ms, 0.99);
  out.backlog_ratio = median(backlog);
  return out;
}

// ---------------------------------------------------------------------------
// Offline replay of server 0's recorded DAG through each layer
// ---------------------------------------------------------------------------

struct Replay {
  std::size_t blocks = 0;
  double encode_us = 0, decode_us = 0, hash_us = 0, sign_us = 0, verify_us = 0;
  double validate_us = 0, insert_us = 0, block_us = 0, engine_block_us = 0;
  double append_us = 0;
  bool ok = true;
  std::string why;
};

constexpr double kReplayPassSeconds = 2.0;  // cap per interpretation pass

Replay replay(const std::vector<BlockPtr>& blocks, const Workload& w,
              std::uint64_t seed, std::size_t workers) {
  Replay out;
  out.blocks = blocks.size();
  if (blocks.empty()) return out;
  const double n = static_cast<double>(blocks.size());
  auto sigs = make_signature_provider(w.sig, kServers, seed);
  std::int64_t enc = 0, dec = 0, hash = 0, sign = 0, verify = 0;
  for (const BlockPtr& b : blocks) {
    std::int64_t t = now_ns();
    const Bytes wire = b->encode();
    enc += now_ns() - t;
    t = now_ns();
    const auto back = Block::decode(wire);
    dec += now_ns() - t;
    t = now_ns();
    const Hash256 ref = Block::compute_ref(b->n(), b->k(), b->preds(), b->rs());
    hash += now_ns() - t;
    t = now_ns();
    const Bytes sigma = sigs->sign(b->n(), ref.span());
    sign += now_ns() - t;
    t = now_ns();
    const bool good = sigs->verify(b->n(), ref.span(), b->sigma());
    verify += now_ns() - t;
    if (!back || !(*back == *b) || ref != b->ref() || !good || sigma.empty()) {
      out.ok = false;
      out.why = "replayed block failed to round-trip, hash or verify";
    }
  }
  out.encode_us = enc / 1e3 / n;
  out.decode_us = dec / 1e3 / n;
  out.hash_us = hash / 1e3 / n;
  out.sign_us = sign / 1e3 / n;
  out.verify_us = verify / 1e3 / n;

  {
    BlockDag dag;
    Validator validator(*sigs);
    std::int64_t val = 0, ins = 0;
    for (const BlockPtr& b : blocks) {
      std::int64_t t = now_ns();
      const ValidityError err = validator.check(*b, dag);
      val += now_ns() - t;
      t = now_ns();
      const bool inserted = dag.insert(b);
      ins += now_ns() - t;
      if (err != ValidityError::kOk || !inserted) {
        out.ok = false;
        out.why = "replayed block failed validation or insertion";
      }
    }
    out.validate_us = val / 1e3 / n;
    out.insert_us = ins / 1e3 / n;
  }

  // Interpretation, serial and through the engine at the resolved worker
  // count, one block at a time (as gossip delivers them). Each pass stops
  // after kReplayPassSeconds; both passes then cover the same prefix and
  // must agree on the interpretation digest.
  const ProtocolFactory& factory = base_factory(w.proto);
  std::size_t prefix = blocks.size();
  Bytes serial_digest;
  {
    BlockDag dag;
    Interpreter interp(dag, factory, kServers);
    std::int64_t busy = 0;
    const std::int64_t stop = now_ns() + static_cast<std::int64_t>(kReplayPassSeconds * 1e9);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      dag.insert(blocks[i]);
      const std::int64_t t = now_ns();
      interp.run();
      busy += now_ns() - t;
      if (now_ns() > stop) {
        prefix = i + 1;
        break;
      }
    }
    out.block_us = busy / 1e3 / prefix;
    serial_digest = rt::interpretation_digest(interp, dag);
  }
  {
    ParallelInterpretConfig pc;
    pc.workers = workers;
    ParallelInterpreter engine(pc);
    engine.start();
    BlockDag dag;
    Interpreter interp(dag, factory, kServers);
    std::int64_t busy = 0;
    for (std::size_t i = 0; i < prefix; ++i) {
      dag.insert(blocks[i]);
      const std::int64_t t = now_ns();
      if (workers > 0) engine.run(interp);
      else interp.run();
      busy += now_ns() - t;
    }
    engine.stop();
    out.engine_block_us = busy / 1e3 / prefix;
    if (rt::interpretation_digest(interp, dag) != serial_digest) {
      out.ok = false;
      out.why = "serial and parallel replay disagree on the interpretation";
    }
  }

  if (w.storage) {
    const fs::path dir = fs::path(g_tmp_root) / "replay-log";
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir.parent_path(), ec);
    sync::DataDir store(dir.string());
    std::int64_t app = 0;
    for (const BlockPtr& b : blocks) {
      const Bytes payload = b->encode();
      const std::int64_t t = now_ns();
      const bool ok = store.append_block(sync::LogKind::kRecvBlock, payload);
      app += now_ns() - t;
      if (!ok) {
        out.ok = false;
        out.why = "DataDir::append_block failed";
      }
    }
    out.append_us = app / 1e3 / n;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Exact-count companion on the deterministic simulator
// ---------------------------------------------------------------------------

struct SimCounts {
  double blocks = 0, envelopes = 0, bytes = 0, msgs = 0;  // per request
  bool ok = true;
};

// Replays the traced segment's generated inputs (same seed, same due times
// as virtual time) on the sim Cluster with the workload's beat, signature
// scheme and loss rate. Every count repeats exactly for a given seed.
SimCounts sim_counts(const Workload& w, std::uint64_t seed, std::uint64_t stream,
                     double seconds) {
  std::vector<Request> reqs = generate(w, seed, stream, w.nominal_rps, seconds);
  ClusterConfig cfg;
  cfg.n_servers = kServers;
  cfg.seed = seed;
  cfg.sig_scheme = w.sig;
  cfg.pacing.interval = sim_ms(w.beat_ms);
  cfg.net.seed = seed;
  cfg.net.drop_probability = w.drop;
  Cluster cluster(base_factory(w.proto), cfg);
  cluster.start();
  for (Request& r : reqs) {
    cluster.run_until(static_cast<SimTime>(r.due_ns));
    cluster.request(r.home, r.label, std::move(r.request));
  }
  cluster.run_for(sim_ms(500));
  SimCounts out;
  out.ok = cluster.quiesce_and_converge();
  for (ServerId s = 0; s < kServers; ++s) {
    out.ok = out.ok && cluster.shim(s).indications().size() == reqs.size();
  }
  const double n = static_cast<double>(reqs.size());
  out.blocks = cluster.shim(0).dag().size() / n;
  out.envelopes = cluster.network().metrics().total_messages() / n;
  out.bytes = cluster.network().metrics().total_bytes() / n;
  out.msgs = cluster.shim(0).interpreter().stats().messages_materialized / n;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = parse_args(argc, argv);
  if (!opt) {
    std::fprintf(stderr,
                 "usage: perfbench --workload broadcast|payments|lossy --seed N "
                 "--seconds S --trace 0|1 --tmp DIR [--commit ID]\n");
    return 2;
  }
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt->workload == w.name) wp = &w;
  }
  if (!wp) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", opt->workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  g_tmp_root = (fs::path(opt->tmp) / ("run-" + std::to_string(::getpid()))).string();
  const int n_segments = std::max(
      kMinSegments, static_cast<int>(std::lround(opt->seconds / kSegmentSeconds)));

  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  std::string why;
  const auto absorb = [&](std::uint64_t sent, std::uint64_t f, const std::string& w_) {
    attempted += sent;
    failed += f;
    if (f > 0 && why.empty()) why = w_;
  };

  // Nominal segments (untraced), each on a fresh cluster in its own
  // process; in a traced run they are the reference the traced segment is
  // compared against. Segments whose generator woke too late are not
  // scored; they are re-run while attempts remain.
  const int untraced = opt->trace ? kReferenceSegments : n_segments;
  const double late_limit = kLateShareOfLimit * w.limit_ms;
  std::vector<Segment> segs;
  std::vector<double> setups;
  int attempts = 0, rejected = 0;
  while (static_cast<int>(segs.size()) < untraced && attempts < kMaxAttempts * untraced) {
    const std::int64_t t0 = now_ns();
    Segment s = run_segment_isolated(w, opt->seed, 1 + attempts++, kSegmentSeconds);
    s.elapsed_s = ms(now_ns() - t0) / 1e3;
    absorb(s.phase.sent + 1, s.failed, s.why);
    setups.push_back(s.setup_s);
    if (s.phase.late_p99 > late_limit) {
      ++rejected;
      continue;
    }
    segs.push_back(std::move(s));
  }
  const bool valid = static_cast<int>(segs.size()) == untraced;
  if (!valid) {
    std::error_code ec;
    fs::remove_all(g_tmp_root, ec);
    std::fprintf(stderr,
                 "perfbench: only %zu of %d nominal segments kept the generator's "
                 "p99 lateness within %.1f ms in %d attempts; the host was too busy "
                 "and this run is invalid\n",
                 segs.size(), untraced, late_limit, attempts);
    if (failed == 0) return kInvalidExit;
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n", why.c_str());
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {}}\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    return 1;
  }
  const PhaseResult nom = pool(segs);
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  // Per-segment figures; the reported ones are their medians.
  std::vector<double> seg_local50, seg_q50, seg_cpu, seg_rss;
  std::string per_segment;
  for (const Segment& sg : segs) {
    seg_local50.push_back(sg.phase.local_p50);
    seg_q50.push_back(sg.phase.quorum_p50);
    seg_cpu.push_back(ratio(sg.phase.cpu_s * 1e3, sg.phase.delivered));
    seg_rss.push_back(sg.rss_mb);
    per_segment += std::string(per_segment.empty() ? "" : ", ") +
                   "{\"setup_s\": " + json_num(sg.setup_s) +
                   ", \"local_p50_ms\": " + json_num(sg.phase.local_p50) +
                   ", \"quorum_p50_ms\": " + json_num(sg.phase.quorum_p50) +
                   ", \"quorum_p99_ms\": " + json_num(sg.phase.quorum_p99) +
                   ", \"cpu_ms_per_req\": " + json_num(seg_cpu.back()) +
                   ", \"rss_mb\": " + json_num(sg.rss_mb) +
                   ", \"gen_late_p99_ms\": " + json_num(sg.phase.late_p99) +
                   ", \"send_p99_ms\": " + json_num(sg.phase.send_p99) +
                   ", \"elapsed_s\": " + json_num(sg.elapsed_s) + "}";
  }
  const double cpu_per_req = median(seg_cpu);

  char buf[2048];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"trace\": %d, \"env\": {\"hardware_threads\": %u, "
                "\"affinity\": \"%s\", \"compiler\": %s, \"build_type\": %s, "
                "\"commit\": %s, \"seed\": %llu, \"seconds\": %s}, "
                "\"resolved\": {\"batching\": %s, \"interpret_workers\": %zu, "
                "\"verifier_pool\": %s, \"sig\": \"%s\", \"generator_sched\": \"%s\"}, "
                "\"nominal\": {\"rate_rps\": %s, \"segments\": %zu, "
                "\"segment_s\": %s, \"samples\": %zu, \"delivered\": %zu, "
                "\"gen_late_p99_ms\": %s, \"send_p99_ms\": %s, \"backlog_ratio\": %s, "
                "\"latency_limit_ms\": %s}",
                w.name, opt->trace, std::thread::hardware_concurrency(),
                affinity_list().c_str(), json_str(PERFBENCH_COMPILER).c_str(),
                json_str(PERFBENCH_BUILD_TYPE).c_str(), json_str(opt->commit).c_str(),
                static_cast<unsigned long long>(opt->seed),
                json_num(opt->seconds).c_str(),
                config_for(w, opt->seed).batching ? "true" : "false",
                segs[0].workers, segs[0].pool_on ? "true" : "false",
                sig_scheme_name(w.sig), segs[0].phase.rt_generator ? "fifo" : "other",
                json_num(w.nominal_rps).c_str(),
                segs.size(), json_num(kSegmentSeconds).c_str(), nom.sent, nom.delivered,
                json_num(nom.late_p99).c_str(), json_num(nom.send_p99).c_str(),
                json_num(nom.backlog_ratio).c_str(), json_num(w.limit_ms).c_str());
  std::string detail = buf;
  // Latency and CPU are reported here, not as scored metrics: on a shared
  // host they follow the host more than the code (perfbench/NOTES.md).
  detail += ", \"late_limit_ms\": " + json_num(late_limit) +
            ", \"rejected_segments\": " + std::to_string(rejected) +
            ", \"unscored\": {\"local_p50_ms\": " + json_num(median(seg_local50)) +
            ", \"quorum_p50_ms\": " + json_num(median(seg_q50)) +
            ", \"quorum_p99_ms\": " + json_num(nom.quorum_p99) +
            ", \"samples\": " + std::to_string(nom.sent) +
            ", \"cpu_ms_per_req\": " + json_num(cpu_per_req) + "}" +
            ", \"segments\": [" + per_segment + "]";

  if (!opt->trace) {
    metrics = {
        {"setup_s", fastest_mean(setups, kSetupShare), "s"},
        {"rss_peak_mb", median(seg_rss), "MB"},
    };
  } else {
    // The ladder's clusters run in child processes, so it goes before the
    // traced segment starts threads in this one.
    const Ladder ladder = climb(w, opt->seed);
    absorb(ladder.attempted, ladder.violations, ladder.why);
    detail += ", \"ladder\": [";
    for (std::size_t i = 0; i < ladder.rungs.size(); ++i) {
      const Rung& r = ladder.rungs[i];
      std::snprintf(buf, sizeof buf,
                    "%s{\"rate_rps\": %s, \"p99_ms\": %s, \"backlog_ratio\": %s, "
                    "\"undelivered\": %zu, \"pass\": %s}",
                    i ? ", " : "", json_num(r.rate).c_str(), json_num(r.p99).c_str(),
                    json_num(r.backlog).c_str(), r.undelivered, r.pass ? "true" : "false");
      detail += buf;
    }
    detail += "]";
    ProtoTimers timers;
    Segment traced = run_segment(w, opt->seed, 1, kSegmentSeconds, true, &timers, false);
    absorb(traced.phase.sent + 1, traced.failed, traced.why);
    const PhaseResult& tp = traced.phase;
    const LiveCounters& lc = traced.counters;
    const double reqs = static_cast<double>(tp.sent + 1);
    const Replay rp = replay(traced.server0_blocks, w, opt->seed, traced.workers);
    if (!rp.ok) absorb(0, 1, rp.why);
    const SimCounts sim = sim_counts(w, opt->seed, 1, kSegmentSeconds);
    if (!sim.ok) absorb(0, 1, "sim replay did not converge with every delivery");

    const auto mean = [](const std::vector<double>& v) {
      double s = 0;
      for (const double x : v) s += x;
      return v.empty() ? 0.0 : s / v.size();
    };
    const Segment::Stages& st = traced.stages;
    const double stage_sum = mean(st.inscribe) + mean(st.spread) + mean(st.decide);
    const double stage_err = 100.0 * std::fabs(stage_sum - st.quorum_mean) /
                             std::max(st.quorum_mean, 1e-9);
    if (stage_err > kStageTolerancePct || st.total.size() < tp.delivered) {
      absorb(0, 1, "stage durations do not add up to quorum latency");
    }
    const double traced_cpu = ratio(tp.cpu_s * 1e3, tp.delivered);
    const InterpreterStats& is = lc.interp;
    const VerifierPoolStats& vs = lc.verifier;
    const double per_server_msgs = is.messages_materialized / double(kServers);
    metrics = {
        {"interpret.block_us", rp.block_us, "us"},
        {"interpret.engine_block_us", rp.engine_block_us, "us"},
        {"interpret.clones_per_block", ratio(is.instance_clones, is.blocks_interpreted), "count"},
        {"interpret.msgs_per_req", ratio(is.messages_materialized, is.requests_processed), "count"},
        {"interpret.parallel_share", ratio(is.parallel_batches, is.parallel_batches + is.serial_batches), "frac"},
        {"interpret.compression_ratio", ratio(per_server_msgs, lc.wire.total_messages()), "ratio"},
        {"protocols.step_us", ratio(timers.step_ns.load() / 1e3, timers.steps.load()), "us"},
        {"protocols.clone_us", ratio(timers.clone_ns.load() / 1e3, timers.clones.load()), "us"},
        {"crypto.sign_us", rp.sign_us, "us"},
        {"crypto.verify_us", rp.verify_us, "us"},
        {"crypto.block_hash_us", rp.hash_us, "us"},
        {"crypto.cache_hit_ratio", ratio(vs.cache_hits, vs.cache_hits + vs.submitted), "frac"},
        {"crypto.verified_per_batch", ratio(vs.verified, vs.batches), "count"},
        {"dag.insert_us", rp.insert_us, "us"},
        {"dag.validate_us", rp.validate_us, "us"},
        {"dag.blocks_per_req", ratio(lc.blocks_inserted / double(kServers), reqs), "count"},
        {"gossip.encode_us", rp.encode_us, "us"},
        {"gossip.decode_us", rp.decode_us, "us"},
        {"gossip.fwd_per_block", ratio(lc.fwd_requests, lc.blocks_received), "ratio"},
        {"gossip.rejected", static_cast<double>(lc.rejected), "count"},
        {"net.envelopes_per_req", ratio(lc.wire.total_messages(), reqs), "count"},
        {"net.bytes_per_req", ratio(lc.wire.total_bytes(), reqs), "B"},
        {"net.dropped", static_cast<double>(lc.wire.dropped), "count"},
        {"net.envelopes_per_frame", lc.envelopes_per_frame, "count"},
        {"net.envelopes_per_writev", lc.envelopes_per_writev, "count"},
        {"net.retransmit_ratio", lc.retransmit_ratio, "ratio"},
        {"rt.mailbox_wait_us_p50", quantile(traced.probe_wait_us, 0.5), "us"},
        {"rt.mailbox_wait_us_p99", quantile(traced.probe_wait_us, 0.99), "us"},
        {"shim.inscribe_ms_p50", quantile(st.inscribe, 0.5), "ms"},
        {"shim.spread_ms_p50", quantile(st.spread, 0.5), "ms"},
        {"shim.spread_ms_p99", quantile(st.spread, 0.99), "ms"},
        {"shim.decide_ms_p50", quantile(st.decide, 0.5), "ms"},
        {"shim.stage_sum_error_pct", stage_err, "%"},
        {"sync.checkpoints", static_cast<double>(lc.checkpoints), "count"},
        {"sync.blocks_logged_per_s", ratio(lc.blocks_logged / double(kServers), tp.wall_s), "1/s"},
        {"sync.append_us", rp.append_us, "us"},
        {"sim.blocks_per_req", sim.blocks, "count"},
        {"sim.envelopes_per_req", sim.envelopes, "count"},
        {"sim.bytes_per_req", sim.bytes, "B"},
        {"sim.msgs_per_req", sim.msgs, "count"},
        {"gen.late_p99_ms", tp.late_p99, "ms"},
        {"load.capacity_rps", ladder.capacity, "1/s"},
        {"load.local_p50_ms", nom.local_p50, "ms"},
        {"load.quorum_p50_ms", nom.quorum_p50, "ms"},
        {"load.quorum_p99_ms", nom.quorum_p99, "ms"},
        {"load.cpu_ms_per_req", cpu_per_req, "ms"},
        {"trace.overhead_quorum_p50_pct", 100.0 * ratio(tp.quorum_p50 - nom.quorum_p50, nom.quorum_p50), "%"},
        {"trace.overhead_cpu_pct", 100.0 * ratio(traced_cpu - cpu_per_req, cpu_per_req), "%"},
    };
    std::snprintf(buf, sizeof buf,
                  ", \"traced\": {\"samples\": %zu, \"staged\": %zu, "
                  "\"stage_sum_ms\": %s, \"quorum_mean_ms\": %s, "
                  "\"tolerance_pct\": %s, \"replayed_blocks\": %zu, "
                  "\"untraced_quorum_p50_ms\": %s, \"traced_quorum_p50_ms\": %s, "
                  "\"untraced_cpu_ms_per_req\": %s, \"traced_cpu_ms_per_req\": %s}",
                  tp.sent, st.total.size(), json_num(stage_sum).c_str(),
                  json_num(st.quorum_mean).c_str(), json_num(kStageTolerancePct).c_str(),
                  rp.blocks, json_num(nom.quorum_p50).c_str(),
                  json_num(tp.quorum_p50).c_str(), json_num(cpu_per_req).c_str(),
                  json_num(traced_cpu).c_str());
    detail += buf;
  }
  detail += "}";

  std::error_code ec;
  fs::remove_all(g_tmp_root, ec);
  const bool correct = failed == 0;
  if (!correct) {
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
                 why.empty() ? "requests not delivered by the drain deadline"
                             : why.c_str());
  }
  std::printf("%s\n", detail.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}
