// Shared link layer of the socket transports (DESIGN.md §8, §9, §13).
//
// TcpTransport and UdpTransport differ only in their wire: TCP streams
// frames over per-peer connections drained by writev(), UDP chops them
// into sequenced datagrams behind userspace reliability and a fault
// injector. Everything above the wire is written once, here:
//   * local setup — address and port resolution, one bound nonblocking
//     socket per hosted server, the wake pipe, start()/stop();
//   * the Transport front end — send/broadcast/send_many/broadcast_many
//     stage shared-payload envelopes on per-link queues, charging the wire
//     metrics once per envelope and link. One rule decides when a send
//     wakes the poll thread: iff it made its link's staging queue
//     non-empty (the poll thread empties every staging queue it services,
//     so a non-empty one already has a wakeup pending);
//   * packing — pack_envelopes() turns a staging queue into wire frames
//     (sans-io, see below). Coalescing is the only send path;
//     max_batch_frames = 1 gives one envelope per frame (`--batch off`);
//   * inbound dispatch — each decoded frame becomes one mailbox task; a
//     kBatch is unpacked first and its inner envelopes dispatched in order
//     inside that one task. kControl reaches only the control handler,
//     every other kind only the attached protocol handler;
//   * the poll-thread skeleton — the transport adds its descriptors and
//     services what became ready; waking, the poll timeout and the
//     stop latch live here.
//
// Locking: one mutex (mu_) guards this layer and the derived transport's
// state alike; the poll thread holds it except while blocked in poll(),
// and a pipe write wakes it.
#pragma once

#include <netinet/in.h>
#include <poll.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/transport.h"
#include "rt/mailbox.h"

namespace blockdag::rt {

// Ceilings of one packed wire frame.
struct PackLimits {
  std::size_t max_frames = 64;        // inner envelopes per kBatch; 1 = none
  std::size_t max_bytes = 128u << 10; // kBatch payload ceiling
  std::size_t max_frame_payload = kMaxFramePayload;  // what receivers accept
};

// One encoded wire frame and what it carries.
struct PackedFrame {
  Bytes bytes;                     // header + payload, ready for the wire
  std::uint32_t units = 1;         // envelopes inside (1 = a plain frame)
  std::size_t payload_bytes = 0;   // sum of those envelopes' payload sizes
};

// Greedy pack: drains `staged` front to back into frames sent by `from`,
// preserving order. A lone envelope ships as a plain frame of its own kind
// (whatever its size); two or more coalesce into a kBatch frame while the
// group stays within every ceiling of `limits`.
std::vector<PackedFrame> pack_envelopes(ServerId from,
                                        std::deque<Envelope>& staged,
                                        const PackLimits& limits);

// Counters kept by the shared layer; TcpStats and UdpStats carry them under
// the same names.
struct LinkLayerCounters {
  std::uint64_t frames_received = 0;  // inbound frames dispatched
  std::uint64_t batches_sent = 0;     // kBatch frames packed
  std::uint64_t batched_envelopes = 0;
  std::uint64_t batches_received = 0;
  std::uint64_t batched_envelopes_received = 0;
  // Malformed kBatch payloads: the batch is dropped, the link stays live.
  std::uint64_t batch_decode_failures = 0;
};

class SocketTransport : public Transport {
 public:
  using Clock = std::chrono::steady_clock;

  // What both socket configs have in common.
  struct Setup {
    std::uint32_t n_servers = 0;
    std::string host = "127.0.0.1";  // numeric IPv4 address
    std::uint16_t base_port = 0;     // 0 = ephemeral (all-local clusters)
    std::vector<ServerId> local_servers;  // empty = all
    PackLimits pack{};
  };

  // `mailboxes` is indexed by ServerId and must be non-null exactly for the
  // local servers; pointers must outlive the transport. `idle` (optional)
  // counts staged and in-flight envelopes as outstanding work so
  // wait_idle() covers the send path. The derived constructor binds the
  // sockets (check ok()); no traffic moves until start().
  SocketTransport(Setup setup, std::vector<Mailbox*> mailboxes,
                  IdleTracker* idle);
  ~SocketTransport() override;

  // False if the address was invalid or any local socket failed to bind.
  bool ok() const { return ok_; }
  // Actual port of `server` (resolves ephemeral binds for local servers;
  // base_port + s for remote ones).
  std::uint16_t port_of(ServerId server) const;

  void start();  // launches the poll thread; idempotent
  // Joins the poll thread, drops whatever is still queued and closes every
  // socket; idempotent. Sends from then on are dropped (counted in
  // wire_metrics().dropped, once per envelope and peer).
  void stop();

  // Transport interface.
  void attach(ServerId server, Handler handler) override;
  std::uint32_t size() const override { return n_; }
  void send(ServerId from, ServerId to, WireKind kind, Bytes payload) override;
  void broadcast(ServerId from, WireKind kind, const Bytes& payload) override;
  void send_many(ServerId from, ServerId to,
                 const std::vector<Envelope>& envelopes) override;
  void broadcast_many(ServerId from,
                      const std::vector<Envelope>& envelopes) override;
  WireMetrics wire_metrics() const override;

  // Control plane: frames sent with WireKind::kControl are routed to this
  // handler instead of the attached protocol handler (used by the
  // multi-process runtime for its digest-exchange settle protocol).
  void set_control_handler(ServerId server, Handler handler);

 protected:
  static bool set_nonblocking(int fd);
  static void close_fd(int& fd);

  const std::vector<ServerId>& local_servers() const { return local_; }
  bool is_local(ServerId s) const {
    return s < mailboxes_.size() && mailboxes_[s];
  }
  sockaddr_in address_of(ServerId server) const;
  // For derived constructors: one nonblocking socket of `type` per local
  // server in socket_fds_, bound to address_of(s); `tune` runs on each
  // before bind. An ephemeral bind resolves its port. Sets ok_.
  void bind_local_sockets(int type, void (*tune)(int fd));

  // --- hooks, all called with mu_ held ---
  // The staging queue of link from → to if it admits another envelope of
  // `payload_bytes`, else nullptr (the transport counts the refusal).
  virtual std::deque<Envelope>* admit_locked(ServerId from, ServerId to,
                                             std::size_t payload_bytes) = 0;
  // Appends the descriptors to poll after the wake pipe (fds[0]) and
  // returns the next timed deadline (time_point::max() for none).
  virtual Clock::time_point poll_prepare_locked(
      std::vector<struct pollfd>& fds) = 0;
  // Services fds[1..] after poll() returned.
  virtual void poll_ready_locked(const std::vector<struct pollfd>& fds) = 0;
  // stop(): drop per-link state (releasing its idle units) and close the
  // transport's own descriptors; socket_fds_ are closed afterwards.
  virtual void teardown_locked() = 0;

  // mu_ held. pack_envelopes() with the transport's limits, counting every
  // kBatch in the aggregate and in the link's two counters.
  std::vector<PackedFrame> pack_locked(ServerId from,
                                       std::deque<Envelope>& staged,
                                       std::uint64_t& link_batches,
                                       std::uint64_t& link_batched);
  // mu_ held. Routes one inbound frame from a known server into `owner`'s
  // mailbox (kBatch unpacked, see the header comment).
  void dispatch_locked(ServerId owner, Frame frame);
  void wake();
  // mu_ held. Copies the shared counters into a TcpStats / UdpStats.
  template <typename Stats>
  void add_layer_counters(Stats& stats) const {
    stats.frames_received = layer_.frames_received;
    stats.batches_sent = layer_.batches_sent;
    stats.batched_envelopes = layer_.batched_envelopes;
    stats.batches_received = layer_.batches_received;
    stats.batched_envelopes_received = layer_.batched_envelopes_received;
    stats.batch_decode_failures = layer_.batch_decode_failures;
  }

  const std::uint32_t n_;
  const PackLimits limits_;
  std::vector<Mailbox*> mailboxes_;
  IdleTracker* idle_;
  bool ok_ = false;
  std::vector<int> socket_fds_;  // indexed by ServerId; -1 if remote

  mutable std::mutex mu_;
  bool stopping_ = false;
  WireMetrics metrics_;
  LinkLayerCounters layer_;

 private:
  // Stages `envelopes` from `from` on the link to `to`, or on every link
  // out of `from` when `to` is kInvalidServer; wakes the poll thread per
  // the one rule above.
  void stage(ServerId from, ServerId to, std::span<const Envelope> envelopes);
  // Self-delivery: local and free of wire cost on every transport.
  void deliver_local(ServerId server, std::vector<Envelope> envelopes);
  // One mailbox task handing `envelopes` to `to`'s handlers in order.
  void post(ServerId to, ServerId from, std::shared_ptr<const Handler> proto,
            std::shared_ptr<const Handler> ctrl,
            std::vector<Envelope> envelopes);
  void poll_loop();

  std::vector<ServerId> local_;
  in_addr addr_{};
  bool addr_ok_ = false;
  std::vector<std::uint16_t> ports_;  // indexed by ServerId
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  bool running_ = false;
  std::vector<std::shared_ptr<const Handler>> handlers_;
  std::vector<std::shared_ptr<const Handler>> control_;
  std::thread thread_;  // the poll thread; joined by stop()
};

}  // namespace blockdag::rt
