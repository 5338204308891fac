// Adversarial real-socket Transport: UDP datagrams + explicit reliability
// + in-path fault injection (DESIGN.md §9).
//
// The fourth backend of the Transport seam. TCP (rt/tcp_transport.h) gave
// the protocol stack a real kernel but also the kernel's reliability; this
// backend deliberately gives it a real kernel *without* reliability, then
// wins it back in userspace where every loss, reorder and duplicate is
// observable and injectable:
//   * each payload crosses the wire as the same length-prefixed frame TCP
//     sends (net/frame.h), chopped into MTU-sized chunks carried by
//     sequenced datagrams (net/datagram.h: seq + ack header, bounded
//     retransmission with exponential backoff, dedup/reorder windows,
//     epoch resets instead of infinite retry against a dead peer);
//   * an in-path FaultInjector sits between the channel layer and
//     sendto(): per directed link it drops, duplicates, delays and
//     reorders datagrams from a seeded profile, and links can be
//     blackholed outright (partitions). The faultplan grammar that PR 3
//     gave the simulator — partitions, asymmetric lossy links, geo-latency
//     regimes — thereby runs against live sockets and real concurrency
//     (`simctl fuzz --runtime udp`).
//
// This file holds only the UDP wire: the per-link Sender/ReceiverChannels,
// the fault injector and pump(). Handler routing, the send front end,
// envelope packing and inbound dispatch are the shared link layer
// (rt/socket_transport.h), the same code the TCP backend runs.
//
// Topology: one UDP socket per hosted server, bound to base_port + id (or
// an ephemeral port when the whole cluster is in-process), serviced by one
// poll thread per transport instance. Complete frames are posted into the
// owning server's mailbox — the single-writer-per-server discipline of
// rt/mailbox.h, identical to the TCP backend.
//
// Delivery contract (Assumption 1): retransmission makes delivery between
// live, reachable endpoints eventual; what exceeds the retransmit budget
// (a peer dead or blackholed for seconds) is dropped with the channel
// reset — the transient-loss class the gossip FWD path recovers, exactly
// like frames lost in a dead TCP kernel buffer. Datagram `from` fields are
// transport metadata, as unauthenticated as everywhere else: a spoofed
// epoch bump can reset a channel, which is loss, never safety violation —
// all trust lives in signatures inside the payloads.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "net/datagram.h"
#include "rt/socket_transport.h"
#include "util/rng.h"

namespace blockdag::rt {

// Fault profile of one directed link, consulted per outbound datagram.
// Probabilities are independent per datagram; delays are sampled uniformly
// from [delay_min_us, delay_max_us] (the geo-latency knob); a reordered
// datagram is additionally held for ~reorder_hold_us so later datagrams
// overtake it; duplicates are re-sent after a short extra delay so the
// dedup window sees them out of order. All decisions flow from the
// transport's seeded RNG — the profile is deterministic, the socket timing
// is not (that is the point of running on real sockets).
struct LinkFault {
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  std::uint32_t delay_min_us = 0;
  std::uint32_t delay_max_us = 0;
  std::uint32_t reorder_hold_us = 2000;
  bool blackhole = false;  // partition: every datagram on the link dies

  bool operator==(const LinkFault&) const = default;
};

struct UdpConfig {
  std::uint32_t n_servers = 0;
  std::string host = "127.0.0.1";
  // Server s binds base_port + s; 0 = kernel-assigned ephemeral ports
  // (race-free for parallel tests, all-local clusters only).
  std::uint16_t base_port = 0;
  // ServerIds hosted by this process. Empty = all of them.
  std::vector<ServerId> local_servers;
  // Reliability tuning shared by every channel (MTU, RTO/backoff,
  // retransmit cap, windows).
  DatagramChannelConfig channel{};
  // Seed of the fault injector's RNG (decision stream).
  std::uint64_t fault_seed = 1;
  // Initial profile applied to every directed link (clean by default).
  LinkFault default_fault{};
  // --- Envelope coalescing (DESIGN.md §13) ---
  // Sends stage as envelopes per link and pump() packs everything staged
  // into frames (kBatch for two or more) before offering them to the sender
  // channel, so one frame (and its seq/ack/retransmit state) can carry many
  // envelopes. The batch ceiling is deliberately smaller than TCP's: a
  // frame is the retransmission unit here, and a fatter frame spans more
  // MTU chunks, so one lost chunk under injected loss holds up more
  // envelopes (the lossy bench row prices exactly this trade).
  // max_batch_frames = 1 ships one envelope per frame (`--batch off`).
  std::size_t max_batch_frames = 64;       // inner envelopes per kBatch
  std::size_t max_batch_bytes = 16u << 10; // kBatch payload ceiling
};

// Aggregate counters. Everything the fault tests assert nonzero lives
// here, so injection can never silently no-op (tests/rt/udp_runtime_test).
struct UdpStats {
  std::uint64_t datagrams_sent = 0;      // sendto() completions (all kinds)
  std::uint64_t datagrams_received = 0;  // recvfrom() datagrams
  std::uint64_t frames_sent = 0;         // frames accepted into channels
  std::uint64_t frames_received = 0;     // complete frames decoded
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t retransmits = 0;         // RTO-expired re-sends
  std::uint64_t duplicates_dropped = 0;  // receiver dedup-window hits
  std::uint64_t far_future_dropped = 0;  // forged/absurd seq, not buffered
  std::uint64_t malformed_dropped = 0;   // undecodable datagrams
  std::uint64_t channel_resets = 0;      // sender retransmit-cap resets
  std::uint64_t corrupt_streams = 0;     // FrameDecoder poisoned an epoch
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_dups = 0;
  std::uint64_t injected_delays = 0;     // datagrams held back (incl. reorders)
  // Envelope coalescing (kBatch frames carrying >1 inner envelope).
  std::uint64_t batches_sent = 0;
  std::uint64_t batched_envelopes = 0;
  std::uint64_t batches_received = 0;
  std::uint64_t batched_envelopes_received = 0;
  // Malformed kBatch payloads: batch dropped, channel state untouched.
  std::uint64_t batch_decode_failures = 0;
};

// Per-directed-link view (the TcpStats pattern, but per peer): sender-side
// counters are populated when `from` is hosted locally, receiver-side ones
// when `to` is. In an in-process cluster both halves are visible.
struct UdpLinkStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t channel_resets = 0;
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_dups = 0;
  std::uint64_t injected_delays = 0;
  std::uint64_t duplicates_dropped = 0;  // dedup at the receiving end
  std::uint64_t chunks_delivered = 0;
  std::uint64_t batches_sent = 0;        // kBatch frames packed on this link
  std::uint64_t batched_envelopes = 0;   // inners across those batches
};

class UdpTransport final : public SocketTransport {
 public:
  // See SocketTransport for `mailboxes` and `idle` (here offered-but-unacked
  // frames count too, so wait_idle() covers the retransmission pipeline).
  // Sockets are bound in the constructor (check ok()); no traffic moves
  // until start().
  UdpTransport(UdpConfig config, std::vector<Mailbox*> mailboxes,
               IdleTracker* idle = nullptr);
  ~UdpTransport() override;  // stop()s

  // ---- fault injection (thread-safe; applied to subsequent datagrams) ----

  // Overrides the profile of one directed link.
  void set_link_fault(ServerId from, ServerId to, const LinkFault& fault);
  // Replaces the default profile (links without an override).
  void set_default_fault(const LinkFault& fault);
  // Blackholes (active=true) or heals (false) every directed link crossing
  // the cut, both directions — the real-socket analogue of
  // SimNetwork::partition, except healing is explicit.
  void set_partition(const std::vector<ServerId>& side_a,
                     const std::vector<ServerId>& side_b, bool active);
  // Clears every override, partition and the default profile: a clean
  // network from here on (already-delayed datagrams still deliver).
  void heal_all_faults();

  WireMetrics wire_metrics() const override;
  UdpStats stats() const;
  UdpLinkStats link_stats(ServerId from, ServerId to) const;

 private:
  struct Link {
    std::unique_ptr<SenderChannel> sender;      // local from → to
    std::unique_ptr<ReceiverChannel> receiver;  // from → local to
    // Envelopes staged for this link, packed into frames by pump() before
    // the sender channel sees them.
    std::deque<Envelope> staged;
    std::uint64_t injected_drops = 0;
    std::uint64_t injected_dups = 0;
    std::uint64_t injected_delays = 0;
    std::uint64_t datagrams_sent = 0;
    std::uint64_t batches_sent = 0;
    std::uint64_t batched_envelopes = 0;
  };
  struct Delayed {
    Clock::time_point due;
    ServerId from = 0;
    ServerId to = 0;
    std::shared_ptr<const Bytes> datagram;
    bool operator>(const Delayed& other) const { return due > other.due; }
  };

  // SocketTransport hooks (mu_ held).
  std::deque<Envelope>* admit_locked(ServerId from, ServerId to,
                                     std::size_t payload_bytes) override;
  Clock::time_point poll_prepare_locked(
      std::vector<struct pollfd>& fds) override;
  void poll_ready_locked(const std::vector<struct pollfd>& fds) override;
  void teardown_locked() override;

  // Link state of the directed pair, created on first use. mu_ held.
  Link& link(ServerId from, ServerId to);
  const LinkFault& fault_of(ServerId from, ServerId to) const;
  // Packs everything staged on the link and offers the frames to its
  // sender channel. mu_ held.
  void offer_staged(ServerId from, Link& l);
  // Injection decision + sendto()/delay-queue for one outbound datagram.
  // mu_ held. `injectable` is false for datagrams the injector already
  // processed (delayed releases, duplicate copies).
  void emit(ServerId from, ServerId to, std::shared_ptr<const Bytes> datagram,
            bool injectable, Clock::time_point now);
  void transmit(ServerId from, ServerId to, const Bytes& datagram);
  // Pump senders/acks/delayed queue; returns the earliest future deadline
  // (retransmit or delayed release). mu_ held.
  Clock::time_point pump(Clock::time_point now);
  void service_socket(ServerId owner);
  static std::uint64_t to_ns(Clock::time_point t) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
  }

  UdpConfig config_;
  std::map<std::pair<ServerId, ServerId>, Link> links_;  // (from, to)
  // Fault state: default + per-link overrides + partition bitmap (n×n,
  // row-major), consulted per outbound datagram.
  Rng fault_rng_;
  LinkFault default_fault_;
  std::map<std::pair<ServerId, ServerId>, LinkFault> fault_overrides_;
  std::vector<bool> blackholed_;
  std::priority_queue<Delayed, std::vector<Delayed>, std::greater<Delayed>>
      delayed_;
  UdpStats stats_;
};

}  // namespace blockdag::rt
