// The shared link layer of the socket transports (rt/socket_transport.h),
// tested without sockets:
//   * pack_envelopes — a lone envelope is a plain frame of its own kind;
//     each ceiling (max_frames, max_bytes, the frame-payload limit) splits
//     a group; order survives packing; max_frames = 1 (`--batch off`)
//     gives every envelope its own frame;
//   * inbound dispatch, through a wire-less SocketTransport — a kBatch is
//     unpacked in order inside one mailbox task, kControl reaches only the
//     control handler, a detached handler drops the envelope, a malformed
//     batch is counted and dropped while later frames still flow;
//   * the send front end — self-sends deliver locally and cost no wire,
//     and once stop()ped every send is dropped once per envelope and peer.
// The last suite repeats the stop() accounting on the real TcpTransport and
// UdpTransport (bound on ephemeral loopback ports, started, then stopped).
#include "rt/socket_transport.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "net/codec.h"
#include "rt/tcp_transport.h"
#include "rt/udp_transport.h"

namespace blockdag::rt {
namespace {

// A tagged envelope (codec contract: the first byte names the kind).
Envelope envelope(WireKind kind, std::uint8_t fill, std::size_t size = 8) {
  Bytes payload(size, fill);
  payload[0] = static_cast<std::uint8_t>(kind);
  return Envelope{kind, std::make_shared<const Bytes>(std::move(payload))};
}

Frame decode(const Bytes& wire) {
  FrameDecoder decoder;
  decoder.feed(wire);
  auto frame = decoder.next();
  EXPECT_TRUE(frame.has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
  return frame ? std::move(*frame) : Frame{};
}

// The envelopes one packed frame carries, in wire order.
std::vector<Bytes> unpack(const PackedFrame& packed) {
  const Frame frame = decode(packed.bytes);
  if (frame.header.kind != WireKind::kBatch) return {frame.payload};
  std::vector<Bytes> out;
  const auto entries = split_batch(frame.payload);
  EXPECT_TRUE(entries.has_value());
  if (!entries) return out;
  for (const BatchEntry& e : *entries) {
    out.emplace_back(e.envelope.begin(), e.envelope.end());
  }
  return out;
}

std::vector<std::uint32_t> units_of(const std::vector<PackedFrame>& frames) {
  std::vector<std::uint32_t> units;
  for (const PackedFrame& f : frames) units.push_back(f.units);
  return units;
}

std::deque<Envelope> staged_run(std::size_t count, std::size_t size = 8) {
  std::deque<Envelope> staged;
  for (std::size_t i = 0; i < count; ++i) {
    staged.push_back(envelope(WireKind::kBlock, static_cast<std::uint8_t>(i), size));
  }
  return staged;
}

TEST(PackEnvelopes, LoneEnvelopeIsAPlainFrameOfItsOwnKind) {
  std::deque<Envelope> staged{envelope(WireKind::kFwdReply, 7, 40)};
  const auto frames = pack_envelopes(3, staged, PackLimits{});
  EXPECT_TRUE(staged.empty());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].units, 1u);
  EXPECT_EQ(frames[0].payload_bytes, 40u);
  const Frame frame = decode(frames[0].bytes);
  EXPECT_EQ(frame.header.kind, WireKind::kFwdReply);
  EXPECT_EQ(frame.header.from, 3u);
  EXPECT_EQ(frame.payload.size(), 40u);
  EXPECT_EQ(frame.payload[1], 7);
}

TEST(PackEnvelopes, FrameCapSplitsGroups) {
  auto staged = staged_run(5);
  const auto frames = pack_envelopes(0, staged, PackLimits{2, 1u << 20});
  EXPECT_EQ(units_of(frames), (std::vector<std::uint32_t>{2, 2, 1}));
  EXPECT_EQ(decode(frames[0].bytes).header.kind, WireKind::kBatch);
  EXPECT_EQ(decode(frames[2].bytes).header.kind, WireKind::kBlock);
  EXPECT_EQ(frames[0].payload_bytes, 16u);
}

TEST(PackEnvelopes, ByteCapSplitsGroups) {
  // A kBatch of k 100-byte envelopes has a 1 + k·(4 + 100) byte payload.
  auto staged = staged_run(5, 100);
  const auto frames = pack_envelopes(0, staged, PackLimits{64, 1 + 2 * 104});
  EXPECT_EQ(units_of(frames), (std::vector<std::uint32_t>{2, 2, 1}));
  for (const PackedFrame& f : frames) {
    EXPECT_LE(decode(f.bytes).payload.size(), 1u + 2 * 104);
  }
  // One byte short of two envelopes: nothing coalesces.
  staged = staged_run(3, 100);
  EXPECT_EQ(units_of(pack_envelopes(0, staged, PackLimits{64, 2 * 104})),
            (std::vector<std::uint32_t>{1, 1, 1}));
}

TEST(PackEnvelopes, FramePayloadCeilingSplitsGroups) {
  auto staged = staged_run(5, 100);
  const auto frames =
      pack_envelopes(0, staged, PackLimits{64, 1u << 20, 1 + 2 * 104});
  EXPECT_EQ(units_of(frames), (std::vector<std::uint32_t>{2, 2, 1}));
}

TEST(PackEnvelopes, PreservesOrderAcrossFrames) {
  std::deque<Envelope> staged;
  std::vector<Bytes> sent;
  const WireKind kinds[] = {WireKind::kBlock, WireKind::kFwdRequest,
                            WireKind::kControl, WireKind::kFwdReply};
  for (std::uint8_t i = 0; i < 11; ++i) {
    staged.push_back(envelope(kinds[i % 4], i, 8 + i));
    sent.push_back(*staged.back().payload);
  }
  const auto frames = pack_envelopes(2, staged, PackLimits{3, 1u << 20});
  EXPECT_EQ(units_of(frames), (std::vector<std::uint32_t>{3, 3, 3, 2}));
  std::vector<Bytes> received;
  for (const PackedFrame& f : frames) {
    for (Bytes& b : unpack(f)) received.push_back(std::move(b));
  }
  EXPECT_EQ(received, sent);
}

TEST(PackEnvelopes, OneFramePerEnvelopeWhenMaxFramesIsOne) {
  std::deque<Envelope> staged{envelope(WireKind::kBlock, 1),
                              envelope(WireKind::kControl, 2),
                              envelope(WireKind::kFwdRequest, 3)};
  const auto frames = pack_envelopes(0, staged, PackLimits{1, 1u << 20});
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(decode(frames[0].bytes).header.kind, WireKind::kBlock);
  EXPECT_EQ(decode(frames[1].bytes).header.kind, WireKind::kControl);
  EXPECT_EQ(decode(frames[2].bytes).header.kind, WireKind::kFwdRequest);
  for (const PackedFrame& f : frames) EXPECT_EQ(f.units, 1u);
}

// A SocketTransport with no wire: sends stay on per-link staging queues,
// inbound frames are injected by the test, and no poll thread ever runs.
class FakeWire final : public SocketTransport {
 public:
  FakeWire(std::uint32_t n, std::vector<Mailbox*> mailboxes)
      : SocketTransport(Setup{n, "127.0.0.1", 0, {}, PackLimits{}},
                        std::move(mailboxes), nullptr) {}
  ~FakeWire() override { stop(); }

  // What the wire would hand the link layer after decoding `wire`.
  void receive(ServerId owner, const Bytes& wire) {
    Frame frame = decode(wire);
    std::lock_guard<std::mutex> lock(mu_);
    dispatch_locked(owner, std::move(frame));
  }
  LinkLayerCounters counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return layer_;
  }
  std::size_t staged(ServerId from, ServerId to) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = staged_.find({from, to});
    return it == staged_.end() ? 0 : it->second.size();
  }

 private:
  std::deque<Envelope>* admit_locked(ServerId from, ServerId to,
                                     std::size_t) override {
    return &staged_[{from, to}];
  }
  Clock::time_point poll_prepare_locked(std::vector<struct pollfd>&) override {
    return Clock::time_point::max();
  }
  void poll_ready_locked(const std::vector<struct pollfd>&) override {}
  void teardown_locked() override { staged_.clear(); }

  std::map<std::pair<ServerId, ServerId>, std::deque<Envelope>> staged_;
};

struct Delivery {
  ServerId from;
  Bytes payload;
  bool operator==(const Delivery&) const = default;
};

// Two servers, each with a mailbox drained by the test thread.
struct Harness {
  IdleTracker idle;
  Mailbox m0{idle};
  Mailbox m1{idle};
  FakeWire wire{2, {&m0, &m1}};
  std::vector<Delivery> proto;
  std::vector<Delivery> ctrl;

  void attach_both(ServerId s) {
    wire.attach(s, [this](ServerId from, const Bytes& p) { proto.push_back({from, p}); });
    wire.set_control_handler(
        s, [this](ServerId from, const Bytes& p) { ctrl.push_back({from, p}); });
  }
  // Runs every queued task of `server`'s mailbox; returns the task count.
  std::size_t drain(ServerId server) {
    Mailbox& m = server == 0 ? m0 : m1;
    m.close();
    std::size_t tasks = 0;
    Mailbox::Task task;
    while (m.pop(task)) {
      task();
      m.task_done();
      ++tasks;
    }
    return tasks;
  }
};

Bytes batch_frame(ServerId from, const std::vector<Envelope>& envelopes) {
  std::deque<Envelope> staged(envelopes.begin(), envelopes.end());
  const auto frames = pack_envelopes(from, staged, PackLimits{});
  EXPECT_EQ(frames.size(), 1u);
  return frames.front().bytes;
}

TEST(SocketDispatch, BatchUnpacksInOrderInsideOneMailboxTask) {
  Harness h;
  h.attach_both(0);
  const std::vector<Envelope> sent{envelope(WireKind::kBlock, 1),
                                   envelope(WireKind::kFwdRequest, 2),
                                   envelope(WireKind::kBlock, 3, 30)};
  h.wire.receive(0, batch_frame(1, sent));
  EXPECT_EQ(h.drain(0), 1u);
  ASSERT_EQ(h.proto.size(), 3u);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(h.proto[i], (Delivery{1, *sent[i].payload}));
  }
  EXPECT_TRUE(h.ctrl.empty());
  const LinkLayerCounters c = h.wire.counters();
  EXPECT_EQ(c.frames_received, 1u);
  EXPECT_EQ(c.batches_received, 1u);
  EXPECT_EQ(c.batched_envelopes_received, 3u);
}

TEST(SocketDispatch, ControlReachesOnlyTheControlHandler) {
  Harness h;
  h.attach_both(0);
  const Envelope control = envelope(WireKind::kControl, 9);
  const Envelope block = envelope(WireKind::kBlock, 4);
  h.wire.receive(0, encode_frame(FrameHeader{kFrameVersion, WireKind::kControl, 1},
                                 *control.payload));
  h.wire.receive(0, batch_frame(1, {block, control}));
  EXPECT_EQ(h.drain(0), 2u);
  EXPECT_EQ(h.ctrl, (std::vector<Delivery>{{1, *control.payload},
                                           {1, *control.payload}}));
  EXPECT_EQ(h.proto, (std::vector<Delivery>{{1, *block.payload}}));
}

TEST(SocketDispatch, DetachedHandlerDropsTheEnvelope) {
  Harness h;
  h.attach_both(0);
  h.wire.attach(0, nullptr);  // protocol handler detached, control kept
  const Envelope block = envelope(WireKind::kBlock, 5);
  const Envelope control = envelope(WireKind::kControl, 6);
  h.wire.receive(0, encode_frame(FrameHeader{kFrameVersion, WireKind::kBlock, 1},
                                 *block.payload));
  h.wire.receive(0, batch_frame(1, {block, control}));
  h.drain(0);
  EXPECT_TRUE(h.proto.empty());
  EXPECT_EQ(h.ctrl, (std::vector<Delivery>{{1, *control.payload}}));

  // Nothing attached at all: no mailbox task is posted.
  Harness bare;
  bare.wire.receive(0, encode_frame(FrameHeader{kFrameVersion, WireKind::kBlock, 1},
                                    *block.payload));
  bare.wire.receive(0, batch_frame(1, {block, block}));
  EXPECT_EQ(bare.drain(0), 0u);
  EXPECT_EQ(bare.wire.counters().frames_received, 2u);
}

TEST(SocketDispatch, MalformedBatchIsCountedAndDroppedLinkStaysLive) {
  Harness h;
  h.attach_both(0);
  // A batch whose only inner claims 255 bytes but carries none.
  const Bytes garbage{static_cast<std::uint8_t>(WireKind::kBatch), 0xff, 0, 0, 0};
  h.wire.receive(0, encode_frame(FrameHeader{kFrameVersion, WireKind::kBatch, 1},
                                 garbage));
  const Envelope block = envelope(WireKind::kBlock, 8);
  h.wire.receive(0, batch_frame(1, {block, block}));
  EXPECT_EQ(h.drain(0), 1u);
  EXPECT_EQ(h.proto.size(), 2u);
  const LinkLayerCounters c = h.wire.counters();
  EXPECT_EQ(c.batch_decode_failures, 1u);
  EXPECT_EQ(c.batches_received, 1u);
  EXPECT_EQ(c.frames_received, 2u);
}

TEST(SocketFrontEnd, SelfSendsDeliverLocallyWithoutWireCost) {
  Harness h;
  h.attach_both(0);
  const Envelope block = envelope(WireKind::kBlock, 1);
  h.wire.send(0, 0, WireKind::kBlock, *block.payload);
  h.wire.send_many(0, 0, {block, envelope(WireKind::kControl, 2)});
  h.wire.broadcast(0, WireKind::kBlock, *block.payload);
  EXPECT_EQ(h.wire.staged(0, 0), 0u);
  EXPECT_EQ(h.wire.staged(0, 1), 1u);  // only the broadcast's peer copy
  EXPECT_EQ(h.drain(0), 3u);
  EXPECT_EQ(h.proto.size(), 3u);
  EXPECT_EQ(h.ctrl.size(), 1u);
  const WireMetrics m = h.wire.wire_metrics();
  EXPECT_EQ(m.total_messages(), 1u);
  EXPECT_EQ(m.total_bytes(), block.payload->size());
}

TEST(SocketFrontEnd, StoppedTransportDropsOncePerEnvelopeAndPeer) {
  IdleTracker idle;
  std::vector<std::unique_ptr<Mailbox>> boxes;
  std::vector<Mailbox*> raw;
  for (int i = 0; i < 4; ++i) {
    boxes.push_back(std::make_unique<Mailbox>(idle));
    raw.push_back(boxes.back().get());
  }
  FakeWire wire(4, raw);
  wire.stop();
  const Envelope e = envelope(WireKind::kBlock, 1);
  wire.broadcast(0, WireKind::kBlock, *e.payload);
  EXPECT_EQ(wire.wire_metrics().dropped, 3u);
  wire.broadcast_many(0, {e, e});
  EXPECT_EQ(wire.wire_metrics().dropped, 9u);
  wire.send(0, 2, WireKind::kBlock, *e.payload);
  wire.send_many(0, 2, {e, e});
  EXPECT_EQ(wire.wire_metrics().dropped, 12u);
  EXPECT_EQ(wire.staged(0, 1), 0u);
}

// The same accounting on the real transports: `dropped` grows by n−1 per
// broadcast envelope once stop() has latched.
template <typename T, typename Config>
void expect_broadcast_drops_after_stop() {
  constexpr std::uint32_t kN = 4;
  IdleTracker idle;
  std::vector<std::unique_ptr<Mailbox>> boxes;
  std::vector<Mailbox*> raw;
  for (std::uint32_t i = 0; i < kN; ++i) {
    boxes.push_back(std::make_unique<Mailbox>(idle));
    raw.push_back(boxes.back().get());
  }
  Config config;
  config.n_servers = kN;
  T transport(config, raw, &idle);
  ASSERT_TRUE(transport.ok());
  transport.start();
  transport.stop();
  const Envelope e = envelope(WireKind::kBlock, 1);
  const std::uint64_t before = transport.wire_metrics().dropped;
  transport.broadcast(0, WireKind::kBlock, *e.payload);
  EXPECT_EQ(transport.wire_metrics().dropped - before, kN - 1);
  transport.broadcast_many(1, {e, e});
  EXPECT_EQ(transport.wire_metrics().dropped - before, 3 * (kN - 1));
  // Nothing was staged, and with no handler attached nothing was posted.
  EXPECT_EQ(idle.count(), 0u);
}

TEST(SocketTransportsStopped, TcpBroadcastDropsOncePerPeer) {
  expect_broadcast_drops_after_stop<TcpTransport, TcpConfig>();
}

TEST(SocketTransportsStopped, UdpBroadcastDropsOncePerPeer) {
  expect_broadcast_drops_after_stop<UdpTransport, UdpConfig>();
}

}  // namespace
}  // namespace blockdag::rt
