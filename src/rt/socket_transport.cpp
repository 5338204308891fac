#include "rt/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>

#include "net/codec.h"

namespace blockdag::rt {

std::vector<PackedFrame> pack_envelopes(ServerId from,
                                        std::deque<Envelope>& staged,
                                        const PackLimits& limits) {
  const std::size_t limit_bytes =
      std::min(limits.max_bytes, limits.max_frame_payload);
  std::vector<PackedFrame> frames;
  while (!staged.empty()) {
    // Greedy group [0, take): a kBatch payload is its tag byte plus a
    // 4-byte length prefix per inner envelope.
    std::size_t take = 1;
    std::size_t group_bytes = 1 + 4 + staged.front().payload->size();
    while (take < staged.size() && take < limits.max_frames) {
      const std::size_t next = 4 + staged[take].payload->size();
      if (group_bytes + next > limit_bytes) break;
      group_bytes += next;
      ++take;
    }
    PackedFrame frame;
    frame.units = static_cast<std::uint32_t>(take);
    if (take == 1) {
      const Envelope& e = staged.front();
      frame.bytes =
          encode_frame(FrameHeader{kFrameVersion, e.kind, from}, *e.payload);
      frame.payload_bytes = e.payload->size();
    } else {
      std::vector<std::span<const std::uint8_t>> inners;
      inners.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        inners.emplace_back(*staged[i].payload);
        frame.payload_bytes += staged[i].payload->size();
      }
      frame.bytes = encode_frame(
          FrameHeader{kFrameVersion, WireKind::kBatch, from},
          encode_batch(inners));
    }
    staged.erase(staged.begin(),
                 staged.begin() + static_cast<std::ptrdiff_t>(take));
    frames.push_back(std::move(frame));
  }
  return frames;
}

SocketTransport::SocketTransport(Setup setup, std::vector<Mailbox*> mailboxes,
                                 IdleTracker* idle)
    : n_(setup.n_servers),
      limits_(setup.pack),
      mailboxes_(std::move(mailboxes)),
      idle_(idle),
      socket_fds_(n_, -1),
      local_(std::move(setup.local_servers)),
      ports_(n_, 0),
      handlers_(n_),
      control_(n_) {
  assert(mailboxes_.size() == n_);
  if (local_.empty()) {
    for (ServerId s = 0; s < n_; ++s) local_.push_back(s);
  }
  if (::inet_aton(setup.host.c_str(), &addr_) == 0) return;
  // Remote servers are reachable only through the deterministic
  // base_port + id scheme; ephemeral ports cannot be derived for them.
  const bool any_remote = local_.size() < n_;
  if (any_remote && setup.base_port == 0) return;
  // The whole cluster must fit in the port space — base_port + s would
  // otherwise silently wrap and reach the wrong (or an ephemeral) port.
  if (setup.base_port != 0) {
    if (static_cast<std::uint32_t>(setup.base_port) + n_ - 1 > 65535) return;
    for (ServerId s = 0; s < n_; ++s) {
      ports_[s] = static_cast<std::uint16_t>(setup.base_port + s);
    }
  }
  int wake_fds[2] = {-1, -1};
  if (::pipe(wake_fds) != 0) return;
  wake_rd_ = wake_fds[0];
  wake_wr_ = wake_fds[1];
  set_nonblocking(wake_rd_);
  set_nonblocking(wake_wr_);
  addr_ok_ = true;
}

SocketTransport::~SocketTransport() {
  // Derived destructors stop(). This releases the descriptors when a
  // derived constructor threw instead (no thread runs before start()).
  for (int& fd : socket_fds_) close_fd(fd);
  close_fd(wake_rd_);
  close_fd(wake_wr_);
}

bool SocketTransport::set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void SocketTransport::close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

std::uint16_t SocketTransport::port_of(ServerId server) const {
  assert(server < ports_.size());
  return ports_[server];
}

sockaddr_in SocketTransport::address_of(ServerId server) const {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr = addr_;
  sa.sin_port = htons(ports_[server]);
  return sa;
}

void SocketTransport::bind_local_sockets(int type, void (*tune)(int fd)) {
  if (!addr_ok_) return;  // ok_ stays false
  for (const ServerId s : local_) {
    assert(s < n_ && mailboxes_[s] != nullptr);
    const int fd = ::socket(AF_INET, type, 0);
    if (fd < 0) return;
    socket_fds_[s] = fd;
    tune(fd);
    sockaddr_in sa = address_of(s);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0 ||
        !set_nonblocking(fd)) {
      return;
    }
    socklen_t len = sizeof sa;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) return;
    ports_[s] = ntohs(sa.sin_port);
  }
  ok_ = true;
}

void SocketTransport::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_ || !ok_) return;
  running_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { poll_loop(); });
}

void SocketTransport::stop() {
  bool was_running;
  {
    std::lock_guard<std::mutex> lock(mu_);
    was_running = running_;
    stopping_ = true;  // latches: sends from here on are dropped
  }
  if (was_running) {
    wake();
    if (thread_.joinable()) thread_.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  teardown_locked();
  for (int& fd : socket_fds_) close_fd(fd);
  close_fd(wake_rd_);
  close_fd(wake_wr_);
  running_ = false;
}

void SocketTransport::attach(ServerId server, Handler handler) {
  assert(is_local(server));
  std::lock_guard<std::mutex> lock(mu_);
  handlers_[server] =
      handler ? std::make_shared<const Handler>(std::move(handler)) : nullptr;
}

void SocketTransport::set_control_handler(ServerId server, Handler handler) {
  assert(is_local(server));
  std::lock_guard<std::mutex> lock(mu_);
  control_[server] =
      handler ? std::make_shared<const Handler>(std::move(handler)) : nullptr;
}

void SocketTransport::post(ServerId to, ServerId from,
                           std::shared_ptr<const Handler> proto,
                           std::shared_ptr<const Handler> ctrl,
                           std::vector<Envelope> envelopes) {
  if (!proto && !ctrl) return;
  mailboxes_[to]->push([proto = std::move(proto), ctrl = std::move(ctrl), from,
                        envelopes = std::move(envelopes)] {
    for (const Envelope& e : envelopes) {
      const auto& handler = e.kind == WireKind::kControl ? ctrl : proto;
      if (handler) (*handler)(from, *e.payload);
    }
  });
}

void SocketTransport::deliver_local(ServerId server,
                                    std::vector<Envelope> envelopes) {
  std::shared_ptr<const Handler> proto;
  std::shared_ptr<const Handler> ctrl;
  {
    std::lock_guard<std::mutex> lock(mu_);
    proto = handlers_[server];
    ctrl = control_[server];
  }
  post(server, server, std::move(proto), std::move(ctrl), std::move(envelopes));
}

void SocketTransport::stage(ServerId from, ServerId to,
                            std::span<const Envelope> envelopes) {
  bool need_wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      const std::uint64_t peers = to != kInvalidServer ? 1 : (n_ > 0 ? n_ - 1 : 0);
      metrics_.dropped += envelopes.size() * peers;
      return;
    }
    const auto stage_on = [&](ServerId peer) {
      for (const Envelope& e : envelopes) {
        const std::size_t size = e.payload->size();
        std::deque<Envelope>* staged = admit_locked(from, peer, size);
        if (!staged) continue;
        need_wake |= staged->empty();
        const auto k = static_cast<std::size_t>(e.kind);
        metrics_.messages[k] += 1;
        metrics_.bytes[k] += size;
        staged->push_back(e);
        if (idle_) idle_->add();
      }
    };
    if (to != kInvalidServer) {
      stage_on(to);
    } else {
      for (ServerId peer = 0; peer < n_; ++peer) {
        if (peer != from) stage_on(peer);
      }
    }
  }
  if (need_wake) wake();
}

void SocketTransport::send(ServerId from, ServerId to, WireKind kind,
                           Bytes payload) {
  assert(to < n_);
  Envelope e{kind, std::make_shared<const Bytes>(std::move(payload))};
  if (to == from) {
    deliver_local(from, {std::move(e)});
  } else {
    stage(from, to, {&e, 1});
  }
}

void SocketTransport::broadcast(ServerId from, WireKind kind,
                                const Bytes& payload) {
  // One immutable payload shared by every peer's staging queue and the
  // self-delivery.
  Envelope e{kind, std::make_shared<const Bytes>(payload)};
  stage(from, kInvalidServer, {&e, 1});
  deliver_local(from, {std::move(e)});
}

void SocketTransport::send_many(ServerId from, ServerId to,
                                const std::vector<Envelope>& envelopes) {
  assert(to < n_);
  if (envelopes.empty()) return;
  if (to == from) {
    deliver_local(from, envelopes);
  } else {
    stage(from, to, envelopes);
  }
}

void SocketTransport::broadcast_many(ServerId from,
                                     const std::vector<Envelope>& envelopes) {
  if (envelopes.empty()) return;
  stage(from, kInvalidServer, envelopes);
  deliver_local(from, envelopes);
}

WireMetrics SocketTransport::wire_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_;
}

std::vector<PackedFrame> SocketTransport::pack_locked(
    ServerId from, std::deque<Envelope>& staged, std::uint64_t& link_batches,
    std::uint64_t& link_batched) {
  std::vector<PackedFrame> frames = pack_envelopes(from, staged, limits_);
  for (const PackedFrame& f : frames) {
    if (f.units == 1) continue;
    ++layer_.batches_sent;
    layer_.batched_envelopes += f.units;
    ++link_batches;
    link_batched += f.units;
  }
  return frames;
}

void SocketTransport::dispatch_locked(ServerId owner, Frame frame) {
  assert(frame.header.from < n_);
  ++layer_.frames_received;
  const ServerId from = frame.header.from;
  if (frame.header.kind != WireKind::kBatch) {
    post(owner, from, handlers_[owner], control_[owner],
         {Envelope{frame.header.kind,
                   std::make_shared<const Bytes>(std::move(frame.payload))}});
    return;
  }
  // Unpack before posting: split_batch bounds-checks every inner length
  // against the remaining bytes pre-allocation. A malformed batch is
  // payload corruption, not framing corruption — drop the batch (counted),
  // keep the link live.
  const auto entries = split_batch(frame.payload);
  if (!entries) {
    ++layer_.batch_decode_failures;
    return;
  }
  ++layer_.batches_received;
  layer_.batched_envelopes_received += entries->size();
  std::shared_ptr<const Handler> proto = handlers_[owner];
  std::shared_ptr<const Handler> ctrl = control_[owner];
  if (!proto && !ctrl) return;
  // Record (kind, offset, length) per inner — the heap buffer is stable
  // across the move into the shared payload below.
  struct Inner {
    WireKind kind;
    std::size_t off;
    std::size_t len;
  };
  std::vector<Inner> inners;
  inners.reserve(entries->size());
  for (const BatchEntry& e : *entries) {
    inners.push_back(Inner{
        e.kind,
        static_cast<std::size_t>(e.envelope.data() - frame.payload.data()),
        e.envelope.size()});
  }
  auto payload = std::make_shared<const Bytes>(std::move(frame.payload));
  // One mailbox wakeup dispatches every inner envelope in order.
  mailboxes_[owner]->push([proto = std::move(proto), ctrl = std::move(ctrl),
                           from, payload = std::move(payload),
                           inners = std::move(inners)] {
    for (const Inner& e : inners) {
      const auto& handler = e.kind == WireKind::kControl ? ctrl : proto;
      if (!handler) continue;
      const auto begin = payload->begin() + static_cast<std::ptrdiff_t>(e.off);
      const Bytes envelope(begin, begin + static_cast<std::ptrdiff_t>(e.len));
      (*handler)(from, envelope);
    }
  });
}

void SocketTransport::wake() {
  // Under mu_: stop() closes (and -1s) wake_wr_ under the same lock, so a
  // late sender can never write into a closed — possibly reused — fd. No
  // caller holds mu_ here, and the write is nonblocking (a full pipe
  // already guarantees a pending wakeup).
  std::lock_guard<std::mutex> lock(mu_);
  if (wake_wr_ >= 0) {
    const char byte = 1;
    [[maybe_unused]] const auto n = ::write(wake_wr_, &byte, 1);
  }
}

void SocketTransport::poll_loop() {
  std::vector<struct pollfd> fds;
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    fds.clear();
    fds.push_back({wake_rd_, POLLIN, 0});
    const Clock::time_point deadline = poll_prepare_locked(fds);
    int timeout_ms = -1;
    if (deadline != Clock::time_point::max()) {
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      timeout_ms = std::max<int>(1, static_cast<int>(wait.count()) + 1);
    }

    lock.unlock();
    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    lock.lock();
    if (stopping_) break;
    if (ready < 0) continue;  // EINTR

    if (fds[0].revents != 0) {
      char drain[256];
      while (::read(wake_rd_, drain, sizeof drain) > 0) {
      }
    }
    poll_ready_locked(fds);
  }
}

}  // namespace blockdag::rt
