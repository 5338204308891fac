#include "rt/tcp_transport.h"

#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>

#include "net/backoff.h"

namespace blockdag::rt {

namespace {

void set_nodelay(int fd) {
  // Frames are latency-sensitive protocol beats, not bulk data: disable
  // Nagle so a lone block frame is not held hostage to a pending ACK.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

SocketTransport::Setup setup_of(const TcpConfig& c) {
  return {c.n_servers, c.host, c.base_port, c.local_servers,
          PackLimits{c.max_batch_frames, c.max_batch_bytes, c.max_frame_payload}};
}

}  // namespace

TcpTransport::TcpTransport(TcpConfig config, std::vector<Mailbox*> mailboxes,
                           IdleTracker* idle)
    : SocketTransport(setup_of(config), std::move(mailboxes), idle),
      config_(std::move(config)),
      reconnect_prng_(config_.reconnect_jitter_seed) {
  // One acceptor per hosted server. Bound (and, for ephemeral ports,
  // resolved) here so port_of() is meaningful before start().
  bind_local_sockets(SOCK_STREAM, [](int fd) {
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  });
  for (const ServerId s : local_servers()) {
    if (ok_ && ::listen(socket_fds_[s], SOMAXCONN) != 0) ok_ = false;
  }
}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::teardown_locked() {
  for (auto& [key, out] : out_) {
    (void)key;
    close_fd(out.fd);
    if (idle_ && out.queued_envelopes > 0) idle_->sub(out.queued_envelopes);
  }
  out_.clear();
  for (auto& in : in_) close_fd(in->fd);
  in_.clear();
}

// Applies the per-peer envelope and byte caps.
std::deque<Envelope>* TcpTransport::admit_locked(ServerId from, ServerId to,
                                                 std::size_t payload_bytes) {
  OutConn& out = out_[{from, to}];
  if (!out.link) out.link = &link_stats_[{from, to}];
  if (out.queued_envelopes >= config_.max_queued_frames_per_peer ||
      out.queued_bytes + payload_bytes > config_.max_queued_bytes_per_peer) {
    ++metrics_.dropped;
    ++stats_.evicted_envelopes;
    stats_.evicted_bytes += payload_bytes;
    ++out.link->evicted;
    return nullptr;
  }
  ++out.queued_envelopes;
  out.queued_bytes += payload_bytes;
  ++out.link->enqueued;
  return &out.pending;
}

TcpStats TcpTransport::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  TcpStats stats = stats_;
  add_layer_counters(stats);
  return stats;
}

TcpLinkStats TcpTransport::link_stats(ServerId from, ServerId to) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = link_stats_.find({from, to});
  return it == link_stats_.end() ? TcpLinkStats{} : it->second;
}

void TcpTransport::drop_connections(ServerId a, ServerId b) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, out] : out_) {
      if ((key.first == a && key.second == b) ||
          (key.first == b && key.second == a)) {
        if (out.fd >= 0) fail_out(out);
      }
    }
    for (auto& in : in_) {
      if (in->dead) continue;
      if ((in->owner == a && in->peer == b) || (in->owner == b && in->peer == a)) {
        close_fd(in->fd);
        in->dead = true;
        ++stats_.resets;
      }
    }
  }
  wake();
}

// Next re-dial delay: reconnect_delay spread by ±reconnect_jitter so peers
// whose connections died together (one member SIGKILLed) do not hammer the
// restarted listener in lockstep.
TcpTransport::Clock::duration TcpTransport::reconnect_backoff() {
  const auto base = std::chrono::duration_cast<std::chrono::nanoseconds>(
      config_.reconnect_delay);
  return std::chrono::nanoseconds(
      jittered_delay(static_cast<std::uint64_t>(base.count()),
                     config_.reconnect_jitter, reconnect_prng_));
}

void TcpTransport::backoff(OutConn& out) {
  close_fd(out.fd);
  out.state = OutConn::State::kBackoff;
  out.retry_at = Clock::now() + reconnect_backoff();
}

void TcpTransport::dial(ServerId to, OutConn& out) {
  ++stats_.dials;
  out.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (out.fd < 0 || !set_nonblocking(out.fd)) {
    backoff(out);
    return;
  }
  const sockaddr_in sa = address_of(to);
  if (::connect(out.fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) == 0) {
    out.state = OutConn::State::kConnected;
    ++stats_.connects;
    set_nodelay(out.fd);
  } else if (errno == EINPROGRESS) {
    out.state = OutConn::State::kConnecting;
  } else {
    backoff(out);
  }
}

void TcpTransport::fail_out(OutConn& out) {
  if (out.state == OutConn::State::kConnected) ++stats_.resets;
  if (out.front_offset > 0) {
    // A partially written frame cannot be resumed on a fresh connection
    // (the receiver discarded its partial tail at EOF) and must not be
    // resent whole (the receiver may have gotten all of it). Drop it:
    // transient loss, recovered by gossip FWD.
    const PackedFrame& front = out.queue.front();
    metrics_.dropped += front.units;
    if (idle_) idle_->sub(front.units);
    out.queued_envelopes -= front.units;
    out.queued_bytes -= front.payload_bytes;
    out.queue.pop_front();
    out.front_offset = 0;
  }
  backoff(out);
}

void TcpTransport::flush_out(ServerId from, OutConn& out) {
  // Pack at flush time, so the batch size adapts to load: an idle link
  // packs the single envelope that woke us, a backed-up link full batches.
  for (PackedFrame& frame : pack_locked(from, out.pending, out.link->batches_sent,
                                        out.link->batched_envelopes)) {
    out.queue.push_back(std::move(frame));
  }
  // Gather-write: drain as many queued frames per syscall as iovec slots
  // allow, resuming mid-frame at front_offset.
  while (!out.queue.empty()) {
    constexpr std::size_t kMaxIov = 64;
    struct iovec iov[kMaxIov];
    std::size_t iovcnt = 0;
    std::size_t offset = out.front_offset;
    for (const PackedFrame& frame : out.queue) {
      if (iovcnt == kMaxIov) break;
      iov[iovcnt].iov_base = const_cast<std::uint8_t*>(frame.bytes.data() + offset);
      iov[iovcnt].iov_len = frame.bytes.size() - offset;
      offset = 0;
      ++iovcnt;
    }
    const auto n = ::writev(out.fd, iov, static_cast<int>(iovcnt));
    if (n > 0) {
      ++stats_.writev_calls;
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0) {
        const PackedFrame& front = out.queue.front();
        const std::size_t remaining = front.bytes.size() - out.front_offset;
        if (left < remaining) {
          out.front_offset += left;
          break;
        }
        left -= remaining;
        ++stats_.frames_sent;
        if (idle_) idle_->sub(front.units);
        out.queued_envelopes -= front.units;
        out.queued_bytes -= front.payload_bytes;
        out.queue.pop_front();
        out.front_offset = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    fail_out(out);
    return;
  }
}

void TcpTransport::service_in(InConn& in) {
  std::uint8_t buf[65536];
  for (;;) {
    const auto n = ::read(in.fd, buf, sizeof buf);
    if (n > 0) {
      in.decoder.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
      while (auto frame = in.decoder.next()) {
        if (frame->header.from >= n_) {
          ++stats_.corrupt_streams;
          close_fd(in.fd);
          in.dead = true;
          return;
        }
        in.peer = frame->header.from;
        dispatch_locked(in.owner, std::move(*frame));
      }
      if (in.decoder.corrupt()) {
        // Never resynchronise a framed stream against a byzantine peer:
        // reset the connection (the peer re-dials if it is honest).
        ++stats_.corrupt_streams;
        close_fd(in.fd);
        in.dead = true;
        return;
      }
      if (static_cast<std::size_t>(n) < sizeof buf) return;  // drained
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    // EOF or hard error: the sender redials and resumes from its queue.
    close_fd(in.fd);
    in.dead = true;
    ++stats_.resets;
    return;
  }
}

void TcpTransport::accept_all(ServerId server) {
  for (;;) {
    const int fd = ::accept(socket_fds_[server], nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: retry next poll
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    set_nodelay(fd);
    auto in = std::make_unique<InConn>();
    in->fd = fd;
    in->owner = server;
    in->decoder = FrameDecoder(config_.max_frame_payload);
    in_.push_back(std::move(in));
    ++stats_.accepts;
  }
}

void TcpTransport::service_out(OutConn& out, ServerId from, short revents) {
  if (out.fd < 0) return;  // dropped while polling
  if (out.state == OutConn::State::kConnecting) {
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(out.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0 || (revents & (POLLERR | POLLHUP)) != 0) {
      backoff(out);
      return;
    }
    out.state = OutConn::State::kConnected;
    ++stats_.connects;
    set_nodelay(out.fd);
    flush_out(from, out);
  } else if (out.state == OutConn::State::kConnected) {
    if (revents & (POLLERR | POLLHUP)) {
      fail_out(out);
    } else {
      flush_out(from, out);
    }
  }
}

TcpTransport::Clock::time_point TcpTransport::poll_prepare_locked(
    std::vector<struct pollfd>& fds) {
  using Slot = PollEntry::Slot;
  // Dial every link that wants a connection; compute the next retry.
  const auto now = Clock::now();
  auto next_retry = Clock::time_point::max();
  for (auto& [key, out] : out_) {
    if (out.queue.empty() && out.pending.empty()) continue;
    if (out.state == OutConn::State::kIdle ||
        (out.state == OutConn::State::kBackoff && now >= out.retry_at)) {
      dial(key.second, out);
    }
    if (out.state == OutConn::State::kBackoff) {
      next_retry = std::min(next_retry, out.retry_at);
    }
  }

  poll_entries_.clear();
  for (const ServerId s : local_servers()) {
    fds.push_back({socket_fds_[s], POLLIN, 0});
    poll_entries_.push_back({Slot::kAcceptor, s, 0, {0, 0}});
  }
  for (std::size_t i = 0; i < in_.size(); ++i) {
    if (in_[i]->dead) continue;
    fds.push_back({in_[i]->fd, POLLIN, 0});
    poll_entries_.push_back({Slot::kIn, 0, i, {0, 0}});
  }
  for (auto& [key, out] : out_) {
    if (out.state == OutConn::State::kConnecting ||
        (out.state == OutConn::State::kConnected &&
         (!out.queue.empty() || !out.pending.empty()))) {
      fds.push_back({out.fd, POLLOUT, 0});
      poll_entries_.push_back({Slot::kOut, 0, 0, key});
    }
  }
  return next_retry;
}

void TcpTransport::poll_ready_locked(const std::vector<struct pollfd>& fds) {
  using Slot = PollEntry::Slot;
  for (std::size_t i = 1; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    const PollEntry& e = poll_entries_[i - 1];
    switch (e.slot) {
      case Slot::kAcceptor:
        accept_all(e.server);
        break;
      case Slot::kIn: {
        InConn& in = *in_[e.index];
        // drop_connections() may have closed it while we were polling.
        if (!in.dead && in.fd >= 0) service_in(in);
        break;
      }
      case Slot::kOut: {
        const auto it = out_.find(e.key);
        if (it != out_.end()) service_out(it->second, e.key.first, fds[i].revents);
        break;
      }
    }
  }
  in_.erase(std::remove_if(in_.begin(), in_.end(),
                           [](const std::unique_ptr<InConn>& in) {
                             return in->dead;
                           }),
            in_.end());
}

}  // namespace blockdag::rt
