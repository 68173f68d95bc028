#include "net/endpoint.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>

#include "net/cluster.h"

namespace fm {
template class Engine<net::Endpoint>;
}  // namespace fm

namespace fm::net {

Endpoint::Endpoint(Cluster& cluster, NodeId id, const FmConfig& cfg,
                   const hw::FaultParams& faults, UdpSocket& sock,
                   const NetConfig& net, std::size_t nodes)
    : Engine(id, nodes, cfg, faults, "net.node" + std::to_string(id)),
      cluster_(cluster),
      sock_(sock),
      extract_budget_(net.extract_budget),
      registry_("net.node" + std::to_string(id)) {
  // UDP loses, duplicates, and reorders datagrams as a matter of course;
  // running the FM surface without FM-R here would silently violate the
  // API's delivery semantics, so the backend refuses the configuration
  // outright instead of degrading. (The engine already refused FM-R
  // without flow control.)
  FM_CHECK_MSG(cfg.reliability,
               "the net backend requires FM-R (cfg.reliability): UDP is a "
               "genuinely lossy substrate");
  rx_buf_.resize(max_wire_bytes(cfg.frame_payload));
  // FM-Burst mode resolution. The test hooks are installed first so the
  // GSO capability probe below sees a forced-unsupported socket.
  sock_.set_debug_wouldblock_every(net.debug_wouldblock_every);
  if (net.debug_force_no_gso) sock_.force_gso_unsupported();
  sock_.set_debug_gso_fail_after(net.debug_gso_fail_after);
  tx_batch_on_ = net.tx_batch > 0;
  busy_poll_spin_us_ = net.busy_poll_spin_us > 0 ? net.busy_poll_spin_us : 0;
  tx_wire_max_ = max_wire_bytes(cfg.frame_payload);
  if (tx_batch_on_) {
    // GSO is only honoured on top of batching (the coalescing window IS
    // the staging ring), and only when the kernel passes the probe AND
    // accepts UDP_GRO — a sender-side train needs every receiver ready for
    // coalesced buffers, and all ranks resolve this identically from the
    // same config. Anything short of full support falls back to sendmmsg.
    gso_on_ = net.gso > 0 && sock_.gso_supported() && sock_.enable_gro();
    tx_cap_ = net.max_tx_burst;
    if (tx_cap_ < 1) tx_cap_ = 1;
    if (tx_cap_ > UdpSocket::kMaxBatch) tx_cap_ = UdpSocket::kMaxBatch;
    tx_stage_.resize(tx_cap_ * tx_wire_max_);
    tx_ring_.resize(tx_cap_);
    // RX slab: with GRO each buffer must hold a worst-case train (64
    // coalesced segments, capped by the 64 KiB datagram ceiling), so take
    // fewer, bigger slots; without it one buffer is one frame.
    if (gso_on_) {
      rx_stride_ = std::min<std::size_t>(65535,
                                         tx_wire_max_ * UdpSocket::kMaxBatch);
      rx_slots_ = 8;
    } else {
      rx_stride_ = tx_wire_max_;
      rx_slots_ = UdpSocket::kMaxBatch;
    }
    rx_slab_.resize(rx_slots_ * rx_stride_);
    rx_msgs_.resize(rx_slots_);
  }
  // Construction runs in this node's process before any frame moves:
  // the constructing context owns both the registry and the trace ring.
  registry_.assert_owner();
  trace_.assert_writer();
  register_metrics(registry_);
  // The socket layer beneath the protocol counters: what the "NIC" did.
  registry_.counter("datagrams_tx", &datagrams_tx_);
  registry_.counter("datagrams_rx", &datagrams_rx_);
  registry_.counter("ewouldblock_stalls", &ewouldblock_stalls_);
  registry_.counter("send_errors", &send_errors_);
  registry_.counter("stray_datagrams", &stray_datagrams_);
  registry_.counter("kernel_drops", &kernel_drops_);
  // FM-Burst counters: registered in every mode (all-zero when batching is
  // off) so the bench/CI artifact schema is uniform across the mode matrix.
  registry_.counter("batch_tx_frames", &batch_tx_frames_);
  registry_.counter("batch_syscalls", &batch_syscalls_);
  registry_.counter("gso_segments", &gso_segments_);
  registry_.counter("busy_poll_hits", &busy_poll_hits_);
  registry_.counter("gso_fallbacks", &gso_fallbacks_);
  cat_stall_ = trace_.intern("tx_stall");
}

void Endpoint::wire_idle() {
  // Never park with frames staged: the peer we are waiting on may be
  // waiting on exactly those bytes.
  if (tx_batch_on_ && tx_staged_ > 0) flush_tx_batch();
  // Busy-poll hybrid: burn the spin budget on zero-timeout readiness
  // checks first. A ping-pong peer answers in microseconds — catching the
  // reply here skips the sleep/wakeup round trip that otherwise dominates
  // t0 on an idle socket.
  if (busy_poll_spin_us_ > 0) {
    const std::uint64_t deadline =
        wire_clock_ns() +
        static_cast<std::uint64_t>(busy_poll_spin_us_) * 1000ull;
    do {
      if (sock_.readable_now()) {
        ++busy_poll_hits_;
        return;
      }
    } while (wire_clock_ns() < deadline);
  }
  // The poll loop that drives this backend: park on the socket instead of
  // spinning, but never longer than a fraction of the retransmit timeout —
  // the FM-R timers only tick inside extract(), so sleeping past a
  // deadline would stretch every recovery.
  const int timeout_ms = std::max(
      1, static_cast<int>(config().retransmit_timeout_ns / 4'000'000ull));
  (void)sock_.wait_readable(std::min(timeout_ms, 10));
}

std::uint64_t Endpoint::wire_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

WireStatus Endpoint::wire_push(NodeId dest, const std::uint8_t* frame,
                               std::size_t len) {
  trace_.assert_writer();
  // Latency bypass inside batched mode: with the staging ring empty and no
  // other frame in flight (in_flight counts this one — it is already in
  // the window), there is no burst to amortize. Staging would add a copy
  // and defer the wire-out to the next flush point for nothing, so a
  // latency-sensitive lone frame (the send4 ping-pong t0, a standalone
  // ack, a solo retransmission) takes the single-shot path below instead.
  // The first frame of a pipelined stream escapes the batch the same way;
  // every subsequent one sees in_flight > 1 and stages.
  if (tx_batch_on_ && (tx_staged_ > 0 || unacked() > 1)) {
    // Batched mode: stage a copy and let the next flush point carry it out
    // with the rest of the burst (extract() entry/exit, a full ring, or
    // idle — a frame is never parked on across a poll()).
    if (tx_staged_ == tx_cap_) {
      flush_tx_batch();
      if (tx_staged_ == tx_cap_) {
        // Ring still full: the kernel would not take the burst.
        if (trace_.enabled())
          trace_.event(wire_clock_ns(), cat_stall_, 'i', dest, 0);
        return WireStatus::kFull;
      }
    }
    const std::size_t idx = (tx_head_ + tx_staged_) % tx_cap_;
    std::uint8_t* slot = tx_stage_.data() + idx * tx_wire_max_;
    std::memcpy(slot, frame, len);
    tx_ring_[idx] = UdpSocket::TxFrame{slot, static_cast<std::uint32_t>(len),
                                       &cluster_.addr(dest)};
    ++tx_staged_;
    if (tx_staged_ == tx_cap_) flush_tx_batch();
    return WireStatus::kSent;
  }
  switch (sock_.send_to(cluster_.addr(dest), frame, len)) {
    case UdpSocket::SendResult::kOk:
      ++datagrams_tx_;
      return WireStatus::kSent;
    case UdpSocket::SendResult::kError:
      // The kernel refused the datagram for good: count it and let the
      // retransmit timer recover the frame, exactly as if the wire ate it.
      ++send_errors_;
      return WireStatus::kError;
    case UdpSocket::SendResult::kWouldBlock:
      break;
  }
  // EWOULDBLOCK / ENOBUFS is backpressure.
  ++ewouldblock_stalls_;
  if (trace_.enabled()) trace_.event(wire_clock_ns(), cat_stall_, 'i', dest, 0);
  return WireStatus::kFull;
}

std::size_t Endpoint::wire_flush() {
  if (tx_batch_on_) flush_tx_batch();
  return tx_staged_;
}

void Endpoint::flush_tx_batch() {
  if (in_tx_flush_ || tx_staged_ == 0) return;
  trace_.assert_writer();
  in_tx_flush_ = true;
  while (tx_staged_ > 0) {
    bool blocked = false;
    std::size_t gso_run = 0;
    if (gso_on_) {
      // A run of equal-size frames to one destination at the ring head can
      // travel as a single UDP_SEGMENT train. Address comparison is by
      // pointer: every staged addr points into the Cluster's per-node
      // table, so same pointer ⇔ same destination.
      const UdpSocket::TxFrame& head = tx_ring_[tx_head_];
      gso_run = 1;
      while (gso_run < tx_staged_ && gso_run < UdpSocket::kMaxBatch) {
        const UdpSocket::TxFrame& f = tx_ring_[(tx_head_ + gso_run) % tx_cap_];
        if (f.addr != head.addr || f.len != head.len) break;
        ++gso_run;
      }
    }
    if (gso_run >= 2) {
      const UdpSocket::TxFrame& head = tx_ring_[tx_head_];
      for (std::size_t i = 0; i < gso_run; ++i) {
        const UdpSocket::TxFrame& f = tx_ring_[(tx_head_ + i) % tx_cap_];
        gso_iov_[i].iov_base = const_cast<void*>(f.data);
        gso_iov_[i].iov_len = f.len;
      }
      const UdpSocket::SendResult s = sock_.send_gso(
          *head.addr, gso_iov_, gso_run, static_cast<std::uint16_t>(head.len));
      ++batch_syscalls_;
      if (s == UdpSocket::SendResult::kWouldBlock) {
        blocked = true;
      } else if (s == UdpSocket::SendResult::kOk) {
        datagrams_tx_ += gso_run;
        batch_tx_frames_ += gso_run;
        gso_segments_ += gso_run;
        tx_head_ = (tx_head_ + gso_run) % tx_cap_;
        tx_staged_ -= gso_run;
      } else {
        // kError on a train the probe said the kernel could segment: some
        // kernels accept the zero-size UDP_SEGMENT probe yet EIO/EINVAL a
        // live train later. No segment touched the wire, so every staged
        // frame is still ours — discarding the train here (the old
        // behaviour) silently lost up to kMaxBatch frames per burst and
        // leaned on FM-R to re-earn them. Instead: disable GSO for the
        // rest of this endpoint's life and come round the loop, where the
        // sendmmsg branch resends the same frames single-shot.
        gso_on_ = false;
        ++gso_fallbacks_;
      }
    } else {
      // sendmmsg over the contiguous span at the head (a wrapped ring is
      // two spans; the loop comes round for the second). In GSO mode a
      // lone head frame goes out by itself so the next iteration can
      // re-examine the run forming behind it.
      std::size_t span = std::min(tx_staged_, tx_cap_ - tx_head_);
      if (gso_on_) span = 1;
      const UdpSocket::BatchResult r =
          sock_.send_batch(&tx_ring_[tx_head_], span);
      datagrams_tx_ += r.sent;
      batch_tx_frames_ += r.sent;
      send_errors_ += r.errors;
      batch_syscalls_ += r.syscalls;
      tx_head_ = (tx_head_ + r.consumed) % tx_cap_;
      tx_staged_ -= r.consumed;
      blocked = r.would_block;
    }
    if (blocked) {
      // Transient backpressure mid-burst: the unsent tail stays staged (in
      // order, still owned by us) and a later flush point retries it. No
      // frame is lost and none is sent twice — the short-count tests pin
      // this down.
      ++ewouldblock_stalls_;
      if (trace_.enabled())
        trace_.event(wire_clock_ns(), cat_stall_, 'i', 0, 0);
      break;
    }
  }
  in_tx_flush_ = false;
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

std::size_t Endpoint::wire_receive() {
  std::size_t count = 0;
  // Bounded drain of the socket: one datagram is one frame, processed in
  // place in the preallocated receive buffer. The budget keeps a peer
  // blasting datagrams at us from starving the engine's retransmission
  // and ack work (the same discipline as the shm ring budget).
  if (tx_batch_on_) {
    // Batched drain: one recvmmsg fills the slab with up to rx_slots_
    // buffers (each possibly a GRO train), amortizing the kernel crossing
    // over the burst.
    std::size_t seen = 0;
    while (seen < extract_budget_) {
      const std::size_t want = std::min(rx_slots_, extract_budget_ - seen);
      const std::size_t m =
          sock_.recv_batch(rx_slab_.data(), rx_stride_, want, rx_msgs_.data());
      if (m == 0) break;
      ++batch_syscalls_;
      for (std::size_t i = 0; i < m; ++i)
        process_rx_buffer(rx_msgs_[i], rx_slab_.data() + i * rx_stride_,
                          &seen, &count);
      if (m < want) break;  // queue ran dry mid-burst
    }
  } else {
    for (std::size_t i = 0; i < extract_budget_; ++i) {
      std::uint16_t src_port = 0;
      const long n = sock_.recv_one(rx_buf_.data(), rx_buf_.size(), &src_port);
      if (n < 0) break;
      ++datagrams_rx_;
      NodeId from = kInvalidNode;
      if (!cluster_.node_for_port(src_port, &from)) {
        // Real networks deliver strays (a late datagram from a previous
        // run, a port scan): count and drop, never crash.
        ++stray_datagrams_;
        continue;
      }
      heard_from(from);
      ++count;
      receive(from, rx_buf_.data(), static_cast<std::size_t>(n));
      flush_deferred_tx();
    }
  }
  kernel_drops_ = sock_.kernel_drops();
  return count;
}

void Endpoint::process_rx_buffer(const UdpSocket::RxMsg& m,
                                 const std::uint8_t* base, std::size_t* seen,
                                 std::size_t* count) {
  NodeId from = kInvalidNode;
  const bool known = cluster_.node_for_port(m.src_port, &from);
  if (known) heard_from(from);
  if (m.len == 0) {
    // An empty datagram carries no frame; account for it and move on (the
    // GRO split below would otherwise make no progress on it).
    ++*seen;
    ++datagrams_rx_;
    if (known)
      ++stats_.malformed_frames;
    else
      ++stray_datagrams_;
    return;
  }
  // A GRO buffer is a train: every gro_seg_len bytes is one original wire
  // datagram (the last may be shorter). A plain datagram is a train of one.
  const std::size_t seg = m.gro_seg_len != 0 ? m.gro_seg_len : m.len;
  for (std::size_t off = 0; off < m.len; off += seg) {
    const std::size_t flen = std::min<std::size_t>(seg, m.len - off);
    ++*seen;
    ++datagrams_rx_;
    if (!known) {
      // Real networks deliver strays (a late datagram from a previous run,
      // a port scan): count and drop, never crash.
      ++stray_datagrams_;
      continue;
    }
    ++*count;
    receive(from, base + off, flen);
    flush_deferred_tx();
  }
}

}  // namespace fm::net
