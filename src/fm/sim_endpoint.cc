#include "fm/sim_endpoint.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"

namespace fm {

SimEndpoint::SimEndpoint(hw::Node& node, FmConfig cfg,
                         lcp::FmLcpConfig lcp_cfg)
    : node_(node),
      cfg_(cfg),
      host_rx_(node.nic().lanai().simulator(),
               node.params().queues.host_recv_frames),
      lcp_(node, node.params(), lcp_cfg),
      window_(cfg.pending_window, max_wire_bytes(cfg.frame_payload)),
      reasm_(cfg.reassembly_slots),
      timer_(cfg.retransmit_timeout_ns, cfg.max_retries),
      trace_("sim.node" + std::to_string(node.id())),
      registry_("sim.node" + std::to_string(node.id())) {
  FM_CHECK_MSG(!cfg.reliability || cfg.flow_control,
               "FM-R reliability requires flow control");
  lcp_.attach_host_recv(&host_rx_);
  // Construction runs on the simulator's driving thread before any
  // coroutine fires: the constructing context owns registry and trace.
  registry_.assert_owner();
  trace_.assert_writer();
  // FM-Scope: every Stats field by name, the LCP's counters and Figure 6
  // queue gauges, and this layer's own occupancy gauges.
  stats_.register_into(registry_);
  lcp_.register_obs(registry_);
  registry_.gauge("q.reject_depth",
                  [this] { return static_cast<double>(rejq_.size()); });
  registry_.gauge("window.in_flight",
                  [this] { return static_cast<double>(window_.in_flight()); });
  registry_.gauge("reasm.active",
                  [this] { return static_cast<double>(reasm_.active()); });
  registry_.gauge("acks.due",
                  [this] { return static_cast<double>(acks_.total_due()); });
  registry_.gauge("timers.armed",
                  [this] { return static_cast<double>(timer_.armed()); });
  registry_.gauge("credits.available", [this] {
    double n = 0;
    for (const auto& [peer, c] : credits_) n += static_cast<double>(c);
    return n;
  });
  cat_send_ = trace_.intern("send");
  cat_deliver_ = trace_.intern("deliver");
  cat_retransmit_ = trace_.intern("retransmit");
  cat_reject_ = trace_.intern("reject");
  cat_crc_drop_ = trace_.intern("crc_drop");
  cat_dead_peer_ = trace_.intern("dead_peer");
}

SimEndpoint::~SimEndpoint() = default;

void SimEndpoint::start() {
  FM_CHECK_MSG(!started_, "endpoint already started");
  started_ = true;
  lcp_.start();
}

void SimEndpoint::shutdown() {
  if (started_) lcp_.request_stop();
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

sim::Op<Status> SimEndpoint::send4(NodeId dest, HandlerId handler,
                                   std::uint32_t w0, std::uint32_t w1,
                                   std::uint32_t w2, std::uint32_t w3) {
  std::uint32_t words[4] = {w0, w1, w2, w3};
  co_return co_await send(dest, handler, words, sizeof words);
}

sim::Op<Status> SimEndpoint::send(NodeId dest, HandlerId handler,
                                  const void* buf, std::size_t len) {
  if (!handlers_.valid(handler) || (len > 0 && buf == nullptr))
    co_return Status::kBadArgument;
  if (cfg_.reliability && peer_dead(dest)) co_return Status::kPeerDead;
  ++stats_.messages_sent;
  const auto* bytes = static_cast<const std::uint8_t*>(buf);
  if (len <= cfg_.frame_payload) {
    Status s = co_await send_data_frame(dest, handler, bytes, len,
                                        /*fragmented=*/false, 0, 0, 1);
    // Counted sent, then refused by a dead peer: abandoned, for the
    // conservation invariant (sent == delivered + abandoned).
    if (s == Status::kPeerDead) ++stats_.messages_abandoned;
    co_return s;
  }
  // Segmentation: "Larger messages will require segmentation and reassembly
  // into frames of this size" (§5).
  const std::size_t per = cfg_.frame_payload;
  const std::size_t frags = (len + per - 1) / per;
  if (frags > 0xffff) co_return Status::kTooLarge;
  const std::uint32_t msg_id = next_msg_id_++;
  for (std::size_t i = 0; i < frags; ++i) {
    const std::size_t off = i * per;
    const std::size_t n = std::min(per, len - off);
    Status s = co_await send_data_frame(
        dest, handler, bytes + off, n, /*fragmented=*/true, msg_id,
        static_cast<std::uint16_t>(i), static_cast<std::uint16_t>(frags));
    if (!ok(s)) {
      if (s == Status::kPeerDead) ++stats_.messages_abandoned;
      co_return s;
    }
  }
  co_return Status::kOk;
}

sim::Op<Status> SimEndpoint::send_data_frame(
    NodeId dest, HandlerId handler, const std::uint8_t* payload,
    std::size_t len, bool fragmented, std::uint32_t msg_id,
    std::uint16_t frag_index, std::uint16_t frag_count) {
  trace_.assert_writer();  // one simulator thread drives every coroutine
  auto& cpu = node_.cpu();
  const auto& hc = node_.params().hostsw;
  // Flow control: wait for a pending-store slot — and, in window mode, a
  // credit for this destination — servicing the network while blocked (the
  // FM discipline that prevents fetch deadlock).
  auto blocked = [&] {
    if (!cfg_.flow_control) return false;
    if (window_.full()) return true;
    if (cfg_.window_mode) {
      auto it = credits_.find(dest);
      if (it == credits_.end()) {
        credits_[dest] = cfg_.window_per_peer;
        return false;
      }
      return it->second == 0;
    }
    return false;
  };
  while (blocked()) {
    // A dead destination frees no window slots; fail instead of hanging.
    if (cfg_.reliability && peer_dead(dest)) co_return Status::kPeerDead;
    // Flag the spin so the reject-queue tick inside extract() leaves one
    // window slot for this frame (bounce-release + retry-re-track inside a
    // single extract() call would otherwise starve the blocked sender).
    const bool outer_spin = send_blocked_spin_;  // nested sends restore it
    send_blocked_spin_ = true;
    std::size_t n = co_await extract();
    send_blocked_spin_ = outer_spin;
    if (blocked() && n == 0) co_await idle_wait();
  }
  if (cfg_.reliability && peer_dead(dest)) co_return Status::kPeerDead;
  if (cfg_.flow_control && cfg_.window_mode) {
    FM_CHECK(credits_[dest] > 0);
    --credits_[dest];
  }
  FrameHeader h;
  h.type = FrameType::kData;
  h.handler = handler;
  h.src = id();
  h.payload_len = static_cast<std::uint16_t>(len);
  if (cfg_.crc_frames) h.flags |= FrameHeader::kFlagCrc;
  std::vector<std::uint32_t> piggy;
  if (cfg_.flow_control) {
    h.seq = window_.next_seq(dest);
    piggy = acks_.take(dest, cfg_.piggyback_acks);
    h.ack_count = static_cast<std::uint8_t>(piggy.size());
    stats_.acks_piggybacked += piggy.size();
  }
  if (fragmented) {
    h.flags |= FrameHeader::kFlagFragmented;
    h.msg_id = msg_id;
    h.frag_index = frag_index;
    h.frag_count = frag_count;
  }
  // Header construction + queue-space check on the host.
  co_await cpu.exec(hc.fm_send_setup_cycles +
                    (cfg_.flow_control ? hc.fm_flowctl_send_cycles : 0));
  std::vector<std::uint8_t> bytes =
      encode_frame(h, payload, piggy.empty() ? nullptr : piggy.data());
  // The CRC is host arithmetic over every frame byte, charged like the
  // Myricom API's checksum so the integrity feature's cost stays visible.
  if (cfg_.crc_frames)
    co_await cpu.exec(hc.fm_crc_cycles_per_byte * static_cast<int>(bytes.size()));
  if (cfg_.flow_control) {
    window_.track(dest, h.seq, bytes.data(), bytes.size());
    if (cfg_.reliability) timer_.arm(dest, h.seq, now_ns());
  }
  ++stats_.frames_sent;
  if (trace_.enabled()) trace_.event(now_ns(), cat_send_, 'i', dest, h.seq);
  co_await inject(dest, std::move(bytes));
  co_return Status::kOk;
}

// Idle wait used while blocked on the window or draining: normally we sleep
// until the LANai delivers something, but with FM-R armed timers time itself
// is a wake-up source — a lost frame produces no delivery, only a deadline.
sim::Op<> SimEndpoint::idle_wait() {
  if (cfg_.reliability && (timer_.armed() > 0 || rejq_.size() > 0)) {
    std::uint64_t poll =
        std::max<std::uint64_t>(cfg_.retransmit_timeout_ns / 2, 10'000);
    co_await sim().delay(static_cast<sim::Time>(poll) * 1000);  // ns -> ps
  } else {
    co_await host_rx_.arrived().wait();
  }
}

sim::Op<> SimEndpoint::inject(NodeId dest, std::vector<std::uint8_t> bytes) {
  auto& cpu = node_.cpu();
  auto& sbus = node_.sbus();
  const auto& hc = node_.params().hostsw;
  // Wait for LANai send-queue space: the host polls its shadow of the
  // lanaisent counter; re-reading it is an uncached SBus load.
  while (lcp_.send_space() == 0) {
    co_await sbus.pio_read();
    if (lcp_.send_space() == 0) co_await lcp_.host_wake().wait();
  }
  // Hybrid architecture: the host spools the frame into LANai memory by
  // double-word programmed I/O, then triggers by advancing hostsent.
  co_await sbus.pio_write(bytes.size());
  hw::Packet pkt;
  pkt.id = node_.nic().next_packet_id();
  pkt.dest = dest;
  pkt.bytes = std::move(bytes);
  bool queued = lcp_.host_enqueue(std::move(pkt));
  FM_CHECK_MSG(queued, "send queue raced despite space check");
  co_await cpu.exec(hc.fm_trigger_cycles);
  co_await sbus.pio_write(8);  // the hostsent counter store
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

sim::Op<std::size_t> SimEndpoint::extract() {
  trace_.assert_writer();  // one simulator thread drives every coroutine
  auto& cpu = node_.cpu();
  auto& sbus = node_.sbus();
  const auto& hc = node_.params().hostsw;
  co_await cpu.exec(hc.fm_poll_cycles);
  std::size_t count = 0;
  // Bounded batch: without a budget, a peer that keeps the queue non-empty
  // (e.g. a rejection storm against a starved reassembly pool) would trap
  // this loop forever and starve the post-loop work — retransmission ticks
  // and ack flushes — on which *other* peers' progress depends.
  const std::size_t budget = host_rx_.ring().capacity();
  hw::Packet pkt;
  while (count < budget && host_rx_.take(pkt)) {
    ++count;
    ++stats_.frames_received;
    co_await process_frame(std::move(pkt));
    if (++consumed_since_update_ >= cfg_.consumed_update_batch) {
      consumed_since_update_ = 0;
      co_await sbus.pio_write(8);  // consumed-counter store frees LCP space
      node_.nic().ring_doorbell();
    }
  }
  if (count > 0 && consumed_since_update_ > 0) {
    consumed_since_update_ = 0;
    co_await sbus.pio_write(8);
    node_.nic().ring_doorbell();
  }
  // Retransmit rejected frames whose backoff expired. With FM-R the timer
  // is re-armed fresh: a rejection proves the peer alive, so it resets the
  // retry budget.
  // The retry re-enters the pending window (its bounce released the slot)
  // so a lost retry can be re-sourced by timeout retransmission; when the
  // window is momentarily full the entry waits out another backoff period.
  for (auto& entry : rejq_.tick(cfg_.reject_retry_delay)) {
    if (cfg_.reliability && dead_peers_.count(entry.dest) > 0) {
      ++stats_.frames_discarded_dead;
      continue;
    }
    // Leave one slot for a sender spinning in the blocked-send loop: its
    // fresh fragment may be the one that completes an admitted reassembly
    // at the rejecting peer, unwedging everyone bouncing off that slot.
    if (window_.space() <= (send_blocked_spin_ ? 1u : 0u)) {
      rejq_.add(entry.dest, entry.seq, std::move(entry.bytes));
      continue;
    }
    ++stats_.retransmissions;
    if (trace_.enabled())
      trace_.event(now_ns(), cat_retransmit_, 'i', entry.dest, entry.seq);
    window_.track(entry.dest, entry.seq, entry.bytes.data(),
                  entry.bytes.size());
    if (cfg_.reliability) timer_.arm(entry.dest, entry.seq, now_ns());
    co_await inject(entry.dest, std::move(entry.bytes));
  }
  if (cfg_.reliability) co_await reliability_tick();
  // Lossy reclamation for unreliable profiles only: a genuinely lost
  // fragment would otherwise pin a receive-pool slot forever. Under FM-R
  // the sweep would instead *cause* loss (see reliability_tick()).
  if (!cfg_.reliability && cfg_.reassembly_ttl_ns > 0 &&
      reasm_.active() > 0) {
    const std::uint64_t now = now_ns();
    if (now > cfg_.reassembly_ttl_ns)
      stats_.reassemblies_expired +=
          reasm_.expire_older_than(now - cfg_.reassembly_ttl_ns);
  }
  // Standalone acks for peers owed a batch. The threshold must stay below
  // half a peer's in-flight allotment (its pending window, or its credit
  // allotment in window mode) or senders stall with their window full
  // while we sit on their acks. Configurations are symmetric (SPMD), so
  // our own config tells us the peers' limits.
  if (cfg_.flow_control) {
    std::size_t limit =
        cfg_.window_mode ? cfg_.window_per_peer : cfg_.pending_window;
    std::size_t threshold =
        std::min(cfg_.ack_batch, std::max<std::size_t>(1, limit / 2));
    for (NodeId peer : acks_.peers_over(threshold))
      co_await send_standalone_ack(peer);
  }
  co_return count;
}

sim::Op<std::size_t> SimEndpoint::extract_blocking() {
  while (host_rx_.ring().empty()) co_await host_rx_.arrived().wait();
  co_return co_await extract();
}

sim::Op<> SimEndpoint::drain() {
  for (;;) {
    // Flush every owed ack so peers can finish their own drains.
    if (cfg_.flow_control) {
      for (NodeId peer : acks_.peers()) co_await send_standalone_ack(peer);
    }
    if ((window_.in_flight() == 0 || !cfg_.flow_control) && rejq_.size() == 0)
      co_return;
    std::size_t n = co_await extract();
    // Re-check before sleeping: extract() itself can finish the drain (a
    // dead-peer purge empties the window with no frame consumed), and with
    // no timers left armed idle_wait() would sleep on an arrival that is
    // never coming.
    if ((window_.in_flight() == 0 || !cfg_.flow_control) && rejq_.size() == 0)
      co_return;
    if (n == 0) co_await idle_wait();
  }
}

sim::Op<> SimEndpoint::reliability_tick() {
  trace_.assert_writer();  // one simulator thread drives every coroutine
  const std::uint64_t now = now_ns();
  for (const auto& due : timer_.expired(now)) {
    if (due.exhausted) {
      mark_peer_dead(due.dest);
      continue;
    }
    const SendWindow::Stored stored = window_.find(due.dest, due.seq);
    if (stored.data == nullptr) continue;  // acked while the due list was built
    ++stats_.retransmit_timeouts;
    ++stats_.retransmissions;
    if (trace_.enabled())
      trace_.event(now_ns(), cat_retransmit_, 'i', due.dest, due.seq);
    co_await inject(due.dest,
                    std::vector<std::uint8_t>(stored.data,
                                              stored.data + stored.len));
  }
  // No reassembly-TTL sweep under FM-R: expiring a partial here is silent
  // message loss — the erased fragments were already acked, so their
  // sender retains nothing to retransmit. Live peers' partials always
  // complete; dead peers' slots are freed by mark_peer_dead(). The
  // unreliable-profile sweep lives in extract().
}

void SimEndpoint::mark_peer_dead(NodeId peer) {
  if (!dead_peers_.insert(peer).second) return;
  trace_.assert_writer();  // one simulator thread drives every coroutine
  ++stats_.peers_dead;
  if (trace_.enabled()) trace_.event(now_ns(), cat_dead_peer_, 'i', peer, 0);
  // Graceful degradation, not a hang: free every resource aimed at (or held
  // for) the dead peer so blocked senders wake up and fail with kPeerDead.
  stats_.frames_discarded_dead += window_.drop_dest(peer);
  timer_.disarm_all(peer);
  stats_.frames_discarded_dead += rejq_.drop_dest(peer);
  acks_.forget(peer);
  dedup_.forget(peer);
  reasm_.abort(peer);
  credits_.erase(peer);
}

std::uint64_t SimEndpoint::now_ns() {
  return static_cast<std::uint64_t>(sim().now() / 1000);  // ps -> ns
}

sim::Op<> SimEndpoint::process_frame(hw::Packet pkt) {
  trace_.assert_writer();  // one simulator thread drives every coroutine
  auto& cpu = node_.cpu();
  const auto& hc = node_.params().hostsw;
  // A dead verdict is final for the peer's incoming frames too: the purge
  // forgot its dedup state, so a late retransmission would be redelivered.
  if (peer_dead(pkt.src)) {
    ++stats_.frames_discarded_dead;
    co_return;
  }
  auto hdr = decode_header(pkt.bytes.data(), pkt.bytes.size());
  if (!hdr.has_value()) {
    // Wire garbage (only possible with fault injection): FM has no
    // checksums — an undecodable frame is dropped, a decodable-but-corrupt
    // one is delivered wrong. "The network is assumed to be reliable, or
    // fault-tolerance must be provided by a higher level protocol" (§4.5).
    ++stats_.malformed_frames;
    co_return;
  }
  const FrameHeader& h = *hdr;
  co_await cpu.exec(hc.fm_dispatch_cycles +
                    (cfg_.flow_control ? hc.fm_flowctl_recv_cycles : 0));
  if (h.has_crc()) {
    // Verification reads every byte — charged like the API's checksum.
    co_await cpu.exec(hc.fm_crc_cycles_per_byte *
                      static_cast<int>(pkt.bytes.size()));
    if (!frame_crc_ok(h, pkt.bytes.data())) {
      // Corruption *detected*: drop without acking — the sender's
      // retransmit timer turns detection into recovery.
      ++stats_.crc_drops;
      if (trace_.enabled())
        trace_.event(now_ns(), cat_crc_drop_, 'i', pkt.src, h.seq);
      co_return;
    }
  }
  // Piggybacked acks are processed for every frame type. The acking peer is
  // the transport-level source (pkt.src): seqs are per-(sender, dest), and
  // only the destination of a frame ever acks it.
  for (std::size_t i = 0; i < h.ack_count; ++i) {
    std::uint32_t seq = frame_ack(h, pkt.bytes.data(), i);
    if (cfg_.reliability) timer_.disarm(pkt.src, seq);
    if (window_.ack(pkt.src, seq) && cfg_.window_mode) ++credits_[pkt.src];
  }
  switch (h.type) {
    case FrameType::kAck:
      break;  // nothing beyond the acks themselves
    case FrameType::kReject: {
      // One of our frames came back: park it for retransmission. Its timer
      // is suspended while parked (the rejq tick re-arms on re-injection),
      // and its window slot is freed with it — a bounced frame is not in
      // the network, and leaving it pinned head-of-line blocks fragments
      // bound for other peers (two senders bouncing off each other's full
      // receive pools would deadlock waiting for window space).
      ++stats_.rejects_received;
      if (cfg_.reliability) timer_.disarm(pkt.src, h.seq);
      rejq_.add(pkt.src, h.seq, strip_acks(h, pkt.bytes.data()));
      window_.bounce(pkt.src, h.seq);
      break;
    }
    case FrameType::kData: {
      // A corrupted-but-decodable frame can carry a garbage handler id;
      // real FM would jump through a garbage function pointer, we drop.
      if (!handlers_.valid(h.handler)) {
        ++stats_.malformed_frames;
        co_return;
      }
      const bool rel = cfg_.flow_control && cfg_.reliability;
      if (rel && dedup_.seen(pkt.src, h.seq)) {
        // A retransmitted copy of something already accepted: re-ack (the
        // previous ack may be the thing that was lost) but never redeliver.
        ++stats_.duplicates_suppressed;
        acks_.note(pkt.src, h.seq);
        break;
      }
      // All per-peer state is keyed by the transport source, never h.src:
      // without a CRC a corrupted header could otherwise direct acks and
      // rejects at a node that does not exist.
      const std::uint8_t* payload = frame_payload(h, pkt.bytes.data());
      if (h.fragmented()) {
        std::vector<std::uint8_t> message;
        switch (reasm_.feed(pkt.src, h, payload, &message, now_ns())) {
          case Reassembler::Feed::kMalformed:
            ++stats_.malformed_frames;
            co_return;
          case Reassembler::Feed::kRejected:
            ++stats_.rejects_issued;
            if (trace_.enabled())
              trace_.event(now_ns(), cat_reject_, 'i', pkt.src, h.seq);
            co_await send_reject(pkt.src, h, pkt.bytes.data());
            co_return;  // not accepted: no ack, no dedup mark
          case Reassembler::Feed::kAccepted:
            break;
          case Reassembler::Feed::kComplete:
            ++stats_.messages_delivered;
            if (trace_.enabled())
              trace_.event(now_ns(), cat_deliver_, 'i', pkt.src, h.seq);
            handlers_.dispatch(h.handler, *this, pkt.src, message.data(),
                               message.size());
            co_await drain_posted();
            break;
        }
      } else {
        ++stats_.messages_delivered;
        if (trace_.enabled())
          trace_.event(now_ns(), cat_deliver_, 'i', pkt.src, h.seq);
        handlers_.dispatch(h.handler, *this, pkt.src, payload, h.payload_len);
        co_await drain_posted();
      }
      if (rel) dedup_.mark(pkt.src, h.seq);
      if (cfg_.flow_control) acks_.note(pkt.src, h.seq);
      break;
    }
  }
}

sim::Op<> SimEndpoint::drain_posted() {
  if (draining_posted_) co_return;  // a posted send's extract re-entered
  draining_posted_ = true;
  while (!posted_.empty()) {
    Posted p = std::move(posted_.front());
    posted_.erase(posted_.begin());
    Status s = co_await send(p.dest, p.handler, p.payload.data(),
                             p.payload.size());
    // A posted reply to a peer that died while queued is dropped, not a
    // crash: the dead-peer contract is "error out rather than hang".
    FM_CHECK_MSG(ok(s) || s == Status::kPeerDead, "posted send failed");
  }
  draining_posted_ = false;
}

sim::Op<> SimEndpoint::send_standalone_ack(NodeId peer) {
  auto acks = acks_.take(peer, 255);
  if (acks.empty()) co_return;
  FrameHeader h;
  h.type = FrameType::kAck;
  h.src = id();
  h.ack_count = static_cast<std::uint8_t>(acks.size());
  if (cfg_.crc_frames) h.flags |= FrameHeader::kFlagCrc;
  ++stats_.acks_standalone;
  co_await node_.cpu().exec(node_.params().hostsw.fm_send_setup_cycles);
  std::vector<std::uint8_t> bytes = encode_frame(h, nullptr, acks.data());
  if (cfg_.crc_frames)
    co_await node_.cpu().exec(node_.params().hostsw.fm_crc_cycles_per_byte *
                              static_cast<int>(bytes.size()));
  co_await inject(peer, std::move(bytes));
}

sim::Op<> SimEndpoint::send_reject(NodeId to, const FrameHeader& h,
                                   const std::uint8_t* data) {
  // Return the frame to its sender (the transport source — a corrupted
  // header's h.src is not trustworthy) with the type flipped; acks it
  // carried were already consumed here, so strip them.
  FrameHeader rh = h;
  rh.type = FrameType::kReject;
  rh.ack_count = 0;
  // rh inherits the CRC flag, so encode_frame recomputes a valid trailer.
  std::vector<std::uint8_t> bytes =
      encode_frame(rh, frame_payload(h, data), nullptr);
  co_await node_.cpu().exec(node_.params().hostsw.fm_send_setup_cycles);
  if (rh.has_crc())
    co_await node_.cpu().exec(node_.params().hostsw.fm_crc_cycles_per_byte *
                              static_cast<int>(bytes.size()));
  co_await inject(to, std::move(bytes));
}

std::vector<std::uint8_t> SimEndpoint::strip_acks(const FrameHeader& h,
                                                  const std::uint8_t* data) {
  FrameHeader clean = h;
  clean.type = FrameType::kData;
  clean.ack_count = 0;
  return encode_frame(clean, frame_payload(h, data), nullptr);
}

void SimEndpoint::post_send4(NodeId dest, HandlerId handler, std::uint32_t w0,
                             std::uint32_t w1, std::uint32_t w2,
                             std::uint32_t w3) {
  std::uint32_t words[4] = {w0, w1, w2, w3};
  post_send(dest, handler, words, sizeof words);
}

void SimEndpoint::post_send(NodeId dest, HandlerId handler, const void* buf,
                            std::size_t len) {
  Posted p;
  p.dest = dest;
  p.handler = handler;
  const auto* b = static_cast<const std::uint8_t*>(buf);
  p.payload.assign(b, b + len);
  posted_.push_back(std::move(p));
}

}  // namespace fm
