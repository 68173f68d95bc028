#include "fm/sim_endpoint.h"

#include <algorithm>
#include <string>
#include <utility>

#include "fm/frame.h"
#include "hw/fault.h"

namespace fm {

SimEndpoint::SimEndpoint(hw::Node& node, FmConfig cfg,
                         lcp::FmLcpConfig lcp_cfg)
    : Engine(node.id(), node.nic().fabric_nodes(), cfg, hw::FaultParams(),
             "sim.node" + std::to_string(node.id())),
      node_(node),
      host_rx_(node.nic().lanai().simulator(),
               node.params().queues.host_recv_frames),
      lcp_(node, node.params(), lcp_cfg),
      registry_("sim.node" + std::to_string(node.id())) {
  lcp_.attach_host_recv(&host_rx_);
  // Construction runs on the simulator's driving thread before any
  // coroutine fires: the constructing context owns the registry.
  registry_.assert_owner();
  // FM-Scope: the engine's counters and gauges, then the LCP's counters
  // and Figure 6 queue gauges.
  register_metrics(registry_);
  lcp_.register_obs(registry_);
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

std::uint64_t SimEndpoint::wire_clock_ns() {
  return static_cast<std::uint64_t>(sim().now() / 1000);  // ps -> ns
}

WireStatus SimEndpoint::wire_push(NodeId dest, const std::uint8_t* frame,
                                  std::size_t len) {
  hw::Packet pkt;
  pkt.dest = dest;
  pkt.bytes.assign(frame, frame + len);
  staged_.push_back(std::move(pkt));
  return WireStatus::kSent;
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
  Outgoing m;
  Status s = start_send(m, dest, handler, buf, len);
  bool found_nothing = false;  // the last blocked extract() consumed nothing
  while (ok(s) && !m.done()) {
    s = send_step(m);
    if (s == Status::kAgain) {
      // The gate is shut: service the network while blocked (the FM
      // discipline that prevents fetch deadlock), sleeping only when the
      // gate is still shut after an extract() that found nothing.
      if (found_nothing) co_await idle_wait();
      BlockedSend blocked(*this);
      found_nothing = co_await extract() == 0;
      s = Status::kOk;
    } else if (ok(s)) {
      found_nothing = false;
      co_await flush(/*fresh=*/true);
    }
  }
  co_return s;
}

sim::Op<> SimEndpoint::flush(bool fresh) {
  auto& cpu = node_.cpu();
  auto& sbus = node_.sbus();
  const auto& hc = node_.params().hostsw;
  while (!staged_.empty()) {
    hw::Packet pkt = std::move(staged_.front());
    staged_.pop_front();
    const int bytes = static_cast<int>(pkt.bytes.size());
    const auto h = decode_header(pkt.bytes.data(), pkt.bytes.size());
    FM_CHECK_MSG(h.has_value(), "staged an undecodable frame");
    // Header construction + queue-space check on the host. The CRC is host
    // arithmetic over every frame byte, charged like the Myricom API's
    // checksum so the integrity feature's cost stays visible. A
    // retransmission re-sends bytes built earlier: it pays neither.
    const bool data = h->type == FrameType::kData;
    if (fresh || !data) {
      co_await cpu.exec(
          hc.fm_send_setup_cycles +
          (data && config().flow_control ? hc.fm_flowctl_send_cycles : 0));
      if (h->has_crc()) co_await cpu.exec(hc.fm_crc_cycles_per_byte * bytes);
    }
    // Wait for LANai send-queue space: the host polls its shadow of the
    // lanaisent counter; re-reading it is an uncached SBus load.
    while (lcp_.send_space() == 0) {
      co_await sbus.pio_read();
      if (lcp_.send_space() == 0) co_await lcp_.host_wake().wait();
    }
    // Hybrid architecture: the host spools the frame into LANai memory by
    // double-word programmed I/O, then triggers by advancing hostsent.
    co_await sbus.pio_write(pkt.bytes.size());
    pkt.id = node_.nic().next_packet_id();
    const bool queued = lcp_.host_enqueue(std::move(pkt));
    FM_CHECK_MSG(queued, "send queue raced despite space check");
    co_await cpu.exec(hc.fm_trigger_cycles);
    co_await sbus.pio_write(8);  // the hostsent counter store
  }
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

sim::Op<std::size_t> SimEndpoint::extract() {
  trace_.assert_writer();  // one simulator thread drives every coroutine
  auto& sbus = node_.sbus();
  co_await node_.cpu().exec(node_.params().hostsw.fm_poll_cycles);
  const std::uint64_t trace_t0 = trace_.enabled() ? wire_clock_ns() : 0;
  std::size_t count = 0;
  // Bounded batch: without a budget, a peer that keeps the queue non-empty
  // (e.g. a rejection storm against a starved reassembly pool) would trap
  // this loop forever and starve the service pass — retransmission ticks
  // and ack flushes — on which *other* peers' progress depends.
  const std::size_t budget = host_rx_.ring().capacity();
  hw::Packet pkt;
  while (count < budget && host_rx_.take(pkt)) {
    ++count;
    co_await charge_receive(pkt);
    heard_from(pkt.src);
    // The acking peer is the transport-level source, never the header's
    // src field: a corrupted header could name a node that does not exist.
    receive(pkt.src, pkt.bytes.data(), pkt.bytes.size());
    flush_deferred_tx();
    co_await flush(/*fresh=*/false);  // a reject the frame earned
    co_await send_posted();
    if (++consumed_since_update_ >= config().consumed_update_batch) {
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
  service();
  co_await flush(/*fresh=*/false);
  trace_extract(trace_t0, count);
  co_return count;
}

sim::Op<> SimEndpoint::charge_receive(const hw::Packet& pkt) {
  // A frame the core drops unread — from a peer declared dead, or wire
  // garbage that does not decode — costs no dispatch.
  if (peer_dead(pkt.src)) co_return;
  const auto h = decode_header(pkt.bytes.data(), pkt.bytes.size());
  if (!h.has_value()) co_return;
  auto& cpu = node_.cpu();
  const auto& hc = node_.params().hostsw;
  co_await cpu.exec(hc.fm_dispatch_cycles +
                    (config().flow_control ? hc.fm_flowctl_recv_cycles : 0));
  // Verification reads every byte — charged like the API's checksum.
  if (h->has_crc())
    co_await cpu.exec(hc.fm_crc_cycles_per_byte *
                      static_cast<int>(pkt.bytes.size()));
}

sim::Op<> SimEndpoint::send_posted() {
  if (!claim_posted()) co_return;
  while (const Posted* p = next_posted())
    retire_posted(co_await send(p->dest, p->handler, p->payload.data(),
                                p->payload.size()));
}

sim::Op<std::size_t> SimEndpoint::extract_blocking() {
  while (host_rx_.ring().empty()) co_await host_rx_.arrived().wait();
  co_return co_await extract();
}

sim::Op<> SimEndpoint::drain() {
  for (;;) {
    // Flush every owed ack so peers can finish their own drains.
    ack_all();
    co_await flush(/*fresh=*/false);
    if (drained()) co_return;
    const std::size_t n = co_await extract();
    // Re-check before sleeping: extract() itself can finish the drain (a
    // dead-peer purge empties the window with no frame consumed), and with
    // no timers left armed idle_wait() would sleep on an arrival that is
    // never coming.
    if (drained()) co_return;
    if (n == 0) co_await idle_wait();
  }
}

// Idle wait used while blocked on the window or draining: normally we sleep
// until the LANai delivers something, but with FM-R armed timers time itself
// is a wake-up source — a lost frame produces no delivery, only a deadline.
sim::Op<> SimEndpoint::idle_wait() {
  if (awaiting_timeout()) {
    std::uint64_t poll =
        std::max<std::uint64_t>(config().retransmit_timeout_ns / 2, 10'000);
    co_await sim().delay(static_cast<sim::Time>(poll) * 1000);  // ns -> ps
  } else {
    co_await host_rx_.arrived().wait();
  }
}

}  // namespace fm
