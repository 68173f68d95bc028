// The Myrinet network interface: LANai + SRAM + three DMA engines + cabling.
//
// The NIC exposes exactly the capabilities the real board gives an LCP:
//   - an outgoing-channel DMA engine that streams a packet from LANai memory
//     onto the wire (through the switch, with wormhole occupancy),
//   - an incoming-channel engine, modeled as the bounded rx_ring() mailbox
//     that the network delivers into (full ring => backpressure),
//   - a host DMA engine that moves bytes between LANai memory and the pinned
//     host DMA region across the SBus.
// Interpretation of packet contents is *not* a NIC capability — that is the
// LCP's (costed) job, per the paper's design rule.
#pragma once

#include <functional>
#include <optional>

#include "common/types.h"
#include "hw/lanai.h"
#include "hw/network.h"
#include "hw/packet.h"
#include "hw/params.h"
#include "hw/sbus.h"
#include "sim/condition.h"
#include "sim/mailbox.h"
#include "sim/op.h"
#include "sim/task.h"

namespace fm::hw {

/// One node's network interface card.
class Nic {
 public:
  Nic(sim::Simulator& sim, const HwParams& params, Sbus& sbus, NodeId id)
      : sim_(sim),
        params_(params),
        sbus_(sbus),
        id_(id),
        lanai_(sim, params.lanai),
        memory_(params.lanai.memory_bytes),
        out_dma_(sim, "net-out"),
        host_dma_(sim, "host"),
        rx_ring_(sim, params.lanai.rx_ring_frames),
        out_link_(sim) {}
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  /// Cables this NIC to `net` at attachment point == node id.
  void connect(Network& net) {
    switch_ = &net;
    net.attach(id_, this);
  }

  // ----------------------------------------------------------------------
  // Outgoing channel
  // ----------------------------------------------------------------------

  /// Transmits `pkt` inline: the awaiting LCP is blocked for the whole
  /// network path (setup + serialization + switch + delivery).
  sim::Op<> transmit(Packet pkt) {
    out_dma_.begin();
    co_await do_transmit(std::move(pkt));
    out_dma_.end();
    lcp_wake_.notify_all();
  }

  /// Starts a transmission and returns immediately; the outgoing engine is
  /// busy until the packet has fully drained into the destination's receive
  /// ring. The LCP overlaps its own instructions with the transfer.
  void start_transmit(Packet pkt) {
    out_dma_.begin();
    sim_.spawn(transmit_task(std::move(pkt)));
  }

  /// The outgoing-channel engine (poll busy() / wait_idle()).
  DmaEngine& out_dma() { return out_dma_; }

  // ----------------------------------------------------------------------
  // Incoming channel
  // ----------------------------------------------------------------------

  /// Packets the incoming-channel engine has landed in LANai memory.
  /// Capacity LanaiParams::rx_ring_frames; when full, the network blocks.
  sim::Mailbox<Packet>& rx_ring() { return rx_ring_; }

  /// Wake-up condition for the LCP: notified whenever a packet lands in the
  /// receive ring, a DMA engine goes idle, or host software rings a doorbell
  /// (see ring_doorbell()). Models the events a polling LCP loop observes,
  /// letting the simulated LCP block instead of spinning — the polling
  /// *cost* is charged as instructions when it wakes.
  sim::Condition& lcp_wake() { return lcp_wake_; }

  /// Host-side notification that LANai-memory state changed (e.g. the
  /// hostsent counter was advanced). SBus cost is paid by the caller.
  void ring_doorbell() { lcp_wake_.notify_all(); }

  // ----------------------------------------------------------------------
  // Host DMA engine
  // ----------------------------------------------------------------------

  /// Moves `bytes` between LANai memory and the host DMA region, inline.
  sim::Op<> host_dma(std::size_t bytes) {
    host_dma_.begin();
    co_await sim_.delay(params_.lanai.dma_setup);
    co_await sbus_.dma(bytes);
    host_dma_.end();
    lcp_wake_.notify_all();
  }

  /// Starts a host DMA in the background; `on_done` runs (as a scheduled
  /// event) when the transfer completes.
  void start_host_dma(std::size_t bytes, std::function<void()> on_done) {
    host_dma_.begin();
    sim_.spawn(host_dma_task(bytes, std::move(on_done)));
  }

  /// The host DMA engine.
  DmaEngine& host_dma_engine() { return host_dma_; }

  // ----------------------------------------------------------------------

  /// The LANai instruction stream.
  LanaiCpu& lanai() { return lanai_; }
  /// The 128 KB SRAM budget.
  LanaiMemory& memory() { return memory_; }
  /// The SBus this NIC sits on.
  Sbus& sbus() { return sbus_; }
  /// This NIC's node id (== its switch port).
  NodeId id() const { return id_; }
  /// Nodes on the fabric this NIC is cabled to: the cluster size.
  std::size_t fabric_nodes() const {
    FM_CHECK_MSG(switch_ != nullptr, "NIC not cabled to a network");
    return switch_->ports();
  }

  /// Fresh unique packet id (node id in the top bits for traceability).
  std::uint64_t next_packet_id() {
    return (static_cast<std::uint64_t>(id_) << 48) | next_seq_++;
  }

  /// Packets fully transmitted / received (diagnostics).
  std::uint64_t packets_sent() const { return packets_sent_; }

 private:
  sim::Task transmit_task(Packet pkt) {
    co_await do_transmit(std::move(pkt));
    out_dma_.end();
    lcp_wake_.notify_all();
  }

  sim::Task host_dma_task(std::size_t bytes, std::function<void()> on_done) {
    co_await sim_.delay(params_.lanai.dma_setup);
    co_await sbus_.dma(bytes);
    host_dma_.end();
    if (on_done) on_done();
    lcp_wake_.notify_all();
  }

  sim::Op<> do_transmit(Packet pkt) {
    FM_CHECK_MSG(switch_ != nullptr, "NIC not cabled to a network");
    FM_CHECK_MSG(pkt.dest < switch_->ports(), "bad destination route");
    pkt.src = id_;
    pkt.injected_at = sim_.now();
    const sim::Time serialization =
        switch_->byte_time() * static_cast<sim::Time>(pkt.wire_bytes());
    // Engine setup, then the wormhole path: claim our cable and every
    // switch output port on the source route (one fall-through latency per
    // hop, resources held for the whole serialization), then deliver before
    // releasing so a full receive ring stalls the wire all the way back.
    co_await sim_.delay(params_.lanai.dma_setup);
    co_await out_link_.acquire();
    std::vector<sim::BusyResource*> path;
    switch_->route(id_, pkt.dest, path);
    for (auto* hop : path) {
      co_await hop->acquire();
      co_await sim_.delay(switch_->hop_latency());
    }
    co_await sim_.delay(serialization);
    // Fault injection (off by default): a dropped packet consumed the wire
    // but never arrives; corruption flips one bit in flight; a duplicated
    // packet lands twice; a reordered packet is parked in the NIC until the
    // next transmission overtakes it (extended FM-R fault model).
    auto& faults = switch_->faults();
    bool dropped = faults.should_drop();
    if (!dropped) {
      faults.maybe_corrupt(pkt.bytes);
      bool duplicate = faults.should_duplicate();
      if (faults.should_reorder() && !reorder_held_.has_value()) {
        reorder_held_ = std::move(pkt);
      } else {
        if (duplicate) {
          Packet copy = pkt;
          co_await deliver(std::move(copy));
        }
        co_await deliver(std::move(pkt));
        if (reorder_held_.has_value()) {
          Packet held = std::move(*reorder_held_);
          reorder_held_.reset();
          co_await deliver(std::move(held));
        }
      }
    }
    for (auto it = path.rbegin(); it != path.rend(); ++it) (*it)->release();
    out_link_.release();
    ++packets_sent_;
  }

  sim::Op<> deliver(Packet pkt) {
    Nic* dst = switch_->nic_at(pkt.dest);
    FM_CHECK_MSG(dst != nullptr, "destination port vacant");
    co_await dst->rx_ring_.send(std::move(pkt));
    dst->lcp_wake_.notify_all();
  }

  sim::Simulator& sim_;
  HwParams params_;
  Sbus& sbus_;
  NodeId id_;
  LanaiCpu lanai_;
  LanaiMemory memory_;
  DmaEngine out_dma_;
  DmaEngine host_dma_;
  sim::Mailbox<Packet> rx_ring_;
  sim::Condition lcp_wake_{sim_};
  sim::BusyResource out_link_;
  std::optional<Packet> reorder_held_;  // fault injection: overtaken packet
  Network* switch_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::uint64_t packets_sent_ = 0;
};

}  // namespace fm::hw
