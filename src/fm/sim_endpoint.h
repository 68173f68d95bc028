// fm::SimEndpoint — the FM 1.0 host library running on the simulated
// testbed.
//
// This is the paper's contribution assembled: the three-call API (Table 1)
// over the hybrid SBus architecture (§4.3), the four-queue buffer management
// (§4.4) and return-to-sender flow control with piggybacked acknowledgements
// (§4.5), all driving the FmLcp on the node's LANai.
//
// The protocol is fm::Engine (fm/engine.h), the same core shm, net and
// FM-Check run; this class is its fourth wire adapter, with a coroutine
// driver in place of the engine's blocking one. API calls are coroutines
// (sim::Op) because host software costs simulated time. The wire stages
// each frame the core pushes, and the driver then charges it and spools it
// into LANai memory with programmed I/O: a fresh data frame pays send
// setup (plus flow control) and CRC cycles, an ack or a reject setup and
// CRC, a retransmission nothing before the PIO; every frame then waits for
// LANai send space, is written and triggered. Each received frame pays
// dispatch (plus flow control) and CRC-verify cycles before the core sees
// it. Handlers are synchronous functions; a handler that wants to
// communicate posts a reply (post_send4/post_send), which extract() sends —
// with full send costs — right after the core has processed that frame,
// matching how handler-context sends behave in FM. Every cost constant
// lives in hw/params.h.
//
// Usage (inside a sim::Task host program):
//
//   fm::SimEndpoint ep(cluster.node(0));
//   fm::HandlerId h = ep.register_handler(on_message);
//   ep.start();
//   co_await ep.send4(1, h, a, b, c, d);
//   co_await ep.extract();
#pragma once

#include <cstdint>
#include <deque>

#include "common/status.h"
#include "common/types.h"
#include "fm/config.h"
#include "fm/engine.h"
#include "hw/cluster.h"
#include "hw/packet.h"
#include "lcp/fm_lcp.h"
#include "obs/registry.h"
#include "sim/op.h"

namespace fm {

/// The simulated-cluster FM endpoint (one per node): the FM API of
/// fm::Engine, with send/extract/drain as coroutines.
class SimEndpoint : public Engine<SimEndpoint> {
 public:
  /// Creates an endpoint on `node`; the cluster size is the node's fabric.
  /// Call start() before communicating.
  explicit SimEndpoint(hw::Node& node, FmConfig cfg = FmConfig(),
                       lcp::FmLcpConfig lcp_cfg = lcp::FmLcpConfig());
  ~SimEndpoint();

  /// Boots the node's LANai control program.
  void start();
  /// Stops the control program (drains at the next LCP wake-up).
  void shutdown();

  /// FM_send_4: a four-word message (Table 1).
  sim::Op<Status> send4(NodeId dest, HandlerId handler, std::uint32_t w0,
                        std::uint32_t w1, std::uint32_t w2, std::uint32_t w3);

  /// FM_send: a message of arbitrary length (segmented beyond one frame —
  /// the documented extension past FM 1.0's 32-word limit).
  sim::Op<Status> send(NodeId dest, HandlerId handler, const void* buf,
                       std::size_t len);

  /// FM_extract: processes received messages; returns frames consumed.
  sim::Op<std::size_t> extract();

  /// Blocks until at least one frame is deliverable, then extracts.
  sim::Op<std::size_t> extract_blocking();

  /// Extracts until all our outstanding frames are acknowledged and no
  /// rejected frames await retransmission. Flushes standalone acks so the
  /// *peers'* drains terminate too.
  sim::Op<> drain();

  /// Condition notified when the LANai delivers frames to this host.
  sim::Condition& delivery_cond() { return host_rx_.arrived(); }
  /// The underlying control program (diagnostics).
  lcp::FmLcp& control_program() { return lcp_; }
  hw::Node& node() { return node_; }
  sim::Simulator& sim() { return node_.nic().lanai().simulator(); }

 private:
  friend class Engine<SimEndpoint>;

  // The fabric's fault model (HwParams::faults) can drop or garble frames.
  static constexpr bool kLosslessWire = false;

  // Stages the frame for flush(); the simulated wire is never full.
  WireStatus wire_push(NodeId dest, const std::uint8_t* frame,
                       std::size_t len);
  // Simulated time in ns.
  std::uint64_t wire_clock_ns();

  // Charges and spools every staged frame in order. Data frames staged by a
  // send step are `fresh`; any other staged data frame is a retransmission.
  sim::Op<> flush(bool fresh);
  // Charges a received frame's host costs before the core processes it.
  sim::Op<> charge_receive(const hw::Packet& pkt);
  // Sends the replies the handlers posted.
  sim::Op<> send_posted();
  // Sleeps until new frames arrive — or, when FM-R awaits a timeout, for
  // one retransmit poll interval.
  sim::Op<> idle_wait();

  hw::Node& node_;
  lcp::HostRecvQueue host_rx_;
  lcp::FmLcp lcp_;
  std::deque<hw::Packet> staged_;
  std::size_t consumed_since_update_ = 0;
  bool started_ = false;
  // The registry's gauges reference the members above; it is declared last
  // so it is destroyed first, while everything they point at is alive.
  obs::Registry registry_;
};

}  // namespace fm
