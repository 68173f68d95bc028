// net::Endpoint — the FM API over real (lossy) UDP, one process per node.
//
// The third backend. The sim endpoint reproduces the paper's numbers, the
// shm endpoint runs the protocol between threads over lossless rings; this
// endpoint runs the identical protocol — the same fm::Engine (fm/engine.h),
// of which this class is the wire adapter — between *separate OS
// processes* over the kernel's UDP/loopback path, where drops, reorders,
// and duplicates are supplied by a genuinely unreliable substrate instead
// of a fault injector: one datagram is one FM frame (≈ one Myrinet
// packet), the socket receive buffer is the NIC receive ring, and a kernel
// drop on a full buffer is a link fault (docs/PROTOCOL.md §9 maps the
// layers).
//
// Consequently FM-R is mandatory here — the constructor rejects a config
// without `reliability` — because UDP offers none of the delivery
// guarantees the lossless shm rings gave for free. The hot path keeps the
// zero-copy discipline: frames are serialized once, straight into the
// send-window slab, and handed to sendto() from there — zero heap
// allocations per steady-state cycle (tests/net/net_alloc_test.cc enforces
// it).
//
// Threading: each Endpoint belongs to exactly one process (its fork()ed
// node). Handlers run inside extract() on that process, as on the other
// backends.
//
// FM-Burst: in batched mode (NetConfig::tx_batch, the default) the steady
// state gathers every pending frame — data, piggybacked acks, reject
// retries, retransmissions — into a preallocated staging ring and hands
// the whole burst to sendmmsg(2) at the next flush point, while the
// receive side drains the socket in recvmmsg(2) bursts into one slab.
// That is the syscall analogue of the paper's PIO gather / receive
// aggregation: the expensive boundary (kernel crossing ≈ host/NIC I/O
// bus) is amortized over the burst, the per-frame path stays lean. Two
// opt-in accelerators ride on top: UDP GSO/GRO (a run of equal-size
// same-destination frames becomes ONE datagram train) and busy-poll
// receive (spin-then-poll hybrid that cuts wakeup latency out of t0).
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <vector>

#include "common/annotate.h"
#include "common/types.h"
#include "fm/config.h"
#include "fm/engine.h"
#include "hw/fault.h"
#include "net/net_config.h"
#include "net/socket.h"
#include "obs/registry.h"

namespace fm::net {

class Cluster;

/// One node of the UDP FM cluster: the FM API of fm::Engine
/// (send/extract/post_send/drain and every accessor) over a UDP socket.
class Endpoint : public Engine<Endpoint> {
 public:
  /// Socket-level counters (beneath the protocol's Stats).
  std::uint64_t datagrams_tx() const { return datagrams_tx_; }
  std::uint64_t datagrams_rx() const { return datagrams_rx_; }
  std::uint64_t ewouldblock_stalls() const { return ewouldblock_stalls_; }
  /// Datagrams from ports no rank owns (counted, dropped, never dispatched).
  std::uint64_t stray_datagrams() const { return stray_datagrams_; }
  /// Datagrams the kernel dropped on our full receive buffer (cumulative,
  /// from SO_RXQ_OVFL; stays 0 where the option is unavailable).
  std::uint64_t kernel_drops() const { return kernel_drops_; }

  /// FM-Burst counters (all 0 when batching is off).
  /// Frames that left through a batched TX path (sendmmsg or GSO train).
  std::uint64_t batch_tx_frames() const { return batch_tx_frames_; }
  /// Kernel crossings the batched paths spent, TX and RX combined — the
  /// amortization denominator for batch_tx_frames / datagrams_rx.
  std::uint64_t batch_syscalls() const { return batch_syscalls_; }
  /// Frames that traveled inside a UDP_SEGMENT train.
  std::uint64_t gso_segments() const { return gso_segments_; }
  /// Idle pauses resolved by the busy-poll spin, without parking in poll().
  std::uint64_t busy_poll_hits() const { return busy_poll_hits_; }
  /// Times a live GSO train came back kError from a kernel whose probe said
  /// yes — each one drops this endpoint to single-shot sends for good, with
  /// the refused train kept staged and resent (never discarded).
  std::uint64_t gso_fallbacks() const { return gso_fallbacks_; }
  /// True when this endpoint is running the batched (sendmmsg/recvmmsg)
  /// steady state; false means every frame takes the single-shot path.
  bool batching() const { return tx_batch_on_; }
  /// True when TX coalesces runs into GSO trains and RX accepts GRO trains.
  bool gso_active() const { return gso_on_; }

 private:
  friend class Cluster;
  friend class Engine<Endpoint>;
  /// `net` must be fully resolved (no -1 sentinels): the Cluster applies
  /// the FM_NET_* environment overrides before constructing endpoints.
  /// `nodes` is the cluster size (the Cluster's endpoint list is still
  /// growing while this runs, so it is passed explicitly).
  Endpoint(Cluster& cluster, NodeId id, const FmConfig& cfg,
           const hw::FaultParams& faults, UdpSocket& sock,
           const NetConfig& net, std::size_t nodes);

  // UDP drops, duplicates, reorders and (without CRC) can hand us garbage.
  static constexpr bool kLosslessWire = false;

  FM_HOT_PATH WireStatus wire_push(NodeId dest, const std::uint8_t* frame,
                                   std::size_t len);
  FM_HOT_PATH std::size_t wire_receive();
  FM_HOT_PATH std::size_t wire_flush();
  /// Parking on the socket is the one blocking act this endpoint performs,
  /// and only when there is no work at all — a cold boundary by design.
  FM_COLD_PATH void wire_idle();
  FM_HOT_PATH static std::uint64_t wire_clock_ns();
  /// Sends every staged frame with as few syscalls as the kernel allows
  /// (GSO trains for equal-size same-destination runs, sendmmsg for the
  /// rest). Transient backpressure leaves the unsent tail staged, in
  /// order; a later flush point retries it.
  FM_HOT_PATH void flush_tx_batch();
  /// One received buffer from the batched RX path: splits a GRO train into
  /// its frames and feeds each to the engine. `seen` counts wire datagrams
  /// against the extract budget, `count` counts frames from known peers
  /// (extract()'s return value).
  FM_HOT_PATH void process_rx_buffer(const UdpSocket::RxMsg& m,
                                     const std::uint8_t* base,
                                     std::size_t* seen, std::size_t* count);

  Cluster& cluster_;
  UdpSocket& sock_;
  std::size_t extract_budget_;
  // Socket counters (the layer below Stats: what the "NIC" actually did).
  std::uint64_t datagrams_tx_ = 0;
  std::uint64_t datagrams_rx_ = 0;
  std::uint64_t ewouldblock_stalls_ = 0;
  std::uint64_t send_errors_ = 0;
  std::uint64_t stray_datagrams_ = 0;  ///< From ports no node owns.
  std::uint64_t kernel_drops_ = 0;     ///< Cumulative SO_RXQ_OVFL reading.
  // FM-Burst counters (see the public accessors for semantics).
  std::uint64_t batch_tx_frames_ = 0;
  std::uint64_t batch_syscalls_ = 0;
  std::uint64_t gso_segments_ = 0;
  std::uint64_t busy_poll_hits_ = 0;
  std::uint64_t gso_fallbacks_ = 0;
  std::vector<std::uint8_t> rx_buf_;  ///< One inbound datagram, in place.
  // FM-Burst mode state (resolved once at construction). tx_batch_on_ is
  // fixed for life; gso_on_ can additionally drop to false mid-run when a
  // live train fails on a kernel whose probe lied (see flush_tx_batch).
  bool tx_batch_on_ = false;
  bool gso_on_ = false;
  long busy_poll_spin_us_ = 0;
  // TX staging ring: slot i of tx_ring_ describes the frame copied into
  // tx_stage_[i * tx_wire_max_ ..]; a circular [tx_head_, tx_head_ +
  // tx_staged_) window is pending. Frames survive a partial flush in
  // place — the unsent tail just stays staged.
  std::size_t tx_cap_ = 0;
  std::size_t tx_wire_max_ = 0;
  std::vector<std::uint8_t> tx_stage_;
  std::vector<UdpSocket::TxFrame> tx_ring_;
  std::size_t tx_head_ = 0;
  std::size_t tx_staged_ = 0;
  bool in_tx_flush_ = false;
  iovec gso_iov_[UdpSocket::kMaxBatch];  ///< Scatter list for one GSO train.
  // RX burst slab: rx_slots_ buffers of rx_stride_ bytes (train-sized when
  // GRO may coalesce) plus their descriptors, filled by one recvmmsg.
  std::size_t rx_stride_ = 0;
  std::size_t rx_slots_ = 0;
  std::vector<std::uint8_t> rx_slab_;
  std::vector<UdpSocket::RxMsg> rx_msgs_;
  std::uint16_t cat_stall_ = 0;
  // Declared last on purpose: the registry's counters and gauges reference
  // the engine and the members above, so it must be destroyed first.
  obs::Registry registry_;
};

}  // namespace fm::net

namespace fm {
// Compiled once in net/endpoint.cc.
extern template class Engine<net::Endpoint>;
}  // namespace fm
