// fm::Engine — the one copy of the FM protocol every backend runs.
//
// Return-to-sender flow control with piggybacked acks (§4.5), segmentation
// and reassembly, posted sends, and the opt-in FM-R reliability layer are
// one protocol, run in two parts. A nonblocking core: the per-frame send
// step (a shut window or credit gate is Status::kAgain), frame processing,
// rejects, the service pass (reject retries, standalone and duplicate
// acks, the FM-R tick with its congestion-vs-death rule and dead-peer
// purge, the reassembly TTL), the posted queue, fault injection and the
// shared counters, gauges and trace events. A blocking driver (the public
// send/extract/drain: the blocked-send wait, drain, the posted-send drain,
// extract_until, idle_pause, and push()'s backpressure loop, the one wait
// the core can reach) sequences the core and waits through wire_idle().
//
// A backend contributes only a *wire adapter* (CRTP, so the per-frame path
// has no indirect call) that moves frames and holds no protocol logic:
// shm::Endpoint (SPSC rings), net::Endpoint (UDP + FM-Burst staging), the
// in-memory wire of tests/fm/engine_test.cc, FM-Check's model wire
// (src/chk/proto_model.cc), and fm::SimEndpoint, the simulated testbed of
// the paper's figures, which drives the core from coroutines because
// simulated time is waited for with co_await. The adapter provides,
// privately (with Engine<Adapter> a friend):
//
//   static constexpr bool kLosslessWire;  // no organic loss or garbage
//   WireStatus wire_push(NodeId dest, const std::uint8_t* frame,
//                        std::size_t len);  // one frame; never blocks
//   std::uint64_t wire_clock_ns();  // monotonic nanoseconds
//   obs::Registry registry_;     // declared last (see registry())
//   // For the blocking driver (a wire without wire_idle() never answers
//   // kFull, and no blocking loop is built for it):
//   std::size_t wire_receive();  // feeds arrivals through receive();
//                                // returns frames from known peers
//   std::size_t wire_flush();    // sends staged frames; returns how many
//                                // are still staged
//   void wire_idle();            // no work at all: yield, or park
//
// Threading: an engine belongs to exactly one thread (FM was
// single-threaded per node too). Handlers run inside extract() on that
// thread; a handler that wants to communicate uses post_send*().
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/annotate.h"
#include "common/check.h"
#include "common/status.h"
#include "common/types.h"
#include "fm/cluster_runner.h"
#include "fm/config.h"
#include "fm/frame.h"
#include "fm/handler_registry.h"
#include "fm/protocol.h"
#include "hw/fault.h"
#include "obs/counters.h"
#include "obs/registry.h"
#include "obs/trace_ring.h"

namespace fm {

/// Outcome of one nonblocking wire push.
enum class WireStatus : std::uint8_t {
  kSent,   ///< The wire took the frame (or staged it for the next flush).
  kFull,   ///< Backpressure (full ring, socket would block): nothing sent.
  kError,  ///< Refused for good; lost exactly as if the wire ate it.
};

/// The FM protocol engine over wire adapter `Wire` (see the file comment).
template <class Wire>
class Engine {
 public:
  using Handler = typename HandlerRegistry<Wire>::Fn;

  /// Layer statistics: the FM-Scope shared counter block — one definition
  /// for every backend, registered by name into this endpoint's registry().
  using Stats = obs::EndpointCounters;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a handler (identically on every node, before Cluster::run).
  HandlerId register_handler(Handler fn) {
    return handlers_.add(std::move(fn));
  }

  /// FM_send_4.
  FM_HOT_PATH Status send4(NodeId dest, HandlerId handler, std::uint32_t w0,
                           std::uint32_t w1, std::uint32_t w2,
                           std::uint32_t w3);
  /// FM_send (segments beyond one frame). kBadArgument for a destination
  /// that is not another node of the cluster, an unregistered handler or a
  /// null buffer.
  FM_HOT_PATH Status send(NodeId dest, HandlerId handler, const void* buf,
                          std::size_t len);
  /// FM_extract: processes currently deliverable frames; returns count.
  FM_HOT_PATH std::size_t extract();
  /// Extracts until `pred()` holds, taking the wire's idle pause whenever
  /// an extract found nothing (a yield on shm, a poll() park on net).
  template <typename Pred>
  void extract_until(Pred&& pred) {
    while (!pred()) {
      if (extract() == 0) idle_pause();
    }
  }
  /// As extract_until(pred), waiting on `peer`: idle passes probe it (see
  /// probe()), and the wait ends kPeerDead if FM-R declares it dead first.
  template <typename Pred>
  Status extract_until(NodeId peer, Pred&& pred) {
    while (!pred()) {
      if (peer_dead(peer)) return Status::kPeerDead;
      if (extract() == 0) {
        probe(peer);
        idle_pause();
      }
    }
    return Status::kOk;
  }
  /// FM-R's liveness probe (docs/PROTOCOL.md §7): a zero-length frame on
  /// kProbeHandler, acked at once and never delivered, that gives the timer
  /// something to judge a silent `peer` by. Never blocks; a no-op without
  /// FM-R, or while an earlier probe is unanswered or the gate is shut.
  FM_HOT_PATH void probe(NodeId peer);
  /// Extracts until all outstanding frames are acknowledged and the reject
  /// queue is empty; flushes owed acks so peers can drain too.
  void drain();
  /// The explicit idle primitive for loops that wait on something other
  /// than a predicate: call it after an extract() that found no work.
  /// Yielding or parking is the one "blocking" act the steady state is
  /// allowed, and only when there was no work at all.
  FM_COLD_PATH void idle_pause() { wire().wire_idle(); }

  /// Posted sends (the only legal way to send from handler context).
  FM_HOT_PATH void post_send4(NodeId dest, HandlerId handler, std::uint32_t w0,
                              std::uint32_t w1, std::uint32_t w2,
                              std::uint32_t w3);
  FM_HOT_PATH void post_send(NodeId dest, HandlerId handler, const void* buf,
                             std::size_t len);
  /// Two-part posted send (header + body gathered into one message): spares
  /// layered protocols the intermediate buffer that stitching the parts
  /// together before posting would need — the body is copied once, from its
  /// source straight into the posted payload.
  FM_HOT_PATH void post_send2(NodeId dest, HandlerId handler, const void* hdr,
                              std::size_t hdr_len, const void* body,
                              std::size_t body_len);

  /// Registers (or, with an empty fn, clears) the receive-side deposit sink
  /// for fragmented messages bound for `hid` — see DepositSinkFn
  /// (fm/protocol.h). One sink per endpoint; the layered protocol that owns
  /// `hid` must clear it before it is destroyed.
  void set_deposit_sink(HandlerId hid, DepositSinkFn fn) {
    deposit_hid_ = fn ? hid : kInvalidHandler;
    deposit_sink_ = std::move(fn);
  }

  /// Context-aware send for layered protocols whose code runs both from
  /// application context and from handler context: sends immediately when
  /// legal, otherwise posts (injected when the running extract() finishes).
  Status send_or_post(NodeId dest, HandlerId handler, const void* buf,
                      std::size_t len) {
    if (!in_handler_) return send(dest, handler, buf, len);
    if (dest >= cluster_size() || dest == id_ || !handlers_.valid(handler))
      return Status::kBadArgument;
    post_send(dest, handler, buf, len);
    return Status::kOk;
  }

  /// This node's id / cluster size.
  NodeId id() const { return id_; }
  std::size_t cluster_size() const { return nodes_; }

  /// Outstanding unacknowledged frames.
  FM_HOT_PATH std::size_t unacked() const { return window_.in_flight(); }
  /// Frames parked for retransmission.
  std::size_t reject_queue_depth() const { return rejq_.size(); }
  /// True when FM-R declared `peer` dead (sends to it fail immediately).
  bool peer_dead(NodeId peer) const {
    return peer < dead_.size() && dead_[peer] != 0;
  }
  const Stats& stats() const { return stats_; }
  const FmConfig& config() const { return cfg_; }
  /// This endpoint's sender-side fault source (null when faults are off).
  const hw::FaultInjector* faults() const { return faults_.get(); }
  /// Mutable fault source for mid-run rate changes (FM-San chaos storms /
  /// ramps). Only the thread running this endpoint's node_main may call
  /// set_params() on it.
  hw::FaultInjector* mutable_faults() { return faults_.get(); }
  /// FM-Scope registry ("<backend>.node<id>"): every Stats field as a named
  /// counter plus queue occupancy gauges and the wire's own counters.
  /// Sample from the owning thread, or after Cluster::run() returned. The
  /// adapter owns it, declared last, so it is destroyed before anything
  /// its counters and gauges point at — engine and adapter state alike.
  obs::Registry& registry() { return wire().registry_; }
  const obs::Registry& registry() const { return wire().registry_; }
  /// FM-Scope trace ring. Disabled by default (one branch per hot-path
  /// event site); trace_ring().enable(n) starts the flight recorder —
  /// still allocation-free on the hot path (the alloc tests enforce it).
  obs::TraceRing& trace_ring() { return trace_; }
  const obs::TraceRing& trace_ring() const { return trace_; }

 protected:
  // The adapter-facing interface (the adapter is also a friend: only it
  // may construct its engine, so Engine<A> can only be A's base).

  /// One frame arrived from `from` (the transport source — ground truth
  /// even when the payload bytes are suspect). Called by wire_receive().
  FM_HOT_PATH void receive(NodeId from, const std::uint8_t* data,
                           std::size_t len) {
    ++stats_.frames_received;
    process_frame(from, data, len);
  }
  /// Liveness stamp for FM-R's congestion-vs-death rule: the wire calls it
  /// once per burst received from `peer`. No clock read without FM-R.
  FM_HOT_PATH void heard_from(NodeId peer) {
    if (cfg_.reliability) last_heard_ns_[peer] = now_ns();
  }
  /// Injects the rejects processing deferred. The wire calls it once the
  /// frames it fed through receive() no longer occupy wire storage.
  FM_HOT_PATH void flush_deferred_tx();
  /// Registers the Stats counters and the engine's queue gauges.
  void register_metrics(obs::Registry& reg);

  // The nonblocking core, as a driver sequences it. None of these calls
  // waits for the gate or the clock; the one wait they can reach is push()'s
  // backpressure loop, entered only when a wire answers kFull. The public
  // calls above are the blocking driver; fm::SimEndpoint's coroutines are
  // the other one.

  /// A message on its way out, one frame per send_step().
  struct Outgoing {
    NodeId dest = 0;
    HandlerId handler = 0;
    const std::uint8_t* bytes = nullptr;
    std::size_t len = 0;
    std::uint32_t msg_id = 0;
    std::uint16_t next = 0;   // the next frame to send
    std::uint16_t frags = 1;  // more than one: segmented
    std::uint32_t seq = 0;     // the last frame's seq (flow control)
    bool nonblocking = false;  // drop on backpressure (see inject())
    bool done() const { return next == frags; }
  };
  /// Validates a send and counts the message sent; on kOk, `m` holds it.
  FM_HOT_PATH Status start_send(Outgoing& m, NodeId dest, HandlerId handler,
                                const void* buf, std::size_t len);
  /// Sends the next frame of `m`: kOk when it went to the wire, kAgain when
  /// the window or credit gate is shut (nothing sent: retry after
  /// extract()), kPeerDead when FM-R declared the peer dead (the message is
  /// abandoned).
  FM_HOT_PATH Status send_step(Outgoing& m);
  /// The post-receive service pass: reject-queue retries, standalone and
  /// duplicate acks, the FM-R timer tick and the reassembly TTL.
  FM_HOT_PATH void service();
  /// Sends every ack owed, however few (drain()'s flush, so that peers can
  /// drain too).
  void ack_all();
  /// Nothing outstanding: every frame acknowledged, no reject parked.
  bool drained() const {
    return (!cfg_.flow_control || window_.in_flight() == 0) &&
           rejq_.size() == 0;
  }
  /// True when FM-R has work that only time advances (an armed retransmit
  /// timer, a parked reject): an idle driver must come back within a poll
  /// interval instead of waiting for an arrival.
  bool awaiting_timeout() const {
    return cfg_.reliability && (timer_.armed() > 0 || rejq_.size() > 0);
  }
  /// Marks a send blocked on the window or credit gate for as long as it
  /// lives: the reject-queue retries in service() then leave one window
  /// slot for the blocked frame (see send_blocked_spin_). Nested sends
  /// restore the outer state.
  class BlockedSend {
   public:
    explicit BlockedSend(Engine& e) : e_(e), outer_(e.send_blocked_spin_) {
      e.send_blocked_spin_ = true;
    }
    ~BlockedSend() { e_.send_blocked_spin_ = outer_; }
    BlockedSend(const BlockedSend&) = delete;
    BlockedSend& operator=(const BlockedSend&) = delete;

   private:
    Engine& e_;
    bool outer_;
  };

  struct Posted {
    NodeId dest = 0;
    HandlerId handler = 0;
    std::vector<std::uint8_t> payload;
  };
  /// The posted queue, drained by a driver after the handlers ran:
  /// claim_posted() opens a drain (false when nothing is posted, or when a
  /// drain further up the stack owns the queue: a blocked posted send nests
  /// extract()), next_posted() names the entry to send (null once the queue
  /// is empty, which closes the drain) and retire_posted() takes the send's
  /// status. Send from the entry before anything can post again.
  FM_HOT_PATH bool claim_posted();
  FM_HOT_PATH const Posted* next_posted();
  FM_HOT_PATH void retire_posted(Status s);
  /// Traces one extract pass that consumed `count` frames, begun at `t0`.
  FM_HOT_PATH void trace_extract(std::uint64_t t0, std::size_t count);

  Stats stats_;
  // FM-Scope. Category ids are interned at construction so the hot path
  // stores 16-bit ids, never strings.
  obs::TraceRing trace_;

 private:
  friend Wire;
  /// `nodes` is the cluster size, known before any endpoint exists: every
  /// per-peer table is sized here, once. `scope` names the trace ring
  /// ("shm.node3"); the adapter constructs its registry with the same one
  /// and then calls register_metrics().
  Engine(NodeId id, std::size_t nodes, const FmConfig& cfg,
         const hw::FaultParams& faults, std::string scope);

  // Wire-format bound on acks per frame (ack_count is a u8).
  static constexpr std::size_t kMaxAcksPerFrame = 255;

  struct DeferredTx {
    NodeId dest = 0;
    std::vector<std::uint8_t> bytes;
  };

  FM_HOT_PATH Wire& wire() { return static_cast<Wire&>(*this); }
  const Wire& wire() const { return static_cast<const Wire&>(*this); }
  FM_HOT_PATH std::uint64_t now_ns() { return wire().wire_clock_ns(); }
  // Wire garbage is possible: an organically lossy wire, or injected
  // faults. On a lossless wire with no injector a malformed frame is a
  // protocol bug, so the engine stops instead of counting it.
  FM_HOT_PATH bool wire_may_corrupt() const {
    return !Wire::kLosslessWire || faults_ != nullptr;
  }
  // True for the wires the blocking driver can wait on: those with an idle
  // primitive. fm::SimEndpoint has none — its coroutines do the waiting —
  // so no blocking loop is built for it.
  FM_HOT_PATH static constexpr bool blocking_wire() {
    return requires(Wire& w) { w.wire_idle(); };
  }

  // `window_seq` names the send-window entry when `frame` points into the
  // window slab (0 — never a valid seq — otherwise): a blocked push must
  // re-validate the slot after nested extract()s, which can release and
  // recycle it (see push()). `nonblocking` turns backpressure into a
  // silent drop instead of a spin — only sound for frames FM-R retains
  // elsewhere (retransmissions; see reliability_tick).
  FM_HOT_PATH void inject(NodeId dest, const std::uint8_t* frame,
                          std::size_t len, std::uint32_t window_seq = 0,
                          bool nonblocking = false);
  // The fault-model detour: copies the frame to stable storage, then
  // drops/corrupts/duplicates/reorders. Test-configuration-only, so it is
  // an explicit cold boundary off the allocation-free steady state.
  FM_COLD_PATH void inject_faulty(NodeId dest, const std::uint8_t* frame,
                                  std::size_t len, bool nonblocking);
  FM_HOT_PATH void push(NodeId dest, const std::uint8_t* frame,
                        std::size_t len, std::uint32_t window_seq,
                        bool nonblocking);
  FM_HOT_PATH void process_frame(NodeId from, const std::uint8_t* data,
                                 std::size_t len);
  FM_HOT_PATH void send_standalone_ack(NodeId peer);
  // Reject handling (both directions) only runs once a receive pool
  // overflowed — the §4.5 recovery path, kept off the hot closure.
  FM_COLD_PATH void park_reject(NodeId from, const FrameHeader& h,
                                const std::uint8_t* data);
  FM_COLD_PATH void defer_reject(NodeId from, const FrameHeader& h,
                                 const std::uint8_t* data);
  FM_HOT_PATH void drain_posted();
  FM_HOT_PATH void reliability_tick();
  FM_COLD_PATH void mark_peer_dead(NodeId peer);

  NodeId id_;
  std::size_t nodes_;
  FmConfig cfg_;
  HandlerRegistry<Wire> handlers_;
  SendWindow window_;
  AckTracker acks_;
  Reassembler reasm_;
  HandlerId deposit_hid_ = kInvalidHandler;
  DepositSinkFn deposit_sink_;
  RejectQueue rejq_;
  RetransmitTimer timer_;
  DedupFilter dedup_;
  // Per-peer state, indexed by NodeId and sized once at construction:
  // send credits (window mode only) and FM-R dead-peer verdicts.
  std::vector<std::size_t> credits_;
  std::vector<std::uint8_t> dead_;
  // Liveness ledger: when each peer's frames were last seen (0: never). A
  // retry budget exhausted against a peer heard within alive_grace_ns_ is
  // congestion, not death — the frame re-arms with a fresh budget instead
  // of killing the peer (see reliability_tick).
  std::vector<std::uint64_t> last_heard_ns_;
  std::vector<std::uint32_t> probe_seq_;   // each peer's last probe (0: none)
  std::vector<std::uint8_t> dup_ack_due_;  // peers that resent this pass
  std::uint64_t alive_grace_ns_ = 0;
  std::vector<Posted> posted_;
  std::vector<Posted> posted_pool_;  // recycled entries, warm payload buffers
  std::size_t posted_head_ = 0;      // consumed prefix of posted_
  // Sender-side fault injection (one injector per endpoint, so each wire
  // stays single-writer), and the frame each peer's reorder fault holds
  // back (empty: none).
  std::unique_ptr<hw::FaultInjector> faults_;
  std::vector<std::vector<std::uint8_t>> reorder_held_;
  // Reusable buffers that keep the steady-state hot path off the heap.
  // tx_scratch_ holds in-flight frame bytes for sends without a window slab
  // slot (flow control off); it is depth-indexed because a posted send
  // drained from a nested extract() can overlap one app-context send (and
  // only one — the posted drain is re-entrancy-guarded by claim_posted).
  std::array<std::vector<std::uint8_t>, 2> tx_scratch_;
  std::size_t tx_depth_ = 0;
  std::vector<std::uint8_t> retx_scratch_;   // staged retransmission bytes
  std::vector<std::uint8_t> reasm_out_;      // completed reassembled message
  std::vector<NodeId> ack_peers_scratch_;    // service()'s ack-flush worklist
  std::vector<NodeId> drain_peers_scratch_;  // ack_all()'s worklist
  std::vector<RetransmitTimer::Due> due_scratch_;  // reliability_tick()'s
  // Rejects owed for frames processed in place inside wire storage:
  // injecting mid-burst could re-enter extract() while unconsumed frames
  // are live, so they are encoded at processing time and injected after.
  std::vector<DeferredTx> deferred_tx_;
  std::vector<DeferredTx> deferred_flush_scratch_;
  std::uint32_t next_msg_id_ = 1;
  bool in_handler_ = false;
  bool draining_posted_ = false;
  bool flushing_deferred_ = false;
  bool in_ack_flush_ = false;
  bool in_reliability_tick_ = false;
  // Set (by BlockedSend) while a send waits on a shut gate so the
  // reject-queue tick inside extract() leaves one slot free for the blocked
  // frame (otherwise bounce-release + retry-re-track inside one extract()
  // call starves the sender forever at reject_retry_delay 1).
  bool send_blocked_spin_ = false;
  std::uint16_t cat_send_ = 0;
  std::uint16_t cat_extract_ = 0;
  std::uint16_t cat_deliver_ = 0;
  std::uint16_t cat_retransmit_ = 0;
  std::uint16_t cat_reject_ = 0;
  std::uint16_t cat_crc_drop_ = 0;
  std::uint16_t cat_dup_ = 0;
  std::uint16_t cat_dead_peer_ = 0;
  std::uint16_t cat_depth_ = 0;
};

// ---------------------------------------------------------------------------
// Construction and observability
// ---------------------------------------------------------------------------

template <class Wire>
Engine<Wire>::Engine(NodeId id, std::size_t nodes, const FmConfig& cfg,
                     const hw::FaultParams& faults, std::string scope)
    : trace_(std::move(scope)),
      id_(id),
      nodes_(nodes),
      cfg_(cfg),
      window_(cfg.pending_window, max_wire_bytes(cfg.frame_payload)),
      reasm_(cfg.reassembly_slots),
      timer_(cfg.retransmit_timeout_ns, cfg.max_retries),
      credits_(nodes, cfg.window_mode ? cfg.window_per_peer : 0),
      dead_(nodes, 0),
      last_heard_ns_(nodes, 0),
      probe_seq_(nodes, 0),
      dup_ack_due_(nodes, 0),
      alive_grace_ns_(RetransmitTimer::detection_horizon_ns(
          cfg.retransmit_timeout_ns, cfg.max_retries)),
      reorder_held_(nodes) {
  FM_CHECK_MSG(!cfg.reliability || cfg.flow_control,
               "FM-R requires flow control: the send window holds the frame "
               "copies retransmission needs");
  if (!cfg.flow_control)
    for (auto& buf : tx_scratch_) buf.resize(max_wire_bytes(cfg.frame_payload));
  retx_scratch_.reserve(max_wire_bytes(cfg.frame_payload));
  // Sized here so that first use never allocates, however late in a run
  // it comes (a receiver that falls behind can owe more acks than it ever
  // did in warm-up; a drain() may first find acks owed mid-run): the ack
  // worklists hold at most one entry per peer, and a peer is owed at most
  // its pending window of acks, duplicates aside.
  ack_peers_scratch_.reserve(nodes);
  drain_peers_scratch_.reserve(nodes);
  if (cfg.flow_control)
    for (NodeId peer = 0; peer < nodes; ++peer)
      if (peer != id) acks_.reserve(peer, cfg.pending_window);
  // Construction happens before the owning thread (or forked process)
  // runs, so this context owns the trace ring.
  trace_.assert_writer();
  cat_send_ = trace_.intern("send");
  cat_extract_ = trace_.intern("extract");
  cat_deliver_ = trace_.intern("deliver");
  cat_retransmit_ = trace_.intern("retransmit");
  cat_reject_ = trace_.intern("reject");
  cat_crc_drop_ = trace_.intern("crc_drop");
  cat_dup_ = trace_.intern("dup");
  cat_dead_peer_ = trace_.intern("dead_peer");
  cat_depth_ = trace_.intern("window_rejq_depth");
  if (faults.enabled()) {
    // Each endpoint gets its own injector (the wire must stay
    // single-writer) with a decorrelated seed, so runs remain
    // bit-reproducible yet the nodes do not fail in lockstep.
    faults_ =
        std::make_unique<hw::FaultInjector>(decorrelate_faults(faults, id));
  }
}

template <class Wire>
void Engine<Wire>::register_metrics(obs::Registry& reg) {
  reg.assert_owner();
  stats_.register_into(reg);
  reg.gauge("q.reject_depth",
            [this] { return static_cast<double>(rejq_.size()); });
  reg.gauge("q.posted_depth", [this] {
    return static_cast<double>(posted_.size() - posted_head_);
  });
  reg.gauge("window.in_flight",
            [this] { return static_cast<double>(window_.in_flight()); });
  reg.gauge("reasm.active",
            [this] { return static_cast<double>(reasm_.active()); });
  reg.gauge("acks.due",
            [this] { return static_cast<double>(acks_.total_due()); });
  reg.gauge("timers.armed",
            [this] { return static_cast<double>(timer_.armed()); });
  reg.gauge("credits.available", [this] {
    double n = 0;
    for (std::size_t c : credits_) n += static_cast<double>(c);
    return n;
  });
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

template <class Wire>
Status Engine<Wire>::send4(NodeId dest, HandlerId handler, std::uint32_t w0,
                           std::uint32_t w1, std::uint32_t w2,
                           std::uint32_t w3) {
  std::uint32_t words[4] = {w0, w1, w2, w3};
  return send(dest, handler, words, sizeof words);
}

template <class Wire>
Status Engine<Wire>::send(NodeId dest, HandlerId handler, const void* buf,
                          std::size_t len) {
  FM_CHECK_MSG(!in_handler_,
               "send() from handler context; use post_send() instead");
  Outgoing m;
  Status s = start_send(m, dest, handler, buf, len);
  while (ok(s) && !m.done()) {
    s = send_step(m);
    if (s != Status::kAgain) continue;
    // The gate is shut: service the network while blocked (the FM
    // discipline), flagged so that the reject-queue retries inside extract()
    // leave one window slot for this frame. Without the reservation a
    // bounced frame's release and its retry's re-entry both land inside one
    // extract() call (at reject_retry_delay 1), so the next step always
    // finds the window full again — and a fresh fragment that would
    // complete an admitted reassembly (unwedging every peer bouncing off
    // that pool slot) is starved forever by its own sibling's retries.
    std::size_t n;
    {
      BlockedSend blocked(*this);
      n = extract();
    }
    if (n == 0) idle_pause();
    s = Status::kOk;
  }
  return s;
}

template <class Wire>
Status Engine<Wire>::start_send(Outgoing& m, NodeId dest, HandlerId handler,
                                const void* buf, std::size_t len) {
  // No backend has a wire from a node to itself.
  if (dest >= nodes_ || dest == id_) return Status::kBadArgument;
  if (!handlers_.valid(handler) || (len > 0 && buf == nullptr))
    return Status::kBadArgument;
  if (dead_[dest] != 0) return Status::kPeerDead;
  ++stats_.messages_sent;
  m = Outgoing{dest, handler, static_cast<const std::uint8_t*>(buf), len};
  if (len <= cfg_.frame_payload) return Status::kOk;
  // Segmentation: "Larger messages will require segmentation and
  // reassembly into frames of this size" (§5).
  const std::size_t per = cfg_.frame_payload;
  const std::size_t frags = (len + per - 1) / per;
  if (frags > 0xffff) return Status::kTooLarge;
  m.frags = static_cast<std::uint16_t>(frags);
  m.msg_id = next_msg_id_++;
  return Status::kOk;
}

template <class Wire>
Status Engine<Wire>::send_step(Outgoing& m) {
  trace_.assert_writer();  // single-threaded endpoint: we are the writer
  const NodeId dest = m.dest;
  // A peer declared dead (while the send waited, it frees its window slots)
  // fails the send at once instead of leaving it blocked forever. Counted
  // sent, then refused mid-flight: abandoned, for the conservation
  // invariant (sent == delivered + abandoned while no peer is dead).
  if (dead_[dest] != 0) {
    ++stats_.messages_abandoned;
    return Status::kPeerDead;
  }
  // Window gate — and, in window mode, a per-destination credit gate.
  if (cfg_.flow_control &&
      (window_.full() || (cfg_.window_mode && credits_[dest] == 0)))
    return Status::kAgain;
  if (cfg_.flow_control && cfg_.window_mode) --credits_[dest];
  const std::size_t off = std::size_t{m.next} * cfg_.frame_payload;
  const std::uint8_t* payload = m.bytes + off;
  const std::size_t len = std::min(cfg_.frame_payload, m.len - off);
  FrameHeader h;
  h.type = FrameType::kData;
  h.handler = m.handler;
  h.src = id_;
  h.payload_len = static_cast<std::uint16_t>(len);
  if (cfg_.crc_frames) h.flags |= FrameHeader::kFlagCrc;
  if (m.frags > 1) {
    h.flags |= FrameHeader::kFlagFragmented;
    h.msg_id = m.msg_id;
    h.frag_index = m.next;
    h.frag_count = m.frags;
  }
  ++m.next;
  if (cfg_.flow_control) {
    h.seq = window_.next_seq(dest);
    std::uint32_t piggy[kMaxAcksPerFrame];
    const std::size_t n_acks = acks_.take_into(
        dest, std::min(cfg_.piggyback_acks, kMaxAcksPerFrame), piggy);
    h.ack_count = static_cast<std::uint8_t>(n_acks);
    stats_.acks_piggybacked += n_acks;
    // The window slab slot doubles as the wire staging buffer and the
    // retained retransmission copy: the frame is serialized exactly once,
    // in place (the paper's PIO-gather, aimed at the window instead of the
    // NIC), and injected straight from the slot.
    // fm-lint: allow(hotpath-alloc): SendWindow::reserve claims a
    // preallocated slab slot; it shares a name with vector::reserve, not
    // its behaviour.
    std::uint8_t* slot = window_.reserve(dest, h.seq);
    const std::size_t wire_len =
        encode_frame_into(slot, h, payload, n_acks ? piggy : nullptr);
    window_.commit(wire_len);
    if (cfg_.reliability) timer_.arm(dest, h.seq, now_ns());
    ++stats_.frames_sent;
    if (trace_.enabled()) trace_.event(now_ns(), cat_send_, 'i', dest, h.seq);
    m.seq = h.seq;
    inject(dest, slot, wire_len, h.seq, m.nonblocking);
    return Status::kOk;
  }
  // No flow control means no retained copy is needed: serialize into the
  // depth-indexed scratch. Depth 2 suffices — a posted send drained from a
  // nested extract() can overlap the app-context send, and claim_posted()'s
  // re-entrancy guard rules out anything deeper.
  FM_CHECK_MSG(tx_depth_ < tx_scratch_.size(), "send scratch depth exceeded");
  std::uint8_t* buf = tx_scratch_[tx_depth_].data();
  const std::size_t wire_len = encode_frame_into(buf, h, payload, nullptr);
  ++stats_.frames_sent;
  if (trace_.enabled()) trace_.event(now_ns(), cat_send_, 'i', dest, h.seq);
  ++tx_depth_;
  inject(dest, buf, wire_len);
  --tx_depth_;
  return Status::kOk;
}

template <class Wire>
void Engine<Wire>::inject(NodeId dest, const std::uint8_t* frame,
                          std::size_t len, std::uint32_t window_seq,
                          bool nonblocking) {
  if (faults_) {
    // Fault-injection runs only in test configurations; the copies it makes
    // are off the steady state by construction (hence the cold boundary).
    inject_faulty(dest, frame, len, nonblocking);
    return;
  }
  push(dest, frame, len, window_seq, nonblocking);
}

template <class Wire>
void Engine<Wire>::inject_faulty(NodeId dest, const std::uint8_t* frame,
                                 std::size_t len, bool nonblocking) {
  // The fault paths below copy the frame into stable local storage before
  // any push, so slab-slot recycling cannot bite them: window_seq is not
  // forwarded.
  // Sender-side fault injection — the real backends' stand-in for the sim
  // backend's faulty switch fabric, layered on whatever the wire loses on
  // its own. Same model: drop (single or burst), corrupt, duplicate,
  // hold-and-overtake reorder.
  if (faults_->should_drop()) return;
  std::vector<std::uint8_t> bytes(frame, frame + len);
  faults_->maybe_corrupt(bytes);
  const bool dup = faults_->should_duplicate();
  std::vector<std::uint8_t> release;
  std::vector<std::uint8_t>& held = reorder_held_[dest];
  if (!held.empty()) {
    release.swap(held);
  } else if (faults_->should_reorder()) {
    // Held until the next frame to this peer overtakes it (a timeout
    // retransmission counts, so a held frame cannot be stuck forever).
    held = std::move(bytes);
    return;
  }
  push(dest, bytes.data(), bytes.size(), 0, nonblocking);
  if (dup) push(dest, bytes.data(), bytes.size(), 0, nonblocking);
  if (!release.empty())
    push(dest, release.data(), release.size(), 0, nonblocking);
}

template <class Wire>
void Engine<Wire>::push(NodeId dest, const std::uint8_t* frame,
                        std::size_t len, std::uint32_t window_seq,
                        bool nonblocking) {
  // Backpressure (a full ring, a socket that would block, a full staging
  // ring the kernel will not take): keep servicing our own receive side
  // while waiting so two nodes blasting each other cannot deadlock. A
  // kError is final — the frame is lost as if the wire ate it, and FM-R's
  // retransmit timer recovers it.
  while (wire().wire_push(dest, frame, len) == WireStatus::kFull) {
    // Nonblocking pushes drop on backpressure instead: the caller holds a
    // retained copy (FM-R) and must not spin here — notably the tick's
    // retransmissions, where the nested extract below cannot escalate the
    // very timers whose expiry is the only way out of a dead peer's
    // permanently full ring.
    if (nonblocking) return;
    if constexpr (blocking_wire()) {
      if (extract() == 0) idle_pause();
    } else {
      FM_CHECK_MSG(false, "a wire without an idle primitive pushed back");
    }
    // When `frame` points into the window slab, the nested extract can
    // invalidate it: a dead-peer declaration drops the slot, and a
    // reliability_tick() retransmission of this very frame can be acked
    // mid-spin, releasing the slot — either way the LIFO free list may
    // hand it to another send (e.g. one drained from posted_), clobbering
    // the bytes under us. Re-validate the slot still holds this frame
    // before re-reading it; if it does not, the frame was dropped or has
    // already been delivered via the retransmission, so nothing is lost.
    if (window_seq != 0 && window_.find(dest, window_seq).data != frame)
      return;
    if (dead_[dest] != 0) return;
  }
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

template <class Wire>
std::size_t Engine<Wire>::extract() {
  if (in_handler_) return 0;  // no re-entrant extraction from handlers
  // Single-threaded endpoint: we are the trace writer.
  trace_.assert_writer();
  // Flush points bracket the extract cycle: frames the wire staged before
  // the call go out before we read (the peer may be waiting on them), and
  // the acks/retries generated while processing go out before we return.
  wire().wire_flush();
  const std::uint64_t trace_t0 = trace_.enabled() ? now_ns() : 0;
  // The wire feeds every deliverable frame through receive(), processed in
  // place in wire storage and bounded per source, so a producer refilling
  // as fast as we consume cannot starve the retransmission and ack work
  // below. Sound only because process_frame() never re-enters extract():
  // every transmission it provokes is deferred (defer_reject) or queued
  // (rejq_, posted_) and injected once the wire's storage is consistent.
  const std::size_t count = wire().wire_receive();
  service();
  drain_posted();
  wire().wire_flush();
  trace_extract(trace_t0, count);
  return count;
}

template <class Wire>
void Engine<Wire>::service() {
  // Retransmit rejected frames whose backoff expired. Re-injection re-arms
  // the FM-R timer with a fresh retry budget: a rejection proved the peer
  // alive, so the dead-peer countdown restarts. The retry re-enters the
  // pending window (its bounce released the slot) so a lost retry can be
  // re-sourced by timeout retransmission; when the window is momentarily
  // full the entry just waits out another backoff period.
  for (auto& entry : rejq_.tick(cfg_.reject_retry_delay)) {
    if (dead_[entry.dest] != 0) {
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
    inject(entry.dest, entry.bytes.data(), entry.bytes.size());
  }
  // Standalone acks for peers owed a batch. The threshold must stay below
  // half a peer's in-flight allotment (its pending window, or its credit
  // allotment in window mode) or senders stall with their window full
  // while we sit on their acks. Configurations are symmetric (SPMD), so
  // our own config tells us the peers' limits. The re-entrancy guard keeps
  // a nested extract (ack-push backpressure) off the shared worklist.
  if (cfg_.flow_control && !in_ack_flush_) {
    in_ack_flush_ = true;
    std::size_t limit =
        cfg_.window_mode ? cfg_.window_per_peer : cfg_.pending_window;
    std::size_t threshold =
        std::min(cfg_.ack_batch, std::max<std::size_t>(1, limit / 2));
    acks_.peers_over_into(threshold, ack_peers_scratch_);
    for (NodeId peer : ack_peers_scratch_) send_standalone_ack(peer);
    // Duplicate frames seen this pass force an immediate flush to their
    // senders, bypassing the batch threshold (see the dedup branch).
    for (NodeId peer = 0; peer < dup_ack_due_.size(); ++peer) {
      if (dup_ack_due_[peer] == 0) continue;
      dup_ack_due_[peer] = 0;
      send_standalone_ack(peer);
    }
    in_ack_flush_ = false;
  }
  reliability_tick();
  // Reassembly TTL is a *lossy* reclamation: erasing a partial forgets
  // fragments whose sender already saw them acked, so under FM-R it
  // silently loses the whole message (nothing retained to retransmit, no
  // one left retrying — the run goes quiescent with the message missing).
  // With reliability on, a live peer's partial always completes (timeouts
  // re-source lost frames, bounced frames retry from the reject queue) and
  // a dead peer's slots are freed by mark_peer_dead(); the sweep therefore
  // only runs in unreliable profiles, where a genuinely lost fragment
  // would otherwise pin a receive-pool slot forever.
  if (!cfg_.reliability && cfg_.reassembly_ttl_ns > 0 &&
      reasm_.active() > 0) {
    const std::uint64_t now = now_ns();
    if (now > cfg_.reassembly_ttl_ns)
      stats_.reassemblies_expired +=
          reasm_.expire_older_than(now - cfg_.reassembly_ttl_ns);
  }
}

template <class Wire>
void Engine<Wire>::trace_extract(std::uint64_t t0, std::size_t count) {
  // Trace the extract as a B/E span, but only when it consumed something:
  // recording idle polls would flood the flight recorder while a blocked
  // sender spins. Both records are appended after the fact with their true
  // timestamps; the exporter's global sort restores chronological order
  // (and correct nesting for extracts nested under backpressure).
  if (!trace_.enabled() || count == 0) return;
  const std::uint64_t now = now_ns();
  trace_.event(t0, cat_extract_, 'B', static_cast<std::uint32_t>(count));
  trace_.event(now, cat_extract_, 'E', static_cast<std::uint32_t>(count));
  // Occupancy sample for Perfetto's counter track.
  trace_.event(now, cat_depth_, 'C',
               static_cast<std::uint32_t>(window_.in_flight()),
               static_cast<std::uint32_t>(rejq_.size()));
}

template <class Wire>
void Engine<Wire>::flush_deferred_tx() {
  if (flushing_deferred_) return;
  flushing_deferred_ = true;
  // Swap before walking: injection can block on backpressure and nest
  // extract(), whose frames may defer further rejects — those land on the
  // (now empty) live list and the outer loop picks them up next pass.
  while (!deferred_tx_.empty()) {
    deferred_flush_scratch_.clear();
    std::swap(deferred_tx_, deferred_flush_scratch_);
    for (auto& t : deferred_flush_scratch_)
      inject(t.dest, t.bytes.data(), t.bytes.size());
  }
  flushing_deferred_ = false;
}

template <class Wire>
void Engine<Wire>::drain() {
  for (;;) {
    ack_all();
    // Staged frames count as outstanding: returning with bytes still
    // staged would leave a peer waiting on acks we never sent.
    const bool staged = wire().wire_flush() > 0;
    if (!staged && drained()) return;
    if (extract() == 0) idle_pause();
  }
}

template <class Wire>
void Engine<Wire>::ack_all() {
  if (!cfg_.flow_control) return;
  acks_.peers_into(drain_peers_scratch_);
  for (NodeId peer : drain_peers_scratch_) send_standalone_ack(peer);
}

template <class Wire>
void Engine<Wire>::reliability_tick() {
  if (!cfg_.reliability || in_reliability_tick_) return;
  trace_.assert_writer();  // single-threaded endpoint: we are the writer
  in_reliability_tick_ = true;
  const std::uint64_t now = now_ns();
  timer_.expired_into(now, due_scratch_);
  for (const auto& due : due_scratch_) {
    if (due.exhausted) {
      // Liveness guard: a retry budget exhausted against a peer we are
      // still hearing from is congestion, not death. A burst into a
      // saturated receive queue can strike the same frame out max_retries
      // times while the peer's own data and acks keep arriving; killing it
      // then forgets the dedup state and breaks exactly-once. Death needs
      // a full detection horizon of *silence* — a killed rank goes quiet
      // and is declared dead within two horizons; a congested one gets its
      // frame re-armed with a fresh budget and recovery continues.
      const std::uint64_t heard = last_heard_ns_[due.dest];
      if (heard == 0 || now - heard >= alive_grace_ns_) {
        mark_peer_dead(due.dest);
        continue;
      }
    }
    const SendWindow::Stored stored = window_.find(due.dest, due.seq);
    if (stored.data == nullptr) {
      // Acked (or bounced into the reject queue) between the deadline
      // passing and the timer firing. (An exhausted entry is already
      // forgotten; disarming it is a no-op.)
      timer_.disarm(due.dest, due.seq);
      continue;
    }
    if (due.exhausted) timer_.arm(due.dest, due.seq, now);  // fresh budget
    ++stats_.retransmit_timeouts;
    ++stats_.retransmissions;
    if (trace_.enabled())
      trace_.event(now_ns(), cat_retransmit_, 'i', due.dest, due.seq);
    // inject() can re-enter extract() on backpressure, which may ack and
    // recycle the slab slot — stage the bytes first. The tick guard above
    // keeps the nested extract from clobbering the staging buffer.
    // fm-lint: allow(hotpath-alloc): scratch capacity was reserved at
    // construction, and a timeout retransmission is already recovery.
    retx_scratch_.assign(stored.data, stored.data + stored.len);
    // Nonblocking: a full ring or socket toward an unresponsive peer must
    // not spin this tick (the re-entrancy guard means a nested extract can
    // never run the escalation that declares the peer dead — the only
    // exit). The frame stays retained and armed; the next expiry retries,
    // and an exhausted budget still reaches the liveness verdict above.
    inject(due.dest, retx_scratch_.data(), retx_scratch_.size(), 0,
           /*nonblocking=*/true);
  }
  in_reliability_tick_ = false;
}

template <class Wire>
void Engine<Wire>::probe(NodeId peer) {
  // A live peer silent for a timeout, with no earlier probe unanswered.
  if (!cfg_.reliability || peer >= nodes_ || peer == id_ || dead_[peer] != 0 ||
      now_ns() - last_heard_ns_[peer] < cfg_.retransmit_timeout_ns ||
      window_.find(peer, probe_seq_[peer]).data != nullptr)
    return;
  // A zero-length frame, not a message; on backpressure the timer resends.
  Outgoing m{peer, kProbeHandler};
  m.nonblocking = true;
  if (send_step(m) != Status::kOk) return;  // the gate is shut
  probe_seq_[peer] = m.seq;
  ++stats_.probes_sent;
}

template <class Wire>
void Engine<Wire>::mark_peer_dead(NodeId peer) {
  trace_.assert_writer();  // single-threaded endpoint: we are the writer
  if (dead_[peer] != 0) return;
  dead_[peer] = 1;
  ++stats_.peers_dead;
  if (trace_.enabled()) trace_.event(now_ns(), cat_dead_peer_, 'i', peer, 0);
  // Drop every piece of state aimed at (or held for) the dead peer so
  // blocked senders unblock and no slot stays pinned.
  stats_.frames_discarded_dead += window_.drop_dest(peer);
  timer_.disarm_all(peer);
  stats_.frames_discarded_dead += rejq_.drop_dest(peer);
  acks_.forget(peer);
  dedup_.forget(peer);
  reasm_.abort(peer);
  credits_[peer] = 0;
  reorder_held_[peer].clear();
}

template <class Wire>
void Engine<Wire>::process_frame(NodeId from, const std::uint8_t* data,
                                 std::size_t len) {
  trace_.assert_writer();  // single-threaded endpoint: we are the writer
  // A dead verdict is final for the peer's incoming frames too: the purge
  // forgot its dedup state, so a retransmission that was still in the
  // network would be delivered a second time.
  if (dead_[from] != 0) {
    ++stats_.frames_discarded_dead;
    return;
  }
  auto hdr = decode_header(data, len);
  if (!hdr.has_value()) {
    // Only wire garbage can fail to decode: weather on a lossy wire or
    // under injected faults, a protocol bug on a lossless one.
    FM_CHECK_MSG(wire_may_corrupt(), "malformed frame on a lossless wire");
    ++stats_.malformed_frames;
    return;
  }
  const FrameHeader& h = *hdr;
  if (h.has_crc() && !frame_crc_ok(h, data)) {
    ++stats_.crc_drops;
    if (trace_.enabled())
      trace_.event(now_ns(), cat_crc_drop_, 'i', from, h.seq);
    return;  // no ack — the sender's retransmit timer recovers the frame
  }
  // Acks are attributed to the transport source (`from`: the ring the
  // frame arrived on, the datagram's kernel-reported address), not the
  // header's src field: the transport is ground truth even when the
  // payload bytes are suspect.
  for (std::size_t i = 0; i < h.ack_count; ++i) {
    std::uint32_t seq = frame_ack(h, data, i);
    timer_.disarm(from, seq);
    if (window_.ack(from, seq) && cfg_.window_mode) ++credits_[from];
  }
  switch (h.type) {
    case FrameType::kAck:
      break;
    case FrameType::kReject: {
      // One of our data frames bounced off `from`; park a cleaned copy
      // (type restored, stale piggybacked acks stripped) for retransmission.
      if (h.src != id_) {
        FM_CHECK_MSG(wire_may_corrupt(), "reject for a frame we never sent");
        ++stats_.malformed_frames;
        return;
      }
      ++stats_.rejects_received;
      // The rejection proved the peer alive; the reject-queue backoff now
      // owns this frame and the timer re-arms at re-injection. The window
      // slot is freed with it: a bounced frame is not in the network, and
      // leaving it pinned head-of-line blocks fragments bound for other
      // peers (two senders bouncing off each other's full receive pools
      // would deadlock waiting for window space).
      if (cfg_.reliability) timer_.disarm(from, h.seq);
      park_reject(from, h, data);
      window_.bounce(from, h.seq);
      break;
    }
    case FrameType::kData: {
      if (!handlers_.valid(h.handler)) {
        // A liveness probe (see probe()) is not a message: never dispatched
        // or counted, only marked seen (keeping the peer's seq stream dense)
        // and acked at once, like a duplicate.
        if (cfg_.reliability && h.handler == kProbeHandler &&
            h.payload_len == 0 && !h.fragmented()) {
          dedup_.mark(from, h.seq);
          acks_.note(from, h.seq);
          dup_ack_due_[from] = 1;
          break;
        }
        // Otherwise a corrupted-but-decodable frame's garbage handler id:
        // real FM would jump through a garbage function pointer, we drop
        // (no ack, no dedup mark — FM-R's retransmission re-sources it).
        FM_CHECK_MSG(wire_may_corrupt(), "frame for an unregistered handler");
        ++stats_.malformed_frames;
        return;
      }
      if (cfg_.reliability && dedup_.seen(from, h.seq)) {
        // Already accepted once: suppress delivery but re-ack, since the
        // duplicate usually means our first ack was lost with the original.
        // The re-ack must be *threshold-exempt*: a retransmission proves
        // the sender is burning FM-R retries waiting on us, and a peer
        // owed fewer acks than the batch threshold, with no reverse data
        // to piggyback on, would otherwise starve the sender into falsely
        // declaring this live endpoint dead.
        ++stats_.duplicates_suppressed;
        if (trace_.enabled())
          trace_.event(now_ns(), cat_dup_, 'i', from, h.seq);
        acks_.note(from, h.seq);
        dup_ack_due_[from] = 1;
        break;
      }
      const std::uint8_t* payload = frame_payload(h, data);
      if (h.fragmented()) {
        switch (reasm_.feed(from, h, payload, &reasm_out_, now_ns(),
                            h.handler == deposit_hid_ ? &deposit_sink_
                                                      : nullptr)) {
          case Reassembler::Feed::kMalformed:
            FM_CHECK_MSG(wire_may_corrupt(),
                         "malformed fragment on a lossless wire");
            ++stats_.malformed_frames;
            return;  // dropped: no ack, no dedup mark
          case Reassembler::Feed::kRejected:
            ++stats_.rejects_issued;
            if (trace_.enabled())
              trace_.event(now_ns(), cat_reject_, 'i', from, h.seq);
            defer_reject(from, h, data);
            return;  // not accepted: no ack, no dedup mark
          case Reassembler::Feed::kAccepted:
            break;
          case Reassembler::Feed::kComplete:
            ++stats_.messages_delivered;
            if (trace_.enabled())
              trace_.event(now_ns(), cat_deliver_, 'i', from, h.seq);
            in_handler_ = true;
            handlers_.dispatch(h.handler, wire(), from, reasm_out_.data(),
                               reasm_out_.size());
            in_handler_ = false;
            break;
        }
      } else {
        ++stats_.messages_delivered;
        if (trace_.enabled())
          trace_.event(now_ns(), cat_deliver_, 'i', from, h.seq);
        in_handler_ = true;
        handlers_.dispatch(h.handler, wire(), from, payload, h.payload_len);
        in_handler_ = false;
      }
      if (cfg_.reliability) dedup_.mark(from, h.seq);
      if (cfg_.flow_control) acks_.note(from, h.seq);
      break;
    }
  }
}

template <class Wire>
void Engine<Wire>::drain_posted() {
  if (!claim_posted()) return;
  while (const Posted* p = next_posted())
    retire_posted(send(p->dest, p->handler, p->payload.data(),
                       p->payload.size()));
}

template <class Wire>
bool Engine<Wire>::claim_posted() {
  if (draining_posted_ || posted_head_ == posted_.size()) return false;
  draining_posted_ = true;
  return true;
}

template <class Wire>
const typename Engine<Wire>::Posted* Engine<Wire>::next_posted() {
  // Index on every access: a blocked send nests extract(), and a handler
  // running there may post more, reallocating posted_. The payload's own
  // heap buffer is stable across that reallocation (vector move).
  if (posted_head_ < posted_.size()) return &posted_[posted_head_];
  posted_.clear();
  posted_head_ = 0;
  draining_posted_ = false;
  return nullptr;
}

template <class Wire>
void Engine<Wire>::retire_posted(Status s) {
  // A posted reply to a peer that died while it sat queued is dropped,
  // not a crash.
  FM_CHECK_MSG(ok(s) || s == Status::kPeerDead, "posted send failed");
  // fm-lint: allow(hotpath-alloc): recycles the entry (and its warm
  // payload buffer) into the pool; amortizes to zero allocations.
  posted_pool_.push_back(std::move(posted_[posted_head_]));
  ++posted_head_;
}

template <class Wire>
void Engine<Wire>::send_standalone_ack(NodeId peer) {
  std::uint32_t acks[kMaxAcksPerFrame];
  const std::size_t n = acks_.take_into(peer, kMaxAcksPerFrame, acks);
  if (n == 0) return;
  FrameHeader h;
  h.type = FrameType::kAck;
  h.src = id_;
  if (cfg_.crc_frames) h.flags |= FrameHeader::kFlagCrc;
  h.ack_count = static_cast<std::uint8_t>(n);
  ++stats_.acks_standalone;
  // Largest possible ack frame fits on the stack, so each nesting level of
  // extract() gets its own buffer for free.
  std::uint8_t buf[FrameHeader::kBaseBytes + 4 * kMaxAcksPerFrame +
                   FrameHeader::kCrcBytes];
  const std::size_t wire_len = encode_frame_into(buf, h, nullptr, acks);
  inject(peer, buf, wire_len);
}

template <class Wire>
void Engine<Wire>::park_reject(NodeId from, const FrameHeader& h,
                               const std::uint8_t* data) {
  // One of our data frames bounced: park a cleaned copy (type restored,
  // stale piggybacked acks stripped) for backoff retransmission. Cold by
  // definition — a reject means a receive pool overflowed somewhere.
  FrameHeader clean = h;
  clean.type = FrameType::kData;
  clean.ack_count = 0;
  // clean inherits the CRC flag, so encode_frame recomputes a valid
  // trailer over the cleaned frame.
  rejq_.add(from, h.seq, encode_frame(clean, frame_payload(h, data), nullptr));
}

template <class Wire>
void Engine<Wire>::defer_reject(NodeId from, const FrameHeader& h,
                                const std::uint8_t* data) {
  FrameHeader rh = h;
  rh.type = FrameType::kReject;
  rh.ack_count = 0;
  // rh inherits the CRC flag, so encode_frame recomputes a valid trailer.
  // Parked rather than injected: the frame is being processed in place in
  // wire storage, and the backpressure a push can hit must not re-enter
  // extract() from here.
  deferred_tx_.push_back(
      DeferredTx{from, encode_frame(rh, frame_payload(h, data), nullptr)});
}

template <class Wire>
void Engine<Wire>::post_send4(NodeId dest, HandlerId handler,
                              std::uint32_t w0, std::uint32_t w1,
                              std::uint32_t w2, std::uint32_t w3) {
  std::uint32_t words[4] = {w0, w1, w2, w3};
  post_send(dest, handler, words, sizeof words);
}

template <class Wire>
void Engine<Wire>::post_send(NodeId dest, HandlerId handler, const void* buf,
                             std::size_t len) {
  post_send2(dest, handler, buf, len, nullptr, 0);
}

template <class Wire>
void Engine<Wire>::post_send2(NodeId dest, HandlerId handler, const void* hdr,
                              std::size_t hdr_len, const void* body,
                              std::size_t body_len) {
  Posted p;
  if (!posted_pool_.empty()) {
    p = std::move(posted_pool_.back());
    posted_pool_.pop_back();
  }
  p.dest = dest;
  p.handler = handler;
  const auto* h = static_cast<const std::uint8_t*>(hdr);
  const auto* b = static_cast<const std::uint8_t*>(body);
  // fm-lint: allow(hotpath-alloc): assigns into the recycled entry's warm
  // buffer; only a first-time larger payload grows it.
  p.payload.assign(h, h + hdr_len);
  // fm-lint: allow(hotpath-alloc): appends within the same warm capacity.
  p.payload.insert(p.payload.end(), b, b + body_len);
  // fm-lint: allow(hotpath-alloc): the posted list's capacity warms up and
  // is kept by next_posted()'s clear().
  posted_.push_back(std::move(p));
}

}  // namespace fm
