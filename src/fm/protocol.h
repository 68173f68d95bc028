// Backend-independent FM protocol state machines.
//
// These classes implement the return-to-sender flow control of §4.5 and the
// segmentation/reassembly extension, free of any simulator or threading
// concern, so fm::Engine (fm/engine.h) runs them for every backend — one
// protocol implementation and one set of protocol tests. The FM-R
// reliability additions (RetransmitTimer, DedupFilter, reassembly expiry)
// live here too: they answer §4.5's "the network is assumed to be
// reliable, or fault-tolerance must be provided by a higher level
// protocol" — this is that higher level protocol.
//
// Time is a plain nanosecond count supplied by the caller (simulated time on
// the sim backend, steady_clock on shm), so nothing here knows about clocks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/annotate.h"
#include "common/check.h"
#include "common/types.h"
#include "fm/frame.h"

namespace fm {

/// Sender-side pending store: one slot per outstanding (sent, unacked)
/// frame. "The sender optimistically sends packets into the network while
/// reserving space locally for each outstanding packet." Bounded by the
/// configured window; full() gates FM_send.
///
/// Storage is a fixed slab allocated once at construction — one
/// `slot_bytes` frame buffer per window slot — because this window IS the
/// paper's "reserved space locally for each outstanding packet": a frame is
/// serialized straight into its slot (reserve/commit) and retransmission
/// re-injects from the slot, so the steady-state send path never touches
/// the heap. Lookups go through a fixed open-addressing index (linear
/// probing, backward-shift deletion, load factor <= 1/4) instead of
/// scanning the live-slot list: reserve() dup-checks and ack() lookups run
/// once per frame, and an O(in_flight) scan there was a measured 25% of the
/// send-side profile once messages fragment (two frames per message keep
/// twice the entries in flight).
///
/// Sequence numbers are per destination, so every receiver observes a dense
/// 1,2,3,... stream from each sender — the property the FM-R DedupFilter's
/// cumulative cutoff relies on. Entries are therefore keyed by (dest, seq).
class SendWindow {
 public:
  /// A retained frame inside the slab. `data` is null when absent.
  struct Stored {
    const std::uint8_t* data = nullptr;
    std::size_t len = 0;
  };

  /// `capacity` window slots of `slot_bytes` each; `slot_bytes` must admit
  /// the largest frame the caller can produce (see max_wire_bytes).
  explicit SendWindow(std::size_t capacity,
                      std::size_t slot_bytes = max_wire_bytes(kFmFramePayload))
      : capacity_(capacity),
        slot_bytes_(slot_bytes),
        slab_(new std::uint8_t[capacity * slot_bytes]),
        meta_(capacity) {
    live_.reserve(capacity);
    free_.reserve(capacity);
    for (std::size_t i = capacity; i-- > 0;)
      free_.push_back(static_cast<std::uint32_t>(i));
    std::size_t bits = 4;
    while ((std::size_t{1} << bits) < capacity * 4) ++bits;
    idx_bits_ = bits;
    idx_mask_ = (std::size_t{1} << bits) - 1;
    idx_.assign(idx_mask_ + 1, IdxEnt{});
  }

  /// True when no more frames may be injected.
  bool full() const { return live_.size() >= capacity_; }
  /// Outstanding frames.
  std::size_t in_flight() const { return live_.size(); }
  /// Slots remaining.
  std::size_t space() const { return capacity_ - live_.size(); }

  /// Allocates the next frame sequence number for `dest` (first is 1).
  /// find-then-emplace, not emplace: libstdc++'s unordered_map::emplace
  /// allocates its node before probing for the key, which would put one
  /// heap allocation on every frame sent.
  FM_HOT_PATH std::uint32_t next_seq(NodeId dest) {
    auto it = next_seq_.find(dest);
    // fm-lint: allow(hotpath-alloc): first contact with a peer allocates its
    // counter node once; the steady state always takes the find() hit above.
    if (it == next_seq_.end()) it = next_seq_.emplace(dest, 1).first;
    return it->second++;
  }

  /// Claims a slab slot for (`dest`, `seq`) and returns its writable
  /// storage (`slot_bytes` long): serialize the frame there, then
  /// commit(len). At most one reservation may be outstanding.
  FM_HOT_PATH std::uint8_t* reserve(NodeId dest, std::uint32_t seq) {
    FM_CHECK_MSG(!full(), "SendWindow overflow");
    FM_CHECK_MSG(reserved_ == kNone, "nested SendWindow reserve");
    FM_CHECK_MSG(find_slot(dest, seq) == kNone, "duplicate pending seq");
    const std::uint32_t s = free_.back();
    free_.pop_back();
    Meta& m = meta_[s];
    m.dest = dest;
    m.seq = seq;
    m.len = 0;
    m.live_idx = static_cast<std::uint32_t>(live_.size());
    // fm-lint: allow(hotpath-alloc): capacity reserved at construction; the
    // live list can never outgrow the slab it indexes.
    live_.push_back(s);
    idx_insert(dest, seq, s);
    reserved_ = s;
    return slab_.get() + s * slot_bytes_;
  }

  /// Completes the outstanding reservation: the slot holds a `len`-byte
  /// frame, now eligible for find()/ack()/retransmission.
  FM_HOT_PATH void commit(std::size_t len) {
    FM_CHECK_MSG(reserved_ != kNone, "commit without reserve");
    FM_CHECK_MSG(len <= slot_bytes_, "frame exceeds window slot");
    meta_[reserved_].len = static_cast<std::uint32_t>(len);
    reserved_ = kNone;
  }

  /// Records an injected frame by copying it into the slab (cold-path
  /// convenience; hot paths serialize in place via reserve/commit).
  FM_COLD_PATH void track(NodeId dest, std::uint32_t seq, const void* bytes,
                          std::size_t len) {
    FM_CHECK_MSG(len <= slot_bytes_, "frame exceeds window slot");
    std::uint8_t* dst = reserve(dest, seq);
    if (len != 0) std::memcpy(dst, bytes, len);
    commit(len);
  }

  /// Releases a slot on acknowledgement from `dest`. Returns false for an
  /// unknown seq (e.g. a re-ack of a retransmitted duplicate) — harmless.
  FM_HOT_PATH bool ack(NodeId dest, std::uint32_t seq) {
    const std::uint32_t s = find_slot(dest, seq);
    if (s == kNone) return false;
    release(s);
    return true;
  }

  /// Releases a slot whose frame bounced back via return-to-sender. A
  /// returned frame is no longer outstanding in the network and the reject
  /// queue now retains its bytes, so keeping it here would only pin window
  /// capacity: a window full of bounced frames head-of-line blocks
  /// fragments bound for *other* peers, and two senders doing that to each
  /// other deadlock (each waits for window space only the other's rejected
  /// retries could free). Re-injection re-reserves a slot so FM-R timeout
  /// retransmission can still re-source the retry.
  FM_COLD_PATH bool bounce(NodeId dest, std::uint32_t seq) {
    return ack(dest, seq);
  }

  /// Looks up the retained copy of (`dest`, `seq`) for retransmission
  /// (reject path or FM-R timeout). The view is valid until the entry is
  /// acked, dropped, or the slab slot is otherwise recycled.
  FM_HOT_PATH Stored find(NodeId dest, std::uint32_t seq) const {
    const std::uint32_t s = find_slot(dest, seq);
    if (s == kNone) return Stored{};
    return Stored{slab_.get() + s * slot_bytes_, meta_[s].len};
  }

  /// Drops every pending entry destined to `dest` (FM-R dead-peer cleanup:
  /// frees the slots so senders blocked on a full window make progress).
  /// Returns the number of entries dropped.
  FM_COLD_PATH std::size_t drop_dest(NodeId dest) {
    std::size_t n = 0;
    for (std::size_t i = live_.size(); i-- > 0;) {
      if (meta_[live_[i]].dest == dest) {
        release(live_[i]);
        ++n;
      }
    }
    return n;
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  struct Meta {
    NodeId dest = kInvalidNode;
    std::uint32_t seq = 0;
    std::uint32_t len = 0;
    std::uint32_t live_idx = 0;
  };

  // (dest, seq) -> slot map: fixed-size open addressing with linear probing
  // and backward-shift deletion (no tombstones, so probes stay short at the
  // <= 1/4 load factor the constructor sizes for, and lookups always
  // terminate at an empty entry).
  struct IdxEnt {
    NodeId dest = kInvalidNode;
    std::uint32_t seq = 0;
    std::uint32_t slot = kNone;
  };
  static constexpr std::size_t kNpos = ~std::size_t{0};

  FM_HOT_PATH std::size_t idx_home(NodeId dest, std::uint32_t seq) const {
    // Fibonacci hashing: per-dest seqs are dense (1, 2, 3, ...), and the
    // multiply spreads them across the table instead of clustering probes.
    const std::uint64_t key =
        (static_cast<std::uint64_t>(dest) << 32) | std::uint64_t{seq};
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                    (64 - idx_bits_));
  }

  FM_HOT_PATH std::size_t idx_pos(NodeId dest, std::uint32_t seq) const {
    for (std::size_t i = idx_home(dest, seq);; i = (i + 1) & idx_mask_) {
      const IdxEnt& e = idx_[i];
      if (e.slot == kNone) return kNpos;
      if (e.dest == dest && e.seq == seq) return i;
    }
  }

  FM_HOT_PATH void idx_insert(NodeId dest, std::uint32_t seq,
                              std::uint32_t slot) {
    std::size_t i = idx_home(dest, seq);
    while (idx_[i].slot != kNone) i = (i + 1) & idx_mask_;
    idx_[i] = IdxEnt{dest, seq, slot};
  }

  FM_HOT_PATH void idx_erase(NodeId dest, std::uint32_t seq) {
    std::size_t j = idx_pos(dest, seq);
    FM_CHECK_MSG(j != kNpos, "index erase of absent (dest, seq)");
    idx_[j].slot = kNone;
    // Backward-shift: pull each displaced successor into the hole iff the
    // hole lies cyclically within [its home slot, its current slot).
    for (std::size_t k = (j + 1) & idx_mask_; idx_[k].slot != kNone;
         k = (k + 1) & idx_mask_) {
      const std::size_t home = idx_home(idx_[k].dest, idx_[k].seq);
      const bool shiftable =
          (j < k) ? (home <= j || home > k) : (home <= j && home > k);
      if (shiftable) {
        idx_[j] = idx_[k];
        idx_[k].slot = kNone;
        j = k;
      }
    }
  }

  FM_HOT_PATH std::uint32_t find_slot(NodeId dest, std::uint32_t seq) const {
    const std::size_t i = idx_pos(dest, seq);
    return i == kNpos ? kNone : idx_[i].slot;
  }

  FM_HOT_PATH void release(std::uint32_t s) {
    idx_erase(meta_[s].dest, meta_[s].seq);
    const std::uint32_t i = meta_[s].live_idx;
    const std::uint32_t last = live_.back();
    live_[i] = last;
    meta_[last].live_idx = i;
    live_.pop_back();
    // fm-lint: allow(hotpath-alloc): capacity reserved at construction; the
    // free list holds at most every slab slot.
    free_.push_back(s);
  }

  std::size_t capacity_;
  std::size_t slot_bytes_;
  std::unique_ptr<std::uint8_t[]> slab_;
  std::vector<Meta> meta_;           // per-slot bookkeeping, slab-parallel
  std::vector<std::uint32_t> live_;  // in-flight slots, compact (scan order)
  std::vector<std::uint32_t> free_;  // recycled slots, stack order
  std::vector<IdxEnt> idx_;          // (dest, seq) -> slot, open addressing
  std::size_t idx_bits_ = 0;
  std::size_t idx_mask_ = 0;
  std::uint32_t reserved_ = kNone;
  std::unordered_map<NodeId, std::uint32_t> next_seq_;
};

/// FM-R sender-side retransmission deadlines: one armed timer per
/// outstanding (dest, seq). `expired(now)` hands back everything past its
/// deadline with bounded exponential backoff; an entry whose retries are
/// exhausted is reported once with `exhausted == true` and forgotten — the
/// caller then declares the peer dead.
class RetransmitTimer {
 public:
  RetransmitTimer(std::uint64_t timeout_ns, std::size_t max_retries)
      : timeout_ns_(timeout_ns), max_retries_(max_retries) {}

  /// Upper bound on the time from a peer going silent to this timer
  /// exhausting its retries and declaring the frame abandoned: the sum of
  /// every backed-off deadline (shift capped exactly as expired_into caps
  /// it). FM-San's chaos scenarios assert dead-peer detection completes
  /// within a small multiple of this horizon.
  static constexpr std::uint64_t detection_horizon_ns(
      std::uint64_t timeout_ns, std::size_t max_retries) {
    std::uint64_t total = 0;
    for (std::size_t r = 0; r <= max_retries; ++r)
      total += timeout_ns << (r < kBackoffShiftCap ? r : kBackoffShiftCap);
    return total;
  }

  /// Arms (or re-arms, resetting the retry count) the timer for a frame.
  /// Storage is a flat vector: armed timers are bounded by the pending
  /// window (one per in-flight frame), so a linear scan beats a node-based
  /// map — and, crucially for the allocation-free steady state, re-arming
  /// into the vector's warmed-up capacity never touches the heap, where an
  /// unordered_map would allocate a node per arm and free it per ack.
  FM_HOT_PATH void arm(NodeId dest, std::uint32_t seq, std::uint64_t now_ns) {
    for (Entry& e : armed_) {
      if (e.dest == dest && e.seq == seq) {
        e.deadline_ns = now_ns + timeout_ns_;
        e.retries = 0;
        return;
      }
    }
    // fm-lint: allow(hotpath-alloc): armed timers are bounded by the pending
    // window, so the vector's capacity warms up once and stays.
    armed_.push_back(Entry{now_ns + timeout_ns_, dest, seq, 0});
  }

  /// Cancels the timer (frame acknowledged). Unknown entries are ignored.
  FM_HOT_PATH void disarm(NodeId dest, std::uint32_t seq) {
    for (std::size_t i = 0; i < armed_.size(); ++i) {
      if (armed_[i].dest == dest && armed_[i].seq == seq) {
        armed_[i] = armed_.back();
        armed_.pop_back();
        return;
      }
    }
  }

  /// Cancels every timer aimed at `dest` (dead-peer cleanup).
  FM_COLD_PATH void disarm_all(NodeId dest) {
    for (std::size_t i = armed_.size(); i-- > 0;) {
      if (armed_[i].dest == dest) {
        armed_[i] = armed_.back();
        armed_.pop_back();
      }
    }
  }

  /// A frame whose deadline passed. `retries` counts this firing (1-based);
  /// `exhausted` means max_retries was exceeded and the entry was dropped.
  struct Due {
    NodeId dest;
    std::uint32_t seq;
    std::size_t retries;
    bool exhausted;
  };

  /// Collects every armed timer with deadline <= now into `due` (cleared
  /// first; caller supplies the vector so a steady-state caller reuses one
  /// buffer — in the common nothing-expired case this never allocates).
  /// Survivors are re-armed at now + timeout * 2^retries (shift capped so
  /// the backoff stays bounded).
  FM_HOT_PATH void expired_into(std::uint64_t now_ns, std::vector<Due>& due) {
    due.clear();
    for (std::size_t i = 0; i < armed_.size();) {
      Entry& e = armed_[i];
      if (e.deadline_ns > now_ns) {
        ++i;
        continue;
      }
      ++e.retries;
      if (e.retries > max_retries_) {
        // fm-lint: allow(hotpath-alloc): an expiry is already the recovery
        // path, and the caller-owned buffer keeps its capacity across ticks.
        due.push_back(Due{e.dest, e.seq, e.retries, true});
        armed_[i] = armed_.back();
        armed_.pop_back();
      } else {
        std::size_t shift = std::min(e.retries, kBackoffShiftCap);
        e.deadline_ns = now_ns + (timeout_ns_ << shift);
        // fm-lint: allow(hotpath-alloc): same recovery-path buffer as above.
        due.push_back(Due{e.dest, e.seq, e.retries, false});
        ++i;
      }
    }
  }

  /// Timers currently armed.
  std::size_t armed() const { return armed_.size(); }

 private:
  // Backoff doubling stops here: 2^6 * timeout is long enough to outwait
  // any transient congestion this stack can produce, and keeping it bounded
  // keeps the dead-peer detection horizon predictable.
  static constexpr std::size_t kBackoffShiftCap = 6;

  struct Entry {
    std::uint64_t deadline_ns;
    NodeId dest;
    std::uint32_t seq;
    std::size_t retries;
  };
  std::uint64_t timeout_ns_;
  std::size_t max_retries_;
  std::vector<Entry> armed_;
};

/// FM-R receiver-side duplicate suppression. Relies on per-destination
/// sequence numbers: each peer's accepted seqs form a dense 1,2,3,...
/// stream, tracked as a cumulative cutoff ("every seq below this was
/// accepted") plus the sparse set of out-of-order seqs at or above it. The
/// set holds only the gaps — bounded in practice by the peer's pending
/// window — and drains back into the cutoff as gaps fill, so membership is
/// exact: a retransmitted duplicate is never redelivered and a delayed
/// first copy is never misjudged.
class DedupFilter {
 public:
  /// True when (src, seq) was already accepted.
  FM_HOT_PATH bool seen(NodeId src, std::uint32_t seq) const {
    auto it = peers_.find(src);
    if (it == peers_.end()) return false;
    return seq < it->second.cutoff || it->second.ahead.count(seq) > 0;
  }

  /// Records the acceptance of (src, seq). Call only after the frame is
  /// actually accepted — a rejected (returned-to-sender) frame must stay
  /// unknown so its retransmission is delivered.
  FM_HOT_PATH void mark(NodeId src, std::uint32_t seq) {
    // fm-lint: allow(hotpath-alloc): first frame from a peer creates its
    // filter node once; every later mark finds the bucket in place.
    Peer& p = peers_[src];
    if (seq < p.cutoff) return;
    if (seq == p.cutoff) {
      // In-order fast path: the common case once the stream is flowing.
      // Advancing the cutoff directly keeps the steady state off the heap
      // (an insert-then-erase round trip through the set would allocate a
      // node per frame); the drain loop below only runs while previously
      // buffered out-of-order seqs become contiguous.
      ++p.cutoff;
      if (p.ahead.empty()) return;
    } else {
      // fm-lint: allow(hotpath-alloc): out-of-order arrival only — the gap
      // set is bounded by the peer's pending window and drains back below.
      p.ahead.insert(seq);
    }
    while (p.ahead.erase(p.cutoff) > 0) ++p.cutoff;
  }

  /// Discards all state for `src` (dead-peer cleanup).
  void forget(NodeId src) { peers_.erase(src); }

  /// Out-of-order seqs currently held for `src` (diagnostics; bounded by
  /// the peer's pending window during normal operation).
  std::size_t pending_gaps(NodeId src) const {
    auto it = peers_.find(src);
    return it == peers_.end() ? 0 : it->second.ahead.size();
  }

 private:
  struct Peer {
    std::uint32_t cutoff = 1;  // all seqs below this were accepted
    std::unordered_set<std::uint32_t> ahead;
  };
  std::unordered_map<NodeId, Peer> peers_;
};

/// Receiver-side acknowledgement accounting: which frame seqs are owed to
/// which source, to be drained by piggybacking or standalone ack frames.
class AckTracker {
 public:
  /// Notes that `seq` from `src` was accepted and must be acknowledged.
  FM_HOT_PATH void note(NodeId src, std::uint32_t seq) {
    // fm-lint: allow(hotpath-alloc): the per-peer buffer and its map node
    // survive emptying (see take_into), so the steady state reuses warm
    // capacity; only first contact with a peer allocates.
    due_[src].push_back(seq);
  }

  /// Preallocates room for `n` acks owed to `src`, so noting up to that
  /// many never allocates.
  void reserve(NodeId src, std::size_t n) { due_[src].reserve(n); }

  /// Acks currently owed to `src`.
  std::size_t due(NodeId src) const {
    auto it = due_.find(src);
    return it == due_.end() ? 0 : it->second.size();
  }

  /// Total acks owed to anybody.
  std::size_t total_due() const {
    std::size_t n = 0;
    for (const auto& [node, v] : due_) n += v.size();
    return n;
  }

  /// Removes up to `max` owed acks for `src` into `out` (oldest first);
  /// returns the count. Allocation-free: the per-peer entry and its buffer
  /// survive emptying, because the hot path cycles note/take on every frame
  /// and re-creating the map node each cycle would hit the heap.
  FM_HOT_PATH std::size_t take_into(NodeId src, std::size_t max,
                                    std::uint32_t* out) {
    auto it = due_.find(src);
    if (it == due_.end()) return 0;
    auto& v = it->second;
    const std::size_t n = std::min(max, v.size());
    std::copy(v.begin(), v.begin() + static_cast<long>(n), out);
    v.erase(v.begin(), v.begin() + static_cast<long>(n));
    return n;
  }

  /// Appends every source owed at least `threshold` acks (and at least one)
  /// to `out`, cleared first. Caller supplies the vector so a steady-state
  /// caller can reuse one buffer.
  FM_HOT_PATH void peers_over_into(std::size_t threshold,
                                   std::vector<NodeId>& out) const {
    out.clear();
    for (const auto& [node, v] : due_)
      // fm-lint: allow(hotpath-alloc): caller-owned worklist, reused across
      // extracts; bounded by the number of peers.
      if (!v.empty() && v.size() >= threshold) out.push_back(node);
  }

  /// Drops every ack owed to `src` (dead-peer cleanup: an ack aimed at a
  /// dead node would be injected into the network for nobody).
  void forget(NodeId src) { due_.erase(src); }

  /// Appends every source with any owed acks to `out`, cleared first.
  void peers_into(std::vector<NodeId>& out) const { peers_over_into(1, out); }

 private:
  std::unordered_map<NodeId, std::vector<std::uint32_t>> due_;
};

/// Committed landing area for a deposited (solicited) message — see
/// DepositSinkFn.
struct DepositTarget {
  std::uint8_t* dst = nullptr;  ///< message bytes [head_len, head_len+body_len)
  std::size_t head_len = 0;     ///< leading bytes retained for the handler
  std::size_t body_len = 0;     ///< exact body length the receiver granted
};

/// Receive-side zero-copy hook — the paper's §4 claim ("a handler could
/// deposit data directly into application data structures without
/// intermediate copies") as an API. Offered the FIRST fragment of a
/// fragmented message bound for the registered handler; the callback
/// inspects the leading bytes and either commits a landing area (return
/// true: the body reassembles straight into dst, the handler later fires
/// with only the retained head) or declines (return false: normal
/// receive-pool reassembly). Only commit memory whose bytes this rank
/// solicited — a partial deposit from a peer that dies mid-message is left
/// in place, which is only sound when the receiver granted exactly that
/// range.
using DepositSinkFn = std::function<bool(
    NodeId src, const std::uint8_t* head, std::size_t head_avail,
    DepositTarget* out)>;

/// Reassembly of segmented messages (this library's extension past FM 1.0's
/// 32-word FM_send limit). Slots are the receive pool whose exhaustion
/// triggers return-to-sender.
///
/// Slots live in a flat preallocated pool (linear scan — the pool is small,
/// 16 by default) and their chunk buffers are never freed on completion, so
/// a steady stream of same-shaped fragmented messages reassembles without
/// touching the allocator after the first few messages warm the pool. The
/// old unordered_map design paid ~5 allocations per fragmented message,
/// which is what produced the >3x throughput cliff at the first fragmented
/// size in bench/shm_hotpath (stream_128B vs stream_256B).
class Reassembler {
 public:
  explicit Reassembler(std::size_t slots) : pool_(slots) {}

  enum class Feed {
    kAccepted,   ///< Fragment stored; message not yet complete.
    kComplete,   ///< Message completed; *out holds the payload.
    kRejected,   ///< No slot available — return the frame to its sender.
    kMalformed,  ///< Inconsistent fragment metadata (wire corruption).
  };

  /// Offers a fragment. On kComplete the assembled message payload is moved
  /// into *out and the slot is freed. Inconsistent fragment metadata — which
  /// cannot occur on a reliable network but can under fault injection —
  /// yields kMalformed rather than undefined behaviour. `now_ns` stamps the
  /// slot for expire_older_than (pass 0 when expiry is unused).
  ///
  /// When `sink` is non-null it is offered fragment 0 of each NEW message
  /// (see DepositSinkFn). If the sink commits, the slot goes into deposit
  /// mode: fragment payloads are placed straight into the committed landing
  /// area (their message offset is frag_index times fragment 0's payload
  /// length — every fragment but the last is full-sized), only the head
  /// bytes are retained, and kComplete delivers just that head in *out. A
  /// message whose fragment 0 was not the first to arrive reassembles the
  /// normal way — the landing area is only knowable from the head.
  FM_HOT_PATH Feed feed(NodeId src, const FrameHeader& h,
                         const std::uint8_t* payload,
                         std::vector<std::uint8_t>* out,
                         std::uint64_t now_ns = 0,
                         const DepositSinkFn* sink = nullptr) {
    FM_CHECK(h.fragmented());
    if (h.frag_count < 1 || h.frag_index >= h.frag_count)
      return Feed::kMalformed;
    Slot* slot = nullptr;
    Slot* free_slot = nullptr;
    for (auto& s : pool_) {
      if (s.in_use) {
        if (s.src == src && s.msg_id == h.msg_id) {
          slot = &s;
          break;
        }
      } else if (!free_slot) {
        free_slot = &s;
      }
    }
    if (!slot) {
      if (!free_slot) return Feed::kRejected;
      slot = free_slot;
      slot->in_use = true;
      slot->src = src;
      slot->msg_id = h.msg_id;
      slot->frag_count = h.frag_count;
      slot->got = 0;
      slot->depositing = false;
      // fm-lint: allow(hotpath-alloc): bitmap capacity is retained across
      // slot reuse; only the first message with a larger frag_count grows it.
      slot->received.assign(h.frag_count, false);
      if (sink != nullptr && h.frag_index == 0) {
        DepositTarget t;
        if ((*sink)(src, payload, h.payload_len, &t) && t.dst != nullptr &&
            t.head_len <= h.payload_len) {
          slot->depositing = true;
          slot->dst = t.dst;
          slot->head_len = t.head_len;
          slot->body_len = t.body_len;
          slot->frag0_len = h.payload_len;
          // fm-lint: allow(hotpath-alloc): head capacity (a wire header's
          // worth of bytes) is retained across slot reuse.
          slot->head.assign(payload, payload + t.head_len);
        }
      }
      if (!slot->depositing) {
        // Chunk buffers are retained from previous occupants (the vector
        // only ever grows), so a recycled slot assembles without allocating.
        // fm-lint: allow(hotpath-alloc): grows once per new high-water
        // frag_count, then reused forever.
        if (slot->chunks.size() < h.frag_count) slot->chunks.resize(h.frag_count);
      }
    }
    if (slot->frag_count != h.frag_count) return Feed::kMalformed;
    if (slot->received[h.frag_index]) return Feed::kMalformed;
    if (slot->depositing) {
      // Deposit: the fragment's body bytes go straight to their final
      // address. Every write is bounds-checked against the committed
      // body_len, so corrupt fragment metadata cannot scribble past the
      // landing area the sink granted.
      if (h.frag_index == 0) {
        const std::size_t n = h.payload_len - slot->head_len;
        if (n > slot->body_len) return Feed::kMalformed;
        std::memcpy(slot->dst, payload + slot->head_len, n);
      } else {
        const std::uint64_t msg_off =
            std::uint64_t{h.frag_index} * slot->frag0_len;
        if (msg_off < slot->head_len) return Feed::kMalformed;
        const std::uint64_t off = msg_off - slot->head_len;
        if (off + h.payload_len > slot->body_len) return Feed::kMalformed;
        std::memcpy(slot->dst + off, payload, h.payload_len);
      }
    } else {
      // fm-lint: allow(hotpath-alloc): chunk capacity is retained across
      // slot reuse (see above); the steady-state assign is a pure copy.
      slot->chunks[h.frag_index].assign(payload, payload + h.payload_len);
    }
    slot->received[h.frag_index] = true;
    slot->touched_ns = now_ns;
    ++slot->got;
    if (slot->got < h.frag_count) return Feed::kAccepted;
    // Complete. `out` keeps its capacity across calls (every endpoint
    // passes a long-lived scratch vector), so this copies without
    // allocating in steady state. Deposit mode delivers only the head —
    // the body is already at its final address.
    out->clear();
    if (slot->depositing) {
      out->insert(out->end(), slot->head.begin(), slot->head.end());
    } else {
      for (std::uint16_t i = 0; i < slot->frag_count; ++i)
        out->insert(out->end(), slot->chunks[i].begin(), slot->chunks[i].end());
    }
    slot->in_use = false;
    return Feed::kComplete;
  }

  /// Reassemblies currently in progress.
  std::size_t active() const {
    std::size_t n = 0;
    for (const auto& s : pool_) n += s.in_use ? 1 : 0;
    return n;
  }

  /// Frees every slot not fed since `cutoff_ns` — a half-assembled message
  /// from a peer that lost interest (or the network lost its fragments)
  /// must not pin a receive-pool slot forever. Returns slots freed.
  FM_COLD_PATH std::size_t expire_older_than(std::uint64_t cutoff_ns) {
    std::size_t n = 0;
    for (auto& s : pool_) {
      if (s.in_use && s.touched_ns < cutoff_ns) {
        s.in_use = false;
        ++n;
      }
    }
    return n;
  }

  /// Frees every slot holding fragments from `src` (peer shutdown / FM-R
  /// dead-peer cleanup). Returns slots freed.
  FM_COLD_PATH std::size_t abort(NodeId src) {
    std::size_t n = 0;
    for (auto& s : pool_) {
      if (s.in_use && s.src == src) {
        s.in_use = false;
        ++n;
      }
    }
    return n;
  }

 private:
  struct Slot {
    NodeId src = 0;
    std::uint32_t msg_id = 0;
    std::uint16_t frag_count = 0;
    std::uint16_t got = 0;
    bool in_use = false;
    bool depositing = false;          ///< body goes straight to `dst`
    std::uint64_t touched_ns = 0;
    std::uint8_t* dst = nullptr;      ///< committed landing area (deposit)
    std::size_t head_len = 0;         ///< leading bytes kept for the handler
    std::size_t body_len = 0;         ///< committed deposit window
    std::uint16_t frag0_len = 0;      ///< frame payload stride (deposit)
    std::vector<std::uint8_t> head;   ///< retained head bytes (deposit)
    std::vector<bool> received;
    std::vector<std::vector<std::uint8_t>> chunks;
  };
  std::vector<Slot> pool_;
};

/// Host reject queue (Figure 6): returned frames parked for retransmission
/// with a cheap extract-count backoff.
class RejectQueue {
 public:
  struct Entry {
    NodeId dest;
    std::uint32_t seq;
    std::vector<std::uint8_t> bytes;
    std::size_t age = 0;
  };

  /// Parks a returned frame. A (dest, seq) already parked is ignored: with
  /// FM-R a timeout retransmission and its original can both bounce off an
  /// overloaded receiver, and parking both would retransmit twice forever.
  FM_COLD_PATH void add(NodeId dest, std::uint32_t seq,
                        std::vector<std::uint8_t> bytes) {
    for (const auto& e : entries_)
      if (e.dest == dest && e.seq == seq) return;
    entries_.push_back(Entry{dest, seq, std::move(bytes), 0});
  }

  /// Discards every parked frame aimed at `dest` (dead-peer cleanup).
  /// Returns the number discarded.
  FM_COLD_PATH std::size_t drop_dest(NodeId dest) {
    std::size_t n = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->dest == dest) {
        it = entries_.erase(it);
        ++n;
      } else {
        ++it;
      }
    }
    return n;
  }

  /// Ages all entries by one extract tick and removes/returns those whose
  /// age reached `delay`.
  FM_HOT_PATH std::vector<Entry> tick(std::size_t delay) {
    // Called every extract(); an empty queue returns an empty vector, which
    // never touches the heap — entries exist only after a reject bounced.
    std::vector<Entry> ready;
    for (auto& e : entries_) ++e.age;
    auto it = entries_.begin();
    while (it != entries_.end()) {
      if (it->age >= delay) {
        // fm-lint: allow(hotpath-alloc): a due reject is the recovery path;
        // the steady state never reaches this branch.
        ready.push_back(std::move(*it));
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
    return ready;
  }

  /// Frames currently parked.
  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<Entry> entries_;
};

}  // namespace fm
