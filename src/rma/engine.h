// FM-RMA — one-sided put/get/accumulate layered on the FM handler model.
//
// §4 of the paper argues FM's handler-carrying messages subsume one-sided
// data movement: "a handler could deposit data directly into application
// data structures without intermediate copies". This module is that claim
// made concrete. A *put* is a message whose handler writes the payload into
// a peer-exposed memory region; a *get* is a request whose handler replies
// with the bytes; *accumulate* and *fetch_and_add* are handlers that do the
// read-modify-write at the target, serialized for free by FM's
// one-extract-at-a-time dispatch (no target-side locks — the paper's
// single-threaded-per-node discipline IS the atomicity domain).
//
// Exposure epochs. Peers name memory regions with expose() and then open a
// collective *exposure epoch* (epoch_open/epoch_close). The epoch plays
// the role the paper gives pinned receive regions: inside it, remote ranks
// may address the region; the close is a full fence — every put/accumulate
// issued during the epoch is applied at its target before any rank leaves.
// Because FM does not guarantee delivery order (return-to-sender can
// reorder frames), the fence protocol is reorder-tolerant: fences carry
// exact operation counts and the target holds a fence that overtakes its
// data until the count is satisfied.
//
// Eager/rendezvous split. Transfers up to FmConfig::rma_eager_max ride a
// single FM message. Larger puts send an advertisement and the *target*
// pulls the data in bounded-window chunks — the paper's sender-side flow
// control, inverted: the receiver grants buffer space chunk by chunk, so a
// large transfer can never flood it (PROTOCOL.md §10). On the shm backend,
// where ranks share an address space, large puts skip messaging entirely
// and write the peer's exposed region directly (zero-copy; the SPSC ring's
// release/acquire on the notify message publishes the bytes).
//
// Threading contract: an Engine belongs to the thread that owns its
// Endpoint, exactly like the endpoint itself. put/get/accumulate/
// fetch_and_add and the epoch calls block (they extract while waiting) and
// are only legal from application context; all handler work is internal.
// Construct the Engine identically on every rank (SPMD handler ids) and
// destroy it only after the cluster's traffic has quiesced.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/annotate.h"
#include "common/check.h"
#include "common/status.h"
#include "common/types.h"
#include "fm/config.h"
#include "net/endpoint.h"
#include "obs/registry.h"
#include "shm/endpoint.h"

namespace fm::rma {

/// Most regions a rank may expose() per epoch. The table rides in one
/// epoch-open message, so it must stay small; 16 matches the paper's
/// handful of pinned communication buffers per node.
inline constexpr std::size_t kMaxRegions = 16;

/// Backend capability probe: can a put write the peer's exposed region
/// directly? True only for shm, whose ranks are threads of one process.
template <class E>
struct DirectTraits {
  static constexpr bool kDirect = false;
};
template <>
struct DirectTraits<shm::Endpoint> {
  static constexpr bool kDirect = true;
};

/// RMA wire opcodes (WireHeader::op).
enum class Op : std::uint32_t {
  kEpochOpen = 1,  ///< Region table for a new epoch (payload: RegionWire[]).
  kPutEager = 2,   ///< Small put: payload is the data.
  kPutNotify = 3,  ///< shm direct put already landed; this is the fence tick.
  kPutAdv = 4,     ///< Rendezvous advertisement: target, come pull.
  kPullReq = 5,    ///< Target -> origin: grant for range [offset, offset+len).
  kPullData = 6,   ///< Origin -> target: one rendezvous chunk.
  kPutDone = 7,    ///< Target -> origin: rendezvous put fully applied.
  kGetReq = 8,     ///< Origin -> target: read chunk request.
  kGetRep = 9,     ///< Target -> origin: chunk payload.
  kFaaReq = 10,    ///< Fetch-and-add request (aux = operand).
  kFaaRep = 11,    ///< Fetch-and-add reply (aux = prior value).
  kAcc = 12,       ///< Accumulate: payload = u64 addends.
  kFence = 13,     ///< Epoch close: len = async ops I sent you this epoch.
  kFenceAck = 14,  ///< Your fence's count is fully applied here.
};

/// Fixed preamble of every RMA message. Same-width fields, memcpy'd in and
/// out — the FM layer beneath already handles framing/reassembly, so this
/// only needs to be self-describing, not packed.
struct WireHeader {
  std::uint32_t op = 0;      ///< Op.
  std::uint32_t region = 0;  ///< Target region id (ops that address one).
  std::uint32_t epoch = 0;   ///< Issuing rank's epoch (stale ops are shed).
  std::uint32_t pad = 0;
  std::uint64_t offset = 0;  ///< Byte offset (meaning is per-op).
  std::uint64_t len = 0;     ///< Byte length / op count (per-op).
  std::uint64_t aux = 0;     ///< Per-op extra (operand, echo offset, count).
};
static_assert(sizeof(WireHeader) == 40, "RMA wire header layout drifted");

/// One exposed region as carried by kEpochOpen.
struct RegionWire {
  std::uint32_t id = 0;
  std::uint32_t pad = 0;
  std::uint64_t len = 0;
  std::uint64_t base = 0;  ///< Owner's pointer; only meaningful intra-process.
};
static_assert(sizeof(RegionWire) == 24, "RMA region table layout drifted");

/// One-sided RMA engine over an FM endpoint (shm or net; the sim backend's
/// coroutine API does not fit a blocking engine — see README's matrix).
template <class EndpointT>
class Engine {
 public:
  explicit Engine(EndpointT& ep)
      : ep_(ep),
        cfg_(ep.config()),
        me_(ep.id()),
        nodes_(ep.cluster_size()),
        registry_("rma.node" + std::to_string(ep.id())) {
    FM_CHECK_MSG(cfg_.rma_chunk_bytes >= 8, "rma_chunk_bytes must be >= 8");
    FM_CHECK_MSG(cfg_.rma_eager_max >= 8, "rma_eager_max must be >= 8");
    peer_regions_.resize(nodes_ * kMaxRegions);
    peer_region_count_.assign(nodes_, 0);
    epoch_seen_from_.assign(nodes_, 0);
    fence_ops_to_.assign(nodes_, 0);
    applied_from_.assign(nodes_, 0);
    pending_fence_.assign(nodes_, kNoFence);
    fence_acked_by_.assign(nodes_, 0);
    fence_done_from_.assign(nodes_, 0);
    pulls_.resize(nodes_);
    const std::size_t scratch =
        sizeof(WireHeader) +
        std::max({cfg_.rma_eager_max, cfg_.rma_chunk_bytes,
                  kMaxRegions * sizeof(RegionWire)});
    tx_msg_.assign(scratch, 0);
    reply_msg_.assign(scratch, 0);
    hid_ = ep_.register_handler(
        [this](EndpointT&, NodeId src, const void* data, std::size_t len) {
          on_message(src, data, len);
        });
    // Receive-side zero-copy (§4's "deposit data directly into application
    // data structures"): solicited bulk — pull data and get replies whose
    // ranges this rank itself granted — reassembles straight into its final
    // destination instead of staging through the receive pool. Unsolicited
    // data (eager puts) keeps the bounded pool between wire and memory.
    ep_.set_deposit_sink(
        hid_, [this](NodeId src, const std::uint8_t* head, std::size_t n,
                     DepositTarget* out) {
          return deposit_query(src, head, n, out);
        });
    registry_.assert_owner();
    registry_.counter("puts_issued", &puts_issued_);
    registry_.counter("puts_completed", &puts_completed_);
    registry_.counter("gets_issued", &gets_issued_);
    registry_.counter("gets_completed", &gets_completed_);
    registry_.counter("accs_issued", &accs_issued_);
    registry_.counter("accs_completed", &accs_completed_);
    registry_.counter("eager_bytes", &eager_bytes_);
    registry_.counter("rendezvous_bytes", &rendezvous_bytes_);
    registry_.counter("epoch_conflicts", &epoch_conflicts_);
    registry_.counter("ops_applied", &ops_applied_);
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  ~Engine() { ep_.set_deposit_sink(hid_, nullptr); }

  /// Names `len` bytes at `base` as region `id` for remote access. Call
  /// before epoch_open(); the table is frozen while an epoch is open.
  void expose(std::uint32_t id, void* base, std::size_t len) {
    FM_CHECK_MSG(!epoch_open_, "expose() while an epoch is open");
    FM_CHECK_MSG(n_local_ < kMaxRegions, "region table full");
    FM_CHECK(base != nullptr && len > 0);
    for (std::size_t i = 0; i < n_local_; ++i)
      FM_CHECK_MSG(local_[i].id != id, "duplicate region id");
    local_[n_local_].id = id;
    local_[n_local_].base = static_cast<std::uint8_t*>(base);
    local_[n_local_].len = len;
    ++n_local_;
  }

  /// Collective: opens an exposure epoch. Exchanges region tables with
  /// every peer and returns once all live peers have entered the epoch.
  /// Returns kPeerDead if any peer died instead of arriving (the epoch is
  /// still open toward the survivors).
  Status epoch_open() {
    FM_CHECK_MSG(!epoch_open_, "epoch_open() while an epoch is open");
    ++epoch_;
    epoch_open_ = true;
    for (std::size_t i = 0; i < nodes_; ++i) {
      fence_ops_to_[i] = 0;
      fence_acked_by_[i] = 0;
      fence_done_from_[i] = 0;
    }
    // Region table: one message per peer (built once, sent n-1 times).
    WireHeader h;
    h.op = static_cast<std::uint32_t>(Op::kEpochOpen);
    h.epoch = epoch_;
    h.len = n_local_ * sizeof(RegionWire);
    h.aux = n_local_;
    std::memcpy(tx_msg_.data(), &h, sizeof h);
    for (std::size_t i = 0; i < n_local_; ++i) {
      RegionWire w;
      w.id = local_[i].id;
      w.len = local_[i].len;
      w.base = static_cast<std::uint64_t>(
          reinterpret_cast<std::uintptr_t>(local_[i].base));
      std::memcpy(tx_msg_.data() + sizeof h + i * sizeof w, &w, sizeof w);
    }
    for (NodeId p = 0; p < nodes_; ++p) {
      if (p == me_ || ep_.peer_dead(p)) continue;
      (void)ep_.send(p, hid_, tx_msg_.data(),
                     sizeof h + n_local_ * sizeof(RegionWire));
    }
    return wait_all([this](NodeId p) { return epoch_seen_from_[p] >= epoch_; });
  }

  /// Collective: closes the epoch. A full fence — returns only when (a)
  /// every async op this rank issued has been applied at its target and
  /// (b) every live peer's ops into this rank have been applied here. If a
  /// peer died mid-epoch the fence cannot complete toward it; the death is
  /// detected via FM-R (the fence message, then the wait's probes, give it
  /// traffic to judge) and surfaced as kPeerDead instead of a hang — FM-R
  /// must be enabled for bounded detection (it is mandatory on net; enable
  /// it on shm when ranks can die).
  Status epoch_close() {
    FM_CHECK_MSG(epoch_open_, "epoch_close() without an open epoch");
    WireHeader h;
    h.op = static_cast<std::uint32_t>(Op::kFence);
    h.epoch = epoch_;
    for (NodeId p = 0; p < nodes_; ++p) {
      if (p == me_ || ep_.peer_dead(p)) continue;
      h.len = fence_ops_to_[p];
      std::memcpy(tx_msg_.data(), &h, sizeof h);
      (void)ep_.send(p, hid_, tx_msg_.data(), sizeof h);
    }
    const Status s = wait_all([this](NodeId p) {
      return fence_acked_by_[p] != 0 && fence_done_from_[p] != 0;
    });
    for (std::size_t i = 0; i < nodes_; ++i) {
      fence_ops_to_[i] = 0;
      applied_from_[i] = 0;
      pending_fence_[i] = kNoFence;
    }
    epoch_open_ = false;
    return s;
  }

  /// Contiguous one-sided put: writes [src, src+len) into `region` at
  /// `dst_off` on `dest`. Eager below rma_eager_max (completes locally on
  /// send), rendezvous above (blocks until the target pulled everything).
  FM_HOT_PATH Status put(NodeId dest, std::uint32_t region,
                         std::uint64_t dst_off, const void* src,
                         std::size_t len) {
    FM_CHECK_MSG(epoch_open_, "put() outside an exposure epoch");
    ++puts_issued_;
    if (dest == me_) {
      LocalRegion* r = local_region(region);
      FM_CHECK_MSG(r != nullptr, "put to unknown local region");
      FM_CHECK_MSG(dst_off + len <= r->len, "put overruns region");
      std::memmove(r->base + dst_off, src, len);
      ++puts_completed_;
      eager_bytes_ += len;
      return Status::kOk;
    }
    const RegionWire* pr = peer_region(dest, region);
    FM_CHECK_MSG(pr != nullptr, "put to region the peer never exposed");
    FM_CHECK_MSG(dst_off + len <= pr->len, "put overruns peer region");
    if (len <= cfg_.rma_eager_max) {
      WireHeader h;
      h.op = static_cast<std::uint32_t>(Op::kPutEager);
      h.region = region;
      h.epoch = epoch_;
      h.offset = dst_off;
      h.len = len;
      std::memcpy(tx_msg_.data(), &h, sizeof h);
      std::memcpy(tx_msg_.data() + sizeof h, src, len);
      const Status s = ep_.send(dest, hid_, tx_msg_.data(), sizeof h + len);
      if (!ok(s)) return s;
      ++fence_ops_to_[dest];
      ++puts_completed_;
      eager_bytes_ += len;
      return Status::kOk;
    }
    if constexpr (DirectTraits<EndpointT>::kDirect) {
      if (!cfg_.rma_force_emulation && pr->base != 0) {
        // Same address space: write the peer's region in place. The notify
        // message's ring release/acquire publishes the bytes before the
        // peer's fence accounting can observe the op.
        std::memcpy(reinterpret_cast<std::uint8_t*>(pr->base) + dst_off, src,
                    len);
        WireHeader h;
        h.op = static_cast<std::uint32_t>(Op::kPutNotify);
        h.region = region;
        h.epoch = epoch_;
        h.offset = dst_off;
        h.len = len;
        std::memcpy(tx_msg_.data(), &h, sizeof h);
        const Status s = ep_.send(dest, hid_, tx_msg_.data(), sizeof h);
        if (!ok(s)) return s;
        ++fence_ops_to_[dest];
        ++puts_completed_;
        rendezvous_bytes_ += len;
        return Status::kOk;
      }
    }
    // Rendezvous: advertise, then serve the target's pull requests until
    // it confirms full application. Blocking, so at most one outstanding
    // rendezvous put per origin — the pull state at the target keys on the
    // origin id alone.
    FM_CHECK_MSG(!pending_put_.active, "nested rendezvous put");
    pending_put_.active = true;
    pending_put_.done = false;
    pending_put_.dest = dest;
    pending_put_.src = static_cast<const std::uint8_t*>(src);
    pending_put_.len = len;
    WireHeader h;
    h.op = static_cast<std::uint32_t>(Op::kPutAdv);
    h.region = region;
    h.epoch = epoch_;
    h.offset = dst_off;
    h.len = len;
    std::memcpy(tx_msg_.data(), &h, sizeof h);
    Status s = ep_.send(dest, hid_, tx_msg_.data(), sizeof h);
    if (ok(s))
      s = ep_.extract_until(dest, [this] { return pending_put_.done; });
    pending_put_.active = false;
    if (!ok(s)) return s;
    ++puts_completed_;
    rendezvous_bytes_ += len;
    return Status::kOk;
  }

  /// Contiguous one-sided get: reads [src_off, src_off+len) of `region` on
  /// `dest` into `dst`. Always blocks until the data landed locally.
  FM_HOT_PATH Status get(NodeId dest, std::uint32_t region,
                         std::uint64_t src_off, void* dst, std::size_t len) {
    FM_CHECK_MSG(epoch_open_, "get() outside an exposure epoch");
    ++gets_issued_;
    if (dest == me_) {
      LocalRegion* r = local_region(region);
      FM_CHECK_MSG(r != nullptr, "get from unknown local region");
      FM_CHECK_MSG(src_off + len <= r->len, "get overruns region");
      std::memmove(dst, r->base + src_off, len);
      ++gets_completed_;
      count_transfer(len);
      return Status::kOk;
    }
    const RegionWire* pr = peer_region(dest, region);
    FM_CHECK_MSG(pr != nullptr, "get from region the peer never exposed");
    FM_CHECK_MSG(src_off + len <= pr->len, "get overruns peer region");
    if constexpr (DirectTraits<EndpointT>::kDirect) {
      if (!cfg_.rma_force_emulation && pr->base != 0) {
        std::memcpy(dst, reinterpret_cast<const std::uint8_t*>(pr->base) +
                             src_off,
                    len);
        ++gets_completed_;
        count_transfer(len);
        return Status::kOk;
      }
    }
    FM_CHECK_MSG(!pending_get_.active, "nested get");
    pending_get_.active = true;
    pending_get_.dest = dest;
    pending_get_.region = region;
    pending_get_.src_off = src_off;
    pending_get_.dst = static_cast<std::uint8_t*>(dst);
    pending_get_.total = len;
    pending_get_.requested = 0;
    pending_get_.received = 0;
    issue_get_reqs(tx_msg_.data());
    const Status s = ep_.extract_until(
        dest, [this] { return pending_get_.received >= pending_get_.total; });
    pending_get_.active = false;
    if (!ok(s)) return s;
    ++gets_completed_;
    count_transfer(len);
    return Status::kOk;
  }

  /// Strided put: n_blocks blocks of block_len bytes; source blocks
  /// src_stride apart, destination blocks dst_stride apart in the region.
  FM_HOT_PATH Status put_strided(NodeId dest, std::uint32_t region,
                                 std::uint64_t dst_off,
                                 std::uint64_t dst_stride, const void* src,
                                 std::uint64_t src_stride,
                                 std::size_t block_len,
                                 std::size_t n_blocks) {
    FM_CHECK_MSG(dst_stride >= block_len && src_stride >= block_len,
                 "strided blocks overlap");
    const std::uint8_t* s = static_cast<const std::uint8_t*>(src);
    for (std::size_t i = 0; i < n_blocks; ++i) {
      const Status st =
          put(dest, region, dst_off + i * dst_stride, s + i * src_stride,
              block_len);
      if (!ok(st)) return st;
    }
    return Status::kOk;
  }

  /// Strided get, mirror of put_strided.
  FM_HOT_PATH Status get_strided(NodeId dest, std::uint32_t region,
                                 std::uint64_t src_off,
                                 std::uint64_t src_stride, void* dst,
                                 std::uint64_t dst_stride,
                                 std::size_t block_len,
                                 std::size_t n_blocks) {
    FM_CHECK_MSG(dst_stride >= block_len && src_stride >= block_len,
                 "strided blocks overlap");
    std::uint8_t* d = static_cast<std::uint8_t*>(dst);
    for (std::size_t i = 0; i < n_blocks; ++i) {
      const Status st =
          get(dest, region, src_off + i * src_stride, d + i * dst_stride,
              block_len);
      if (!ok(st)) return st;
    }
    return Status::kOk;
  }

  /// Atomic fetch-and-add on a u64 at (region, offset) of `dest`; the
  /// prior value lands in *old_out. Atomicity comes from target-side
  /// handler serialization — FM extracts one message at a time.
  FM_HOT_PATH Status fetch_and_add(NodeId dest, std::uint32_t region,
                                   std::uint64_t offset, std::uint64_t operand,
                                   std::uint64_t* old_out) {
    FM_CHECK_MSG(epoch_open_, "fetch_and_add() outside an exposure epoch");
    ++accs_issued_;
    if (dest == me_) {
      LocalRegion* r = local_region(region);
      FM_CHECK_MSG(r != nullptr, "faa on unknown local region");
      FM_CHECK_MSG(offset + 8 <= r->len, "faa overruns region");
      std::uint64_t cur = 0;
      std::memcpy(&cur, r->base + offset, 8);
      if (old_out != nullptr) *old_out = cur;
      cur += operand;
      std::memcpy(r->base + offset, &cur, 8);
      ++accs_completed_;
      eager_bytes_ += 8;
      return Status::kOk;
    }
    const RegionWire* pr = peer_region(dest, region);
    FM_CHECK_MSG(pr != nullptr, "faa on region the peer never exposed");
    FM_CHECK_MSG(offset + 8 <= pr->len, "faa overruns peer region");
    FM_CHECK_MSG(!pending_faa_.active, "nested fetch_and_add");
    pending_faa_.active = true;
    pending_faa_.done = false;
    pending_faa_.dest = dest;
    WireHeader h;
    h.op = static_cast<std::uint32_t>(Op::kFaaReq);
    h.region = region;
    h.epoch = epoch_;
    h.offset = offset;
    h.aux = operand;
    std::memcpy(tx_msg_.data(), &h, sizeof h);
    Status s = ep_.send(dest, hid_, tx_msg_.data(), sizeof h);
    if (ok(s))
      s = ep_.extract_until(dest, [this] { return pending_faa_.done; });
    pending_faa_.active = false;
    if (!ok(s)) return s;
    if (old_out != nullptr) *old_out = pending_faa_.old_value;
    ++accs_completed_;
    eager_bytes_ += 8;
    return Status::kOk;
  }

  /// Remote accumulate: element-wise adds `count` u64 addends into
  /// (region, offset) at `dest`. Async at the target (fence-covered, like
  /// an eager put); count*8 must fit rma_eager_max.
  FM_HOT_PATH Status accumulate(NodeId dest, std::uint32_t region,
                                std::uint64_t offset,
                                const std::uint64_t* addends,
                                std::size_t count) {
    FM_CHECK_MSG(epoch_open_, "accumulate() outside an exposure epoch");
    const std::size_t bytes = count * 8;
    FM_CHECK_MSG(bytes <= cfg_.rma_eager_max,
                 "accumulate larger than rma_eager_max");
    ++accs_issued_;
    if (dest == me_) {
      LocalRegion* r = local_region(region);
      FM_CHECK_MSG(r != nullptr, "accumulate on unknown local region");
      FM_CHECK_MSG(offset + bytes <= r->len, "accumulate overruns region");
      apply_accumulate(r->base + offset, addends, count);
      ++accs_completed_;
      eager_bytes_ += bytes;
      return Status::kOk;
    }
    const RegionWire* pr = peer_region(dest, region);
    FM_CHECK_MSG(pr != nullptr, "accumulate on region the peer never exposed");
    FM_CHECK_MSG(offset + bytes <= pr->len, "accumulate overruns peer region");
    WireHeader h;
    h.op = static_cast<std::uint32_t>(Op::kAcc);
    h.region = region;
    h.epoch = epoch_;
    h.offset = offset;
    h.len = bytes;
    std::memcpy(tx_msg_.data(), &h, sizeof h);
    std::memcpy(tx_msg_.data() + sizeof h, addends, bytes);
    const Status s = ep_.send(dest, hid_, tx_msg_.data(), sizeof h + bytes);
    if (!ok(s)) return s;
    ++fence_ops_to_[dest];
    ++accs_completed_;
    eager_bytes_ += bytes;
    return Status::kOk;
  }

  /// Test hook: sends a kPutNotify stamped with the *previous* epoch so the
  /// target's staleness shed (epoch_conflicts) can be exercised
  /// deterministically. Never part of fence accounting.
  void debug_inject_stale(NodeId dest) {
    FM_CHECK(epoch_ > 0 && dest != me_);
    WireHeader h;
    h.op = static_cast<std::uint32_t>(Op::kPutNotify);
    h.epoch = epoch_ - 1;
    std::memcpy(tx_msg_.data(), &h, sizeof h);
    (void)ep_.send(dest, hid_, tx_msg_.data(), sizeof h);
  }

  /// Current epoch ordinal (0 before the first epoch_open()).
  std::uint32_t epoch() const { return epoch_; }
  bool epoch_is_open() const { return epoch_open_; }
  /// Stale/unknown-epoch ops shed at this target.
  std::uint64_t epoch_conflicts() const { return epoch_conflicts_; }
  /// FM-Scope registry ("rma.node<id>"); publish via Cluster::publish.
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }

 private:
  struct LocalRegion {
    std::uint32_t id = 0;
    std::uint8_t* base = nullptr;
    std::uint64_t len = 0;
  };
  /// Target-side state of one in-progress rendezvous pull, keyed by origin
  /// (a blocking origin has at most one outstanding). `requested - received`
  /// is the outstanding grant, bounded by the pull window.
  struct PullState {
    bool active = false;
    std::uint32_t region = 0;
    std::uint64_t dst_off = 0;
    std::uint64_t total = 0;
    std::uint64_t requested = 0;
    std::uint64_t received = 0;
  };
  struct PendingPut {
    bool active = false;
    bool done = false;
    NodeId dest = kInvalidNode;
    const std::uint8_t* src = nullptr;
    std::uint64_t len = 0;
  };
  struct PendingGet {
    bool active = false;
    NodeId dest = kInvalidNode;
    std::uint32_t region = 0;
    std::uint64_t src_off = 0;
    std::uint8_t* dst = nullptr;
    std::uint64_t total = 0;
    std::uint64_t requested = 0;
    std::uint64_t received = 0;
  };
  struct PendingFaa {
    bool active = false;
    bool done = false;
    NodeId dest = kInvalidNode;
    std::uint64_t old_value = 0;
  };

  static constexpr std::uint64_t kNoFence = ~std::uint64_t{0};

  FM_HOT_PATH LocalRegion* local_region(std::uint32_t id) {
    for (std::size_t i = 0; i < n_local_; ++i)
      if (local_[i].id == id) return &local_[i];
    return nullptr;
  }
  FM_HOT_PATH const RegionWire* peer_region(NodeId peer,
                                            std::uint32_t id) const {
    const RegionWire* base = &peer_regions_[peer * kMaxRegions];
    for (std::uint32_t i = 0; i < peer_region_count_[peer]; ++i)
      if (base[i].id == id) return &base[i];
    return nullptr;
  }

  FM_HOT_PATH void count_transfer(std::size_t len) {
    if (len <= cfg_.rma_eager_max)
      eager_bytes_ += len;
    else
      rendezvous_bytes_ += len;
  }

  /// Collective wait: pred(p) for every live peer, one at a time (each wait
  /// probes its peer); kPeerDead if any peer is dead at the end.
  template <typename Pred>
  Status wait_all(Pred&& pred) {
    for (NodeId p = 0; p < nodes_; ++p)
      if (p != me_) (void)ep_.extract_until(p, [&] { return pred(p); });
    for (NodeId p = 0; p < nodes_; ++p)
      if (p != me_ && ep_.peer_dead(p)) return Status::kPeerDead;
    return Status::kOk;
  }

  /// Deposit sink callback (runs inside the endpoint's reassembler on the
  /// first fragment of a message for hid_): commits a landing area for
  /// solicited bulk data. Everything it commits is a range THIS rank
  /// requested — a pull grant into its own exposed region, or a get into
  /// the caller's buffer — so a partial deposit from a peer that dies
  /// mid-message lands only where the receiver already granted access.
  /// Anything unexpected (wrong op, no active transfer, out-of-range)
  /// declines and falls back to pooled reassembly + the handler's checks.
  FM_HOT_PATH bool deposit_query(NodeId src, const std::uint8_t* head,
                                 std::size_t n, DepositTarget* out) {
    if (n < sizeof(WireHeader)) return false;
    WireHeader h;
    std::memcpy(&h, head, sizeof h);
    switch (static_cast<Op>(h.op)) {
      case Op::kPullData: {
        const PullState& ps = pulls_[src];
        if (!ps.active) return false;
        LocalRegion* r = local_region(ps.region);
        if (r == nullptr || ps.dst_off + h.offset + h.len > r->len)
          return false;
        out->dst = r->base + ps.dst_off + h.offset;
        break;
      }
      case Op::kGetRep: {
        if (!pending_get_.active || pending_get_.dest != src) return false;
        if (h.offset + h.len > pending_get_.total) return false;
        out->dst = pending_get_.dst + h.offset;
        break;
      }
      default:
        return false;
    }
    out->head_len = sizeof(WireHeader);
    out->body_len = h.len;
    return true;
  }

  /// Receiver-grant sizing shared by the pull and get request paths: how
  /// many bytes to ask for next, or 0 to hold off. Requests are ranges, not
  /// chunks — the puller grants a whole window up front and tops it up in
  /// at-least-half-window batches, so a transfer costs O(len / window)
  /// request messages instead of O(len / chunk). Per-chunk top-ups would
  /// re-create exactly the request-per-chunk storm the range grant exists
  /// to avoid.
  FM_HOT_PATH std::uint64_t next_grant(std::uint64_t requested,
                                       std::uint64_t received,
                                       std::uint64_t total) const {
    if (requested >= total) return 0;
    const std::uint64_t window =
        std::uint64_t{cfg_.rma_pull_depth} * cfg_.rma_chunk_bytes;
    const std::uint64_t free_bytes = window - (requested - received);
    const std::uint64_t remaining = total - requested;
    if (free_bytes < std::min<std::uint64_t>(remaining, (window + 1) / 2))
      return 0;
    return std::min(free_bytes, remaining);
  }

  /// Issues range requests for the pending get up to the pull window.
  /// State advances BEFORE each send: a send that services the network can
  /// dispatch a kGetRep whose handler re-enters this function, and stale
  /// `requested` would double-issue a range.
  FM_HOT_PATH void issue_get_reqs(std::uint8_t* scratch) {
    std::uint64_t n;
    while ((n = next_grant(pending_get_.requested, pending_get_.received,
                           pending_get_.total)) != 0) {
      const std::uint64_t off = pending_get_.requested;
      pending_get_.requested += n;
      WireHeader h;
      h.op = static_cast<std::uint32_t>(Op::kGetReq);
      h.region = pending_get_.region;
      h.epoch = epoch_;
      h.offset = pending_get_.src_off + off;
      h.len = n;
      h.aux = off;
      std::memcpy(scratch, &h, sizeof h);
      if (!ok(ep_.send_or_post(pending_get_.dest, hid_, scratch, sizeof h)))
        return;  // peer died; the blocking wait surfaces it
    }
  }

  /// Issues range requests toward `origin` up to the window (target side of
  /// a rendezvous put). Handler context only.
  FM_HOT_PATH void issue_pull_reqs(NodeId origin) {
    PullState& ps = pulls_[origin];
    std::uint64_t n;
    while ((n = next_grant(ps.requested, ps.received, ps.total)) != 0) {
      const std::uint64_t off = ps.requested;
      ps.requested += n;
      WireHeader h;
      h.op = static_cast<std::uint32_t>(Op::kPullReq);
      h.epoch = epoch_;
      h.offset = off;
      h.len = n;
      std::memcpy(reply_msg_.data(), &h, sizeof h);
      if (!ok(ep_.send_or_post(origin, hid_, reply_msg_.data(), sizeof h)))
        return;
    }
  }

  FM_HOT_PATH static void apply_accumulate(std::uint8_t* dst,
                                           const std::uint64_t* addends,
                                           std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t cur = 0;
      std::memcpy(&cur, dst + i * 8, 8);
      cur += addends[i];
      std::memcpy(dst + i * 8, &cur, 8);
    }
  }

  /// Fence bookkeeping for one applied async op from `src`; acks a fence
  /// that had overtaken its data once the count is met.
  FM_HOT_PATH void note_applied(NodeId src) {
    ++applied_from_[src];
    if (pending_fence_[src] != kNoFence &&
        applied_from_[src] >= pending_fence_[src])
      ack_fence(src);
  }

  FM_HOT_PATH void ack_fence(NodeId src) {
    WireHeader h;
    h.op = static_cast<std::uint32_t>(Op::kFenceAck);
    h.epoch = epoch_;
    std::memcpy(reply_msg_.data(), &h, sizeof h);
    (void)ep_.send_or_post(src, hid_, reply_msg_.data(), sizeof h);
    pending_fence_[src] = kNoFence;
    applied_from_[src] = 0;
    fence_done_from_[src] = 1;
  }

  FM_HOT_PATH void on_message(NodeId src, const void* data, std::size_t len) {
    FM_CHECK_MSG(len >= sizeof(WireHeader), "truncated RMA message");
    WireHeader h;
    std::memcpy(&h, data, sizeof h);
    const std::uint8_t* body =
        static_cast<const std::uint8_t*>(data) + sizeof h;
    switch (static_cast<Op>(h.op)) {
      case Op::kEpochOpen:
        handle_epoch_open(src, h, body);
        return;
      case Op::kFence:
        // Fences and acks are never epoch-shed: a peer that already closed
        // may be a step ahead while our stragglers drain.
        if (applied_from_[src] >= h.len)
          ack_fence(src);
        else
          pending_fence_[src] = h.len;
        return;
      case Op::kFenceAck:
        fence_acked_by_[src] = 1;
        return;
      default:
        break;
    }
    if (h.epoch != epoch_ && is_epoch_checked(static_cast<Op>(h.op))) {
      ++epoch_conflicts_;  // stale straggler or cross-epoch user error
      return;
    }
    switch (static_cast<Op>(h.op)) {
      case Op::kPutEager:
        handle_put_eager(src, h, body);
        return;
      case Op::kPutNotify:
        ++ops_applied_;
        note_applied(src);
        return;
      case Op::kPutAdv:
        handle_put_adv(src, h);
        return;
      case Op::kPullReq:
        handle_pull_req(src, h);
        return;
      case Op::kPullData:
        handle_pull_data(src, h, body, len);
        return;
      case Op::kPutDone:
        FM_CHECK(pending_put_.active && pending_put_.dest == src);
        pending_put_.done = true;
        return;
      case Op::kGetReq:
        handle_get_req(src, h);
        return;
      case Op::kGetRep:
        handle_get_rep(src, h, body, len);
        return;
      case Op::kFaaReq:
        handle_faa_req(src, h);
        return;
      case Op::kFaaRep:
        FM_CHECK(pending_faa_.active && pending_faa_.dest == src);
        pending_faa_.old_value = h.aux;
        pending_faa_.done = true;
        return;
      case Op::kAcc:
        handle_acc(src, h, body);
        return;
      default:
        FM_CHECK_MSG(false, "unknown RMA opcode");
    }
  }

  /// Which ops carry fresh target-addressed state and must match the
  /// current epoch. Sub-flow replies ride an already-validated flow.
  FM_HOT_PATH static bool is_epoch_checked(Op op) {
    switch (op) {
      case Op::kPutEager:
      case Op::kPutNotify:
      case Op::kPutAdv:
      case Op::kGetReq:
      case Op::kFaaReq:
      case Op::kAcc:
        return true;
      default:
        return false;
    }
  }

  FM_HOT_PATH void handle_epoch_open(NodeId src, const WireHeader& h,
                                     const std::uint8_t* body) {
    const std::size_t count = h.aux;
    FM_CHECK_MSG(count <= kMaxRegions, "oversized peer region table");
    for (std::size_t i = 0; i < count; ++i)
      std::memcpy(&peer_regions_[src * kMaxRegions + i],
                  body + i * sizeof(RegionWire), sizeof(RegionWire));
    peer_region_count_[src] = static_cast<std::uint32_t>(count);
    epoch_seen_from_[src] = h.epoch;
  }

  FM_HOT_PATH void handle_put_eager(NodeId src, const WireHeader& h,
                                    const std::uint8_t* body) {
    LocalRegion* r = local_region(h.region);
    FM_CHECK_MSG(r != nullptr && h.offset + h.len <= r->len,
                 "eager put outside exposed region");
    std::memcpy(r->base + h.offset, body, h.len);
    ++ops_applied_;
    note_applied(src);
  }

  FM_HOT_PATH void handle_put_adv(NodeId src, const WireHeader& h) {
    PullState& ps = pulls_[src];
    FM_CHECK_MSG(!ps.active, "second rendezvous put from a blocked origin");
    LocalRegion* r = local_region(h.region);
    FM_CHECK_MSG(r != nullptr && h.offset + h.len <= r->len,
                 "rendezvous put outside exposed region");
    ps.active = true;
    ps.region = h.region;
    ps.dst_off = h.offset;
    ps.total = h.len;
    ps.requested = 0;
    ps.received = 0;
    issue_pull_reqs(src);
  }

  FM_HOT_PATH void handle_pull_req(NodeId src, const WireHeader& h) {
    FM_CHECK_MSG(pending_put_.active && pending_put_.dest == src,
                 "pull request without a pending rendezvous put");
    FM_CHECK(h.offset + h.len <= pending_put_.len);
    // The grant is a range; serve it as a burst of chunk-sized messages.
    // Always handler context (pull requests arrive as messages), so each
    // chunk is gathered straight into its posted payload — one copy, not a
    // stitch through reply_msg_ plus the posted copy.
    for (std::uint64_t off = h.offset; off < h.offset + h.len;) {
      const std::uint64_t n =
          std::min<std::uint64_t>(cfg_.rma_chunk_bytes, h.offset + h.len - off);
      WireHeader rep;
      rep.op = static_cast<std::uint32_t>(Op::kPullData);
      rep.epoch = epoch_;
      rep.offset = off;
      rep.len = n;
      ep_.post_send2(src, hid_, &rep, sizeof rep, pending_put_.src + off, n);
      off += n;
    }
  }

  FM_HOT_PATH void handle_pull_data(NodeId src, const WireHeader& h,
                                    const std::uint8_t* body,
                                    std::size_t msg_len) {
    PullState& ps = pulls_[src];
    FM_CHECK_MSG(ps.active, "pull data without an advertised put");
    LocalRegion* r = local_region(ps.region);
    FM_CHECK(r != nullptr && ps.dst_off + h.offset + h.len <= r->len);
    // A header-only message means the deposit sink already placed the body
    // at its final address; otherwise (single-frame chunk, or a message
    // whose fragment 0 trailed) the body rides inline and is copied here.
    if (msg_len > sizeof h)
      std::memcpy(r->base + ps.dst_off + h.offset, body, h.len);
    ps.received += h.len;
    if (ps.received >= ps.total) {
      ps.active = false;
      ++ops_applied_;
      WireHeader done;
      done.op = static_cast<std::uint32_t>(Op::kPutDone);
      done.epoch = epoch_;
      std::memcpy(reply_msg_.data(), &done, sizeof done);
      (void)ep_.send_or_post(src, hid_, reply_msg_.data(), sizeof done);
      return;
    }
    issue_pull_reqs(src);
  }

  FM_HOT_PATH void handle_get_req(NodeId src, const WireHeader& h) {
    LocalRegion* r = local_region(h.region);
    FM_CHECK_MSG(r != nullptr && h.offset + h.len <= r->len,
                 "get outside exposed region");
    // Range request; serve as chunk-sized replies. Always handler context
    // (get requests arrive as messages): gather the data straight into the
    // posted payload, skipping reply_msg_.
    for (std::uint64_t off = h.offset; off < h.offset + h.len;) {
      const std::uint64_t n =
          std::min<std::uint64_t>(cfg_.rma_chunk_bytes, h.offset + h.len - off);
      WireHeader rep;
      rep.op = static_cast<std::uint32_t>(Op::kGetRep);
      rep.epoch = epoch_;
      // Echo: placement offset relative to the transfer.
      rep.offset = h.aux + (off - h.offset);
      rep.len = n;
      ep_.post_send2(src, hid_, &rep, sizeof rep, r->base + off, n);
      off += n;
    }
  }

  FM_HOT_PATH void handle_get_rep(NodeId src, const WireHeader& h,
                                  const std::uint8_t* body,
                                  std::size_t msg_len) {
    FM_CHECK_MSG(pending_get_.active && pending_get_.dest == src,
                 "get reply without a pending get");
    FM_CHECK(h.offset + h.len <= pending_get_.total);
    // Header-only: the deposit sink already landed the body (see
    // handle_pull_data).
    if (msg_len > sizeof h)
      std::memcpy(pending_get_.dst + h.offset, body, h.len);
    pending_get_.received += h.len;
    if (pending_get_.received < pending_get_.total)
      issue_get_reqs(reply_msg_.data());
  }

  FM_HOT_PATH void handle_faa_req(NodeId src, const WireHeader& h) {
    LocalRegion* r = local_region(h.region);
    FM_CHECK_MSG(r != nullptr && h.offset + 8 <= r->len,
                 "faa outside exposed region");
    std::uint64_t cur = 0;
    std::memcpy(&cur, r->base + h.offset, 8);
    const std::uint64_t old = cur;
    cur += h.aux;
    std::memcpy(r->base + h.offset, &cur, 8);
    ++ops_applied_;
    WireHeader rep;
    rep.op = static_cast<std::uint32_t>(Op::kFaaRep);
    rep.epoch = epoch_;
    rep.aux = old;
    std::memcpy(reply_msg_.data(), &rep, sizeof rep);
    (void)ep_.send_or_post(src, hid_, reply_msg_.data(), sizeof rep);
  }

  FM_HOT_PATH void handle_acc(NodeId src, const WireHeader& h,
                              const std::uint8_t* body) {
    LocalRegion* r = local_region(h.region);
    FM_CHECK_MSG(r != nullptr && h.offset + h.len <= r->len,
                 "accumulate outside exposed region");
    FM_CHECK(h.len % 8 == 0);
    for (std::size_t i = 0; i < h.len / 8; ++i) {
      std::uint64_t cur = 0;
      std::uint64_t add = 0;
      std::memcpy(&cur, r->base + h.offset + i * 8, 8);
      std::memcpy(&add, body + i * 8, 8);
      cur += add;
      std::memcpy(r->base + h.offset + i * 8, &cur, 8);
    }
    ++ops_applied_;
    note_applied(src);
  }

  EndpointT& ep_;
  const FmConfig cfg_;
  const NodeId me_;
  const std::size_t nodes_;
  HandlerId hid_ = 0;

  std::uint32_t epoch_ = 0;
  bool epoch_open_ = false;

  std::array<LocalRegion, kMaxRegions> local_{};
  std::size_t n_local_ = 0;
  std::vector<RegionWire> peer_regions_;          ///< [peer*kMaxRegions + i]
  std::vector<std::uint32_t> peer_region_count_;  ///< live entries per peer
  std::vector<std::uint32_t> epoch_seen_from_;

  std::vector<std::uint64_t> fence_ops_to_;   ///< async ops sent, per dest
  std::vector<std::uint64_t> applied_from_;   ///< async ops applied, per src
  std::vector<std::uint64_t> pending_fence_;  ///< overtaking fence counts
  std::vector<std::uint8_t> fence_acked_by_;
  std::vector<std::uint8_t> fence_done_from_;

  std::vector<PullState> pulls_;  ///< target-side rendezvous, per origin
  PendingPut pending_put_;
  PendingGet pending_get_;
  PendingFaa pending_faa_;

  /// Scratch for application-context sends (put/get/acc/epoch messages).
  std::vector<std::uint8_t> tx_msg_;
  /// Scratch for handler-context replies. Distinct from tx_msg_: a blocking
  /// send can service the network mid-call, running handlers while tx_msg_
  /// is still being read by the FM layer; posted sends copy reply_msg_
  /// synchronously, so the two never alias.
  std::vector<std::uint8_t> reply_msg_;

  std::uint64_t puts_issued_ = 0;
  std::uint64_t puts_completed_ = 0;
  std::uint64_t gets_issued_ = 0;
  std::uint64_t gets_completed_ = 0;
  std::uint64_t accs_issued_ = 0;
  std::uint64_t accs_completed_ = 0;
  std::uint64_t eager_bytes_ = 0;
  std::uint64_t rendezvous_bytes_ = 0;
  std::uint64_t epoch_conflicts_ = 0;
  std::uint64_t ops_applied_ = 0;
  /// Declared last: gauges/counters reference the members above.
  obs::Registry registry_;
};

extern template class Engine<shm::Endpoint>;
extern template class Engine<net::Endpoint>;

}  // namespace fm::rma
