// serve::Client — the load-issuing side of the FM-Serve serving plane.
//
// A Client multiplexes thousands of logical sessions over one endpoint:
// each session is rendezvous-hashed to its owning shard (serve/hash.h), and
// every call carries (session, epoch, seq) so the shard can enforce
// per-session FIFO execution. The client is the half of the admission story
// the server cannot provide:
//
//   local shedding       call() never blocks. When the transport window is
//                        congested, a cap is hit, or the session is backing
//                        off after a remote shed, call() returns kOverload
//                        immediately (calls_shed_local) — open-loop load at
//                        2x capacity degrades into sheds, not deadlock.
//   deadlines + cancel   An amortized sweep fails overdue calls with
//                        kDeadline and tells the shard to skip the seq
//                        (kCancel), so one slow request never wedges its
//                        session's FIFO window.
//   rebalancing          When a shard drains (advisory sheds) or dies
//                        (FM-R kPeerDead), its sessions quiesce, bump their
//                        epoch, and rehash onto the surviving shards —
//                        per-session ordering is guaranteed within an
//                        epoch, which is exactly what survives a shard
//                        loss.
//   liveness             The sweep probes every shard with calls in
//                        flight (fm::Engine::probe), so FM-R judges a
//                        shard that fell silent after acking them.
//
// Completions are delivered through ONE callback, set once, in per-session
// issue order (ordered release): a later response never fires before an
// earlier one of the same session, even when failures interleave. All
// tables are preallocated; the steady-state call/response path allocates
// nothing (tests/serve/serve_alloc_test).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/annotate.h"
#include "common/check.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/registry.h"
#include "serve/config.h"
#include "serve/counters.h"
#include "serve/hash.h"
#include "serve/wire.h"

namespace fm::serve {

/// Everything a completed call hands the completion callback. `data` is
/// valid only for the duration of the callback.
struct CallResult {
  std::uint64_t session = 0;
  std::uint32_t seq = 0;
  std::uint64_t cookie = 0;   ///< Caller's opaque tag from call().
  Status status = Status::kOk;
  const void* data = nullptr;  ///< Response bytes (kOk only).
  std::size_t len = 0;
  std::uint64_t issue_ns = 0;  ///< Steady-clock stamp when call() accepted.
};

template <class E>
class Client {
 public:
  using Completion = std::function<void(const CallResult&)>;

  /// Wraps client endpoint `ep` in a plane of `n_shards` server ranks
  /// (cluster ranks [0, n_shards)). Registers one FM handler — construct at
  /// the same registration point on every rank.
  Client(E& ep, std::uint32_t n_shards, const ServeConfig& cfg = ServeConfig())
      : ep_(ep),
        cfg_(cfg),
        n_shards_(n_shards),
        registry_("serve.node" + std::to_string(ep.id())) {
    FM_CHECK_MSG(n_shards_ >= 1 && n_shards_ <= 64, "shard count");
    FM_CHECK_MSG(cfg_.session_inflight_cap <= kSeqWindow,
                 "session_inflight_cap exceeds the seq window");
    live_mask_ = n_shards_ == 64 ? ~0ull : (1ull << n_shards_) - 1;
    std::size_t cap = 1;
    while (cap < cfg_.client_max_sessions * 2) cap <<= 1;
    sessions_.resize(cap);
    session_mask_ = cap - 1;
    calls_.resize(cfg_.client_inflight_cap);
    call_free_.resize(cfg_.client_inflight_cap);
    for (std::size_t i = 0; i < calls_.size(); ++i) {
      calls_[i].buf.resize(cfg_.eager_max_bytes);
      call_free_[i] = static_cast<std::uint32_t>(calls_.size() - 1 - i);
    }
    call_free_len_ = call_free_.size();
    streams_.resize(cfg_.client_max_streams);
    for (Stream& s : streams_) s.buf.resize(cfg_.max_response_bytes);
    tx_buf_.resize(kWireHeaderBytes + cfg_.max_request_bytes);
    counters_.register_into(registry_);
    registry_.gauge("inflight", [this] {
      return static_cast<double>(calls_.size() - call_free_len_);
    });
    registry_.gauge("live_shards", [this] {
      return static_cast<double>(__builtin_popcountll(live_mask_));
    });
    handler_ = ep_.register_handler(
        [this](E&, NodeId src, const void* data, std::size_t len) {
          on_message(src, data, len);
        });
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sets the single completion callback (required before the first call).
  void set_completion(Completion fn) { on_done_ = std::move(fn); }

  /// Issues one request on `session`. Returns kOk when the request is in
  /// flight (`cookie` comes back in the CallResult), or kOverload when the
  /// client shed it locally (backoff, caps, congested transport, moving
  /// session) — retry later; nothing was sent. Never blocks.
  FM_HOT_PATH Status call(std::uint64_t session, std::uint16_t method,
                          const void* data, std::size_t len,
                          std::uint64_t cookie = 0,
                          std::uint64_t deadline_ns = kDefaultDeadline) {
    FM_CHECK_MSG(on_done_, "set_completion() before call()");
    if (len > cfg_.max_request_bytes) return Status::kTooLarge;
    const std::int64_t sil = find_session(session);
    if (sil < 0) {
      ++counters_.calls_shed_local;
      return Status::kOverload;
    }
    const std::uint32_t si = static_cast<std::uint32_t>(sil);
    CSession& s = sessions_[si];
    const std::uint64_t t = now_ns();
    if (s.moving || t < s.backoff_until ||
        s.next_seq - s.next_done >= cfg_.session_inflight_cap ||
        call_free_len_ == 0 || transport_congested()) {
      ++counters_.calls_shed_local;
      return Status::kOverload;
    }
    const NodeId dest = static_cast<NodeId>(s.shard);
    if (ep_.peer_dead(dest)) {
      // Sweep will fail this shard's inflight and rebalance; shed for now.
      ++counters_.calls_shed_local;
      return Status::kOverload;
    }
    WireHeader h;
    h.op = static_cast<std::uint16_t>(Op::kRequest);
    h.method = method;
    h.seq = s.next_seq;
    h.session = session;
    h.epoch = s.epoch;
    h.aux = 0;
    encode_header(tx_buf_.data(), h);
    std::memcpy(tx_buf_.data() + kWireHeaderBytes, data, len);
    const Status st =
        ep_.send(dest, handler_, tx_buf_.data(), kWireHeaderBytes + len);
    if (st != Status::kOk) {
      // Window full (kAgain) or peer died under us: nothing left the node,
      // the seq was not consumed — surface as a local shed.
      ++counters_.calls_shed_local;
      return Status::kOverload;
    }
    --call_free_len_;
    const std::uint32_t ci = call_free_[call_free_len_];
    Call& c = calls_[ci];
    c.used = true;
    c.done = false;
    c.cancel_pending = false;
    c.stream = -1;
    c.sess = si;
    c.seq = h.seq;
    c.epoch = s.epoch;
    c.cookie = cookie;
    c.issue_ns = t;
    c.deadline_ns =
        deadline_ns == kDefaultDeadline ? cfg_.default_deadline_ns : deadline_ns;
    c.status = Status::kOk;
    c.resp_len = 0;
    s.call_of[h.seq % kSeqWindow] = ci;
    ++s.next_seq;
    ++counters_.calls_issued;
    return Status::kOk;
  }

  /// Cancels an inflight call: it completes kCancelled (in session order)
  /// and the shard is told to skip the seq. No-op if already completed.
  Status cancel(std::uint64_t session, std::uint32_t seq) {
    const std::int64_t sil = find_session_existing(session);
    if (sil < 0) return Status::kBadArgument;
    CSession& s = sessions_[static_cast<std::size_t>(sil)];
    if (seq < s.next_done || seq >= s.next_seq) return Status::kBadArgument;
    Call& c = calls_[s.call_of[seq % kSeqWindow]];
    if (c.done) return Status::kOk;  // racing a response: response won
    // Tell the shard to skip the seq: a no-op when the request already
    // executed (the skip arrives behind it), but it unblocks the server's
    // FIFO window if the request was shed there before admission.
    c.cancel_pending = true;
    finish(c, Status::kCancelled);
    release(static_cast<std::uint32_t>(sil));
    return Status::kOk;
  }

  /// Services the client once: delivers responses (firing completions),
  /// then runs the amortized deadline/liveness sweep. Returns the number
  /// of FM messages extracted.
  FM_HOT_PATH std::size_t poll() {
    const std::size_t n = ep_.extract();
    const std::uint64_t t = now_ns();
    if (t - last_sweep_ >= cfg_.sweep_interval_ns) {
      last_sweep_ = t;
      sweep(t);
    }
    return n;
  }

  /// Outstanding calls (issued, completion not yet fired).
  std::size_t inflight() const { return calls_.size() - call_free_len_; }
  bool quiesced() const { return inflight() == 0; }

  /// Shards currently accepting new sessions (bit i = shard rank i).
  std::uint64_t live_mask() const { return live_mask_; }
  std::uint32_t n_shards() const { return n_shards_; }
  /// The shard rank `session` currently maps to.
  std::uint32_t shard_of(std::uint64_t session) {
    const std::int64_t si = find_session(session);
    FM_CHECK(si >= 0);
    return sessions_[static_cast<std::size_t>(si)].shard;
  }

  const ClientCounters& counters() const { return counters_; }
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }
  E& endpoint() { return ep_; }

  /// Sentinel for call()'s deadline parameter: use the config default.
  static constexpr std::uint64_t kDefaultDeadline = ~0ull;

 private:
  struct CSession {
    std::uint64_t id = 0;
    bool used = false;
    bool moving = false;  ///< Quiescing before a rebalance.
    std::uint32_t epoch = 0;
    std::uint32_t shard = 0;
    std::uint32_t next_seq = 0;   ///< Next seq to issue.
    std::uint32_t next_done = 0;  ///< Next seq to release (fire completion).
    std::uint64_t backoff_until = 0;  ///< Honoring a retry-after hint.
    std::uint32_t call_of[kSeqWindow];  ///< Slot by seq % window.
  };

  struct Call {
    bool used = false;
    bool done = false;            ///< Finished, awaiting ordered release.
    bool cancel_pending = false;  ///< kCancel owed to the shard.
    std::int32_t stream = -1;     ///< Reassembly slot for chunked responses.
    std::uint32_t sess = 0;
    std::uint32_t seq = 0;
    std::uint32_t epoch = 0;
    std::uint64_t cookie = 0;
    std::uint64_t issue_ns = 0;
    std::uint64_t deadline_ns = 0;  ///< Relative to issue; 0 = none.
    Status status = Status::kOk;
    std::uint32_t resp_len = 0;
    std::vector<std::uint8_t> buf;  // eager_max_bytes, fixed
  };

  struct Stream {
    bool used = false;
    std::uint32_t total = 0;
    std::uint32_t received = 0;
    std::uint32_t pending_grant = 0;
    std::vector<std::uint8_t> buf;  // max_response_bytes, fixed
  };

  FM_HOT_PATH static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  FM_HOT_PATH static std::uint64_t mix64(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  FM_HOT_PATH bool transport_congested() const {
    return ep_.unacked() * 100 >=
               ep_.config().pending_window * cfg_.overload_window_pct ||
           ep_.reject_queue_depth() > cfg_.overload_rejectq_depth;
  }

  /// Finds or opens the client-side slot for `id` (-1: table at capacity).
  FM_HOT_PATH std::int64_t find_session(std::uint64_t id) {
    std::size_t idx = mix64(id) & session_mask_;
    for (;;) {
      CSession& s = sessions_[idx];
      if (s.used && s.id == id) return static_cast<std::int64_t>(idx);
      if (!s.used) {
        if (sessions_active_ >= cfg_.client_max_sessions) return -1;
        s.used = true;
        s.id = id;
        s.moving = false;
        s.epoch = 0;
        s.shard = shard_for(id, n_shards_, live_mask_);
        s.next_seq = 0;
        s.next_done = 0;
        s.backoff_until = 0;
        for (std::uint32_t& c : s.call_of) c = kNoCall;
        ++sessions_active_;
        return static_cast<std::int64_t>(idx);
      }
      idx = (idx + 1) & session_mask_;
    }
  }

  FM_HOT_PATH std::int64_t find_session_existing(std::uint64_t id) {
    std::size_t idx = mix64(id) & session_mask_;
    for (;;) {
      CSession& s = sessions_[idx];
      if (s.used && s.id == id) return static_cast<std::int64_t>(idx);
      if (!s.used) return -1;
      idx = (idx + 1) & session_mask_;
    }
  }

  /// Looks up the inflight call a server message addresses; kNoCall when
  /// it refers to a released call or a stale epoch (an orphan).
  FM_HOT_PATH std::uint32_t locate(const WireHeader& h) {
    const std::int64_t sil = find_session_existing(h.session);
    if (sil < 0) return kNoCall;
    CSession& s = sessions_[static_cast<std::size_t>(sil)];
    if (h.epoch != s.epoch || h.seq < s.next_done || h.seq >= s.next_seq)
      return kNoCall;
    const std::uint32_t ci = s.call_of[h.seq % kSeqWindow];
    if (ci == kNoCall) return kNoCall;
    const Call& c = calls_[ci];
    if (!c.used || c.done || c.seq != h.seq || c.epoch != h.epoch)
      return kNoCall;
    return ci;
  }

  FM_HOT_PATH void on_message(NodeId src, const void* data, std::size_t len) {
    const WireHeader h = decode_header(data, len);
    const auto* body =
        static_cast<const std::uint8_t*>(data) + kWireHeaderBytes;
    const std::size_t body_len = len - kWireHeaderBytes;
    switch (static_cast<Op>(h.op)) {
      case Op::kResponse:
        on_response(h, body, body_len);
        break;
      case Op::kShed:
        on_shed(src, h);
        break;
      case Op::kStreamBegin:
        on_stream_begin(h);
        break;
      case Op::kStreamChunk:
        on_stream_chunk(src, h, body, body_len);
        break;
      case Op::kStreamEnd:
        on_stream_end(h);
        break;
      case Op::kDrainAdv:
        ++counters_.drain_advisories;
        retire_shard(src);
        break;
      default:
        FM_UNREACHABLE("bad serve op at client");
    }
  }

  FM_HOT_PATH void on_response(const WireHeader& h, const std::uint8_t* body,
                               std::size_t body_len) {
    const std::uint32_t ci = locate(h);
    if (ci == kNoCall) {
      ++counters_.orphan_responses;
      return;
    }
    Call& c = calls_[ci];
    FM_CHECK_MSG(body_len <= c.buf.size(), "eager response over eager_max");
    std::memcpy(c.buf.data(), body, body_len);
    c.resp_len = static_cast<std::uint32_t>(body_len);
    finish(c, Status::kOk);
    release(c.sess);
  }

  FM_HOT_PATH void on_shed(NodeId src, const WireHeader& h) {
    const std::uint32_t ci = locate(h);
    const auto why = static_cast<ShedReason>(h.method);
    if (why == ShedReason::kDraining) {
      ++counters_.drain_advisories;
      retire_shard(src);
    } else if (ci != kNoCall) {
      // Back the session off for at least the server's retry-after hint.
      CSession& s = sessions_[calls_[ci].sess];
      const std::uint64_t until = now_ns() + h.aux * 1000ull;
      if (until > s.backoff_until) s.backoff_until = until;
    }
    if (ci == kNoCall) {
      ++counters_.orphan_responses;
      return;
    }
    Call& c = calls_[ci];
    // The shard never admitted this seq; tell it to skip so the session's
    // FIFO window can move past (later seqs may already be parked there).
    c.cancel_pending = true;
    finish(c, Status::kOverload);
    release(c.sess);
  }

  FM_COLD_PATH void on_stream_begin(const WireHeader& h) {
    const std::uint32_t ci = locate(h);
    if (ci == kNoCall) {
      ++counters_.orphan_responses;
      return;
    }
    Call& c = calls_[ci];
    FM_CHECK_MSG(c.stream < 0, "duplicate kStreamBegin");
    FM_CHECK_MSG(h.aux <= cfg_.max_response_bytes, "stream over bound");
    std::int32_t free = -1;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      if (!streams_[i].used) {
        free = static_cast<std::int32_t>(i);
        break;
      }
    }
    FM_CHECK_MSG(free >= 0, "client stream slots exhausted (sizing bug)");
    Stream& st = streams_[static_cast<std::size_t>(free)];
    st.used = true;
    st.total = h.aux;
    st.received = 0;
    st.pending_grant = 0;
    c.stream = free;
  }

  FM_COLD_PATH void on_stream_chunk(NodeId src, const WireHeader& h,
                                    const std::uint8_t* body,
                                    std::size_t body_len) {
    const std::uint32_t ci = locate(h);
    if (ci == kNoCall) {
      ++counters_.orphan_responses;
      return;
    }
    Call& c = calls_[ci];
    FM_CHECK_MSG(c.stream >= 0, "chunk before kStreamBegin");
    Stream& st = streams_[static_cast<std::size_t>(c.stream)];
    FM_CHECK_MSG(h.aux + body_len <= st.total, "chunk past announced total");
    std::memcpy(st.buf.data() + h.aux, body, body_len);
    st.received += static_cast<std::uint32_t>(body_len);
    ++counters_.chunks_received;
    ++st.pending_grant;
    if (st.pending_grant >= cfg_.stream_credit_chunks) {
      send_ctl(src, Op::kCredit, 0, h.session, h.epoch, h.seq,
               st.pending_grant);
      ++counters_.credits_sent;
      st.pending_grant = 0;
    }
  }

  FM_COLD_PATH void on_stream_end(const WireHeader& h) {
    const std::uint32_t ci = locate(h);
    if (ci == kNoCall) {
      ++counters_.orphan_responses;
      return;
    }
    Call& c = calls_[ci];
    FM_CHECK_MSG(c.stream >= 0, "kStreamEnd before kStreamBegin");
    Stream& st = streams_[static_cast<std::size_t>(c.stream)];
    FM_CHECK_MSG(st.received == st.total, "stream ended short");
    c.resp_len = st.total;
    finish(c, Status::kOk);
    release(c.sess);
  }

  /// Marks a call finished; the ordered release loop fires its completion.
  FM_HOT_PATH void finish(Call& c, Status st) {
    c.done = true;
    c.status = st;
  }

  /// Fires completions in seq order from next_done; stops at the first
  /// unfinished call (or one still owing its kCancel to the shard).
  FM_HOT_PATH void release(std::uint32_t si) {
    CSession& s = sessions_[si];
    while (s.next_done != s.next_seq) {
      const std::uint32_t ci = s.call_of[s.next_done % kSeqWindow];
      if (ci == kNoCall) break;
      Call& c = calls_[ci];
      if (!c.done) break;
      if (c.cancel_pending && !try_send_cancel(s, c)) break;
      CallResult r;
      r.session = s.id;
      r.seq = c.seq;
      r.cookie = c.cookie;
      r.status = c.status;
      r.data = c.stream >= 0
                   ? streams_[static_cast<std::size_t>(c.stream)].buf.data()
                   : c.buf.data();
      r.len = c.resp_len;
      r.issue_ns = c.issue_ns;
      switch (c.status) {
        case Status::kOk: ++counters_.calls_completed; break;
        case Status::kOverload: ++counters_.calls_shed_remote; break;
        case Status::kDeadline: ++counters_.calls_deadline; break;
        case Status::kCancelled: ++counters_.calls_cancelled; break;
        case Status::kPeerDead: ++counters_.calls_dead_peer; break;
        default: break;
      }
      on_done_(r);
      if (c.stream >= 0) {
        streams_[static_cast<std::size_t>(c.stream)].used = false;
        c.stream = -1;
      }
      c.used = false;
      call_free_[call_free_len_] = ci;
      ++call_free_len_;
      s.call_of[s.next_done % kSeqWindow] = kNoCall;
      ++s.next_done;
    }
    if (s.moving && s.next_done == s.next_seq) finish_move(si);
  }

  /// Sends the kCancel a finished call owes its shard. False when the
  /// local window is full (retried by the sweep).
  FM_HOT_PATH bool try_send_cancel(CSession& s, Call& c) {
    const NodeId dest = static_cast<NodeId>(s.shard);
    if (ep_.peer_dead(dest)) {
      c.cancel_pending = false;  // nobody left to tell
      return true;
    }
    const Status st = send_ctl(dest, Op::kCancel, 0, s.id, c.epoch, c.seq, 0);
    if (st != Status::kOk) return false;
    c.cancel_pending = false;
    ++counters_.cancels_sent;
    return true;
  }

  FM_HOT_PATH Status send_ctl(NodeId dest, Op op, std::uint16_t method,
                              std::uint64_t session, std::uint32_t epoch,
                              std::uint32_t seq, std::uint32_t aux) {
    WireHeader h;
    h.op = static_cast<std::uint16_t>(op);
    h.method = method;
    h.seq = seq;
    h.session = session;
    h.epoch = epoch;
    h.aux = aux;
    encode_header(tx_buf_.data(), h);
    return ep_.send_or_post(dest, handler_, tx_buf_.data(), kWireHeaderBytes);
  }

  /// Deadline, owed-cancel retry, dead-shard, and liveness pass. Amortized:
  /// runs every sweep_interval_ns from poll().
  FM_HOT_PATH void sweep(std::uint64_t t) {
    bool any_on_shard[64] = {};
    for (std::size_t ci = 0; ci < calls_.size(); ++ci) {
      Call& c = calls_[ci];
      if (!c.used) continue;
      CSession& s = sessions_[c.sess];
      if (!c.done && c.deadline_ns != 0 &&
          t - c.issue_ns >= c.deadline_ns) {
        // Overdue: fail it and tell the shard to skip the seq so the
        // session's window advances even if the request never executed.
        c.cancel_pending = true;
        finish(c, Status::kDeadline);
      }
      if (!c.done) any_on_shard[s.shard] = true;
      if (c.done) release(c.sess);
    }
    for (std::uint32_t sh = 0; sh < n_shards_; ++sh) {
      if ((live_mask_ & (1ull << sh)) != 0 &&
          ep_.peer_dead(static_cast<NodeId>(sh))) {
        on_shard_dead(sh);
        continue;
      }
      if (any_on_shard[sh]) ep_.probe(static_cast<NodeId>(sh));
    }
  }

  /// A shard left the live set (drain advisory): sessions mapped there
  /// quiesce and rehash; inflight work completes normally first.
  FM_COLD_PATH void retire_shard(std::uint32_t shard) {
    if ((live_mask_ & (1ull << shard)) == 0) return;  // already retired
    live_mask_ &= ~(1ull << shard);
    FM_CHECK_MSG(live_mask_ != 0, "every shard retired");
    for (std::size_t si = 0; si < sessions_.size(); ++si) {
      CSession& s = sessions_[si];
      if (!s.used || s.shard != shard) continue;
      if (s.next_done == s.next_seq) {
        finish_move(static_cast<std::uint32_t>(si));
      } else {
        s.moving = true;
      }
    }
  }

  /// A shard died (FM-R verdict): its inflight calls fail kPeerDead and
  /// its sessions rehash.
  FM_COLD_PATH void on_shard_dead(std::uint32_t shard) {
    live_mask_ &= ~(1ull << shard);
    FM_CHECK_MSG(live_mask_ != 0, "every shard dead");
    for (std::size_t ci = 0; ci < calls_.size(); ++ci) {
      Call& c = calls_[ci];
      if (!c.used || c.done) continue;
      if (sessions_[c.sess].shard != shard) continue;
      c.cancel_pending = false;  // nobody left to tell
      finish(c, Status::kPeerDead);
    }
    for (std::size_t si = 0; si < sessions_.size(); ++si) {
      CSession& s = sessions_[si];
      if (!s.used || s.shard != shard) continue;
      s.moving = true;
      release(static_cast<std::uint32_t>(si));  // fires + moves if empty
    }
  }

  /// The session quiesced: adopt a new epoch on its new shard. Ordering is
  /// per-epoch, so the seq space restarts at zero.
  FM_COLD_PATH void finish_move(std::uint32_t si) {
    CSession& s = sessions_[si];
    s.shard = shard_for(s.id, n_shards_, live_mask_);
    ++s.epoch;
    s.next_seq = 0;
    s.next_done = 0;
    s.moving = false;
    s.backoff_until = 0;
    for (std::uint32_t& c : s.call_of) c = kNoCall;
    ++counters_.rebalances;
  }

  static constexpr std::uint32_t kNoCall = 0xffffffffu;

  E& ep_;
  ServeConfig cfg_;
  std::uint32_t n_shards_;
  std::uint64_t live_mask_ = 0;
  HandlerId handler_ = 0;
  Completion on_done_;
  std::vector<CSession> sessions_;
  std::size_t session_mask_ = 0;
  std::size_t sessions_active_ = 0;
  std::vector<Call> calls_;
  std::vector<std::uint32_t> call_free_;  // free-slot stack
  std::size_t call_free_len_ = 0;
  std::vector<Stream> streams_;
  std::vector<std::uint8_t> tx_buf_;  // header+payload staging
  std::uint64_t last_sweep_ = 0;
  ClientCounters counters_;
  // Declared last: gauges reference the members above (destroy first).
  obs::Registry registry_;
};

}  // namespace fm::serve
