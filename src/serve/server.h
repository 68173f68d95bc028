// serve::Server — one shard of the FM-Serve serving plane.
//
// The paper's endpoints are one-producer/one-consumer pairs; FM-Serve turns
// N of them into a serving plane: each shard rank owns one endpoint and one
// Server engine, thousands of logical sessions ride the handful of
// transport rings beneath, and the client side (serve::Client) hashes each
// session to its owning shard so no ingress process sits on the request
// path. The shard loop is the paper's handler discipline verbatim — every
// request is executed inside extract() on the owning thread, responses are
// posted sends — plus three serving-plane obligations layered on top:
//
//   admission control   When the transport pushes back (send window or
//                       rings filling — the return-to-sender signal,
//                       PROTOCOL.md §11), or a preallocated table is full,
//                       the request is SHED with a kOverload-carrying
//                       reply and a retry-after hint instead of blocking.
//                       Overload degrades throughput, never liveness.
//   session FIFO        Requests of one session execute in issue order
//                       (per-session seq; out-of-order arrivals park in a
//                       bounded pool, cancelled seqs are skipped via a
//                       window bitmap).
//   graceful drain      begin_drain() flips the shard to shedding new work
//                       with a draining advisory while parked requests and
//                       open streams complete, so a shard can be retired
//                       without dropping admitted work.
//
// Allocation discipline: every table here is preallocated at construction
// and the steady-state request path is FM_HOT_PATH all the way down
// (tests/serve/serve_alloc_test proves zero allocations per served call).
// The chunked-response (rendezvous) path is the deliberate cold boundary.
//
// Threading contract: a Server belongs to the thread that owns its
// Endpoint, like every FM layer. Construct exactly one serve engine
// (Server or Client) per rank at the same registration point (SPMD handler
// agreement), and destroy it only after the cluster's traffic quiesced.
#pragma once

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
#include "serve/wire.h"

namespace fm::serve {

template <class E>
class Server {
 public:
  /// Lets a method hand its response back: either one reply() (eager or,
  /// for large payloads, transparently chunked under client credit) or
  /// append()+end() for explicitly streamed responses. A method that
  /// returns without replying gets an empty eager reply on its behalf.
  class ResponseWriter {
   public:
    /// Unary response. At most ServeConfig::max_response_bytes.
    FM_HOT_PATH void reply(const void* data, std::size_t len) {
      FM_CHECK_MSG(!replied_, "double reply");
      replied_ = true;
      srv_->respond(client_, session_, epoch_, seq_, data, len);
    }
    /// Streamed response: appends a piece (staged into a stream slot).
    FM_COLD_PATH void append(const void* data, std::size_t len) {
      FM_CHECK_MSG(!replied_, "append after reply");
      srv_->stream_append(*this, data, len);
    }
    /// Finishes an append()-built stream.
    FM_COLD_PATH void end() {
      FM_CHECK_MSG(!replied_, "end after reply");
      replied_ = true;
      srv_->stream_end(*this);
    }

   private:
    friend class Server;
    Server* srv_ = nullptr;
    NodeId client_ = 0;
    std::uint64_t session_ = 0;
    std::uint32_t epoch_ = 0;
    std::uint32_t seq_ = 0;
    std::int32_t stream_ = -1;  ///< Stream slot for append(), -1 until used.
    bool replied_ = false;
  };

  /// A serving method: request bytes in, response out through the writer.
  /// Runs in handler context on the shard thread (keep it non-blocking).
  using Method = std::function<void(NodeId client, std::uint64_t session,
                                    const void* data, std::size_t len,
                                    ResponseWriter& w)>;

  /// Wraps shard endpoint `ep`. Registers one FM handler — construct at
  /// the same registration point on every rank.
  explicit Server(E& ep, const ServeConfig& cfg = ServeConfig())
      : ep_(ep),
        cfg_(cfg),
        registry_("serve.node" + std::to_string(ep.id())) {
    FM_CHECK_MSG(cfg_.session_inflight_cap <= kSeqWindow,
                 "session_inflight_cap exceeds the seq window");
    FM_CHECK_MSG(cfg_.chunk_bytes >= 1 && cfg_.eager_max_bytes >= 1,
                 "degenerate serve sizes");
    // Session table: open addressing, power-of-two capacity, <= 50% load.
    std::size_t cap = 1;
    while (cap < cfg_.max_sessions * 2) cap <<= 1;
    sessions_.resize(cap);
    session_mask_ = cap - 1;
    pool_.resize(cfg_.shard_inflight_cap);
    pool_free_.resize(cfg_.shard_inflight_cap);
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      pool_[i].buf.resize(cfg_.max_request_bytes);
      pool_free_[i] = static_cast<std::uint32_t>(pool_.size() - 1 - i);
    }
    pool_free_len_ = pool_free_.size();
    streams_.resize(cfg_.max_streams);
    for (Stream& s : streams_) s.buf.resize(cfg_.max_response_bytes);
    tx_hdr_.resize(kWireHeaderBytes);
    counters_.register_into(registry_);
    registry_.gauge("sessions_active", [this] {
      return static_cast<double>(sessions_active_);
    });
    registry_.gauge("parked_depth", [this] {
      return static_cast<double>(pool_.size() - pool_free_len_);
    });
    registry_.gauge("streams_active", [this] {
      return static_cast<double>(streams_active_);
    });
    handler_ = ep_.register_handler(
        [this](E&, NodeId src, const void* data, std::size_t len) {
          on_message(src, data, len);
        });
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers a method; every rank (server AND client engines) must agree
  /// on method ids, so register in the same order everywhere.
  std::uint16_t register_method(Method fn) {
    methods_.push_back(std::move(fn));
    return static_cast<std::uint16_t>(methods_.size() - 1);
  }

  /// Services the shard once: one extract() pass (requests execute inside).
  FM_HOT_PATH std::size_t poll() { return ep_.extract(); }

  /// Enters the draining state: new requests are shed with a draining
  /// advisory (clients rebalance the session elsewhere); parked requests
  /// and open streams run to completion.
  FM_COLD_PATH void begin_drain() { draining_ = true; }
  bool draining() const { return draining_; }
  /// True when no admitted work remains (safe to retire the shard).
  bool drained() const {
    return draining_ && pool_free_len_ == pool_.size() && streams_active_ == 0;
  }

  const ServerCounters& counters() const { return counters_; }
  /// FM-Scope registry ("serve.node<id>"). Publish into the cluster's
  /// RunReport from node_main, like the FM-San soak scope.
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }
  E& endpoint() { return ep_; }

 private:
  friend class ResponseWriter;

  struct SessionSlot {
    std::uint64_t id = 0;
    std::uint32_t epoch = 0;
    std::uint32_t expected = 0;  ///< Next seq to execute.
    std::uint64_t skip = 0;      ///< Bit k: seq expected+k was cancelled.
    std::uint16_t parked = 0;    ///< This session's parked OOO requests.
    bool used = false;
  };

  struct Parked {
    bool used = false;
    NodeId client = 0;
    std::uint32_t sess_idx = 0;
    std::uint32_t seq = 0;
    std::uint32_t epoch = 0;
    std::uint16_t method = 0;
    std::uint32_t len = 0;
    std::vector<std::uint8_t> buf;  // max_request_bytes, fixed
  };

  struct Stream {
    bool used = false;
    NodeId client = 0;
    std::uint64_t session = 0;
    std::uint32_t epoch = 0;
    std::uint32_t seq = 0;
    std::uint32_t total = 0;   ///< Bytes staged (final once sending).
    std::uint32_t sent = 0;    ///< Bytes already chunked out.
    std::uint32_t credit = 0;  ///< Chunks granted but unsent.
    bool sending = false;      ///< kStreamBegin has gone out.
    std::vector<std::uint8_t> buf;  // max_response_bytes, fixed
  };

  FM_HOT_PATH static std::uint64_t mix64(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  /// Finds (or, when `create`, claims) the slot for `id`. Returns -1 when
  /// absent / table at the configured session bound.
  FM_HOT_PATH std::int64_t find_session(std::uint64_t id, bool create) {
    std::size_t idx = mix64(id) & session_mask_;
    for (;;) {
      SessionSlot& s = sessions_[idx];
      if (s.used && s.id == id) return static_cast<std::int64_t>(idx);
      if (!s.used) {
        if (!create) return -1;
        if (sessions_active_ >= cfg_.max_sessions) return -1;
        s.used = true;
        s.id = id;
        s.epoch = 0;
        s.expected = 0;
        s.skip = 0;
        s.parked = 0;
        ++sessions_active_;
        ++counters_.sessions_opened;
        return static_cast<std::int64_t>(idx);
      }
      idx = (idx + 1) & session_mask_;
    }
  }

  FM_HOT_PATH void send_control(NodeId dest, Op op, std::uint16_t method,
                                std::uint64_t session, std::uint32_t epoch,
                                std::uint32_t seq, std::uint32_t aux,
                                const void* body, std::size_t body_len) {
    WireHeader h;
    h.op = static_cast<std::uint16_t>(op);
    h.method = method;
    h.seq = seq;
    h.session = session;
    h.epoch = epoch;
    h.aux = aux;
    encode_header(tx_hdr_.data(), h);
    ep_.post_send2(dest, handler_, tx_hdr_.data(), kWireHeaderBytes, body,
                   body_len);
  }

  FM_HOT_PATH void shed(NodeId client, const WireHeader& req,
                        ShedReason why) {
    switch (why) {
      case ShedReason::kWindowFull: ++counters_.shed_window; break;
      case ShedReason::kShardFull: ++counters_.shed_shard_full; break;
      case ShedReason::kSessionCap: ++counters_.shed_session_cap; break;
      case ShedReason::kSessionTable: ++counters_.shed_table_full; break;
      case ShedReason::kDraining: ++counters_.shed_draining; break;
      case ShedReason::kTooLarge: ++counters_.shed_too_large; break;
    }
    send_control(client, Op::kShed, static_cast<std::uint16_t>(why),
                 req.session, req.epoch, req.seq, cfg_.retry_after_us,
                 nullptr, 0);
  }

  /// The return-to-sender signal surfaced as admission: true when the
  /// transport beneath this shard is already pushing back.
  FM_HOT_PATH bool transport_congested() const {
    return ep_.unacked() * 100 >=
               ep_.config().pending_window * cfg_.overload_window_pct ||
           ep_.reject_queue_depth() > cfg_.overload_rejectq_depth;
  }

  FM_HOT_PATH void on_message(NodeId src, const void* data, std::size_t len) {
    const WireHeader h = decode_header(data, len);
    const auto* body = static_cast<const std::uint8_t*>(data) +
                       kWireHeaderBytes;
    const std::size_t body_len = len - kWireHeaderBytes;
    switch (static_cast<Op>(h.op)) {
      case Op::kRequest:
        on_request(src, h, body, body_len);
        break;
      case Op::kCancel:
        on_cancel(h);
        break;
      case Op::kCredit:
        on_credit(src, h);
        break;
      default:
        FM_UNREACHABLE("bad serve op at server");
    }
  }

  FM_HOT_PATH void on_request(NodeId src, const WireHeader& h,
                              const std::uint8_t* body,
                              std::size_t body_len) {
    if (body_len > cfg_.max_request_bytes) {
      shed(src, h, ShedReason::kTooLarge);
      return;
    }
    if (draining_) {
      shed(src, h, ShedReason::kDraining);
      return;
    }
    if (transport_congested()) {
      shed(src, h, ShedReason::kWindowFull);
      return;
    }
    const std::int64_t si = find_session(h.session, /*create=*/true);
    if (si < 0) {
      shed(src, h, ShedReason::kSessionTable);
      return;
    }
    SessionSlot& s = sessions_[static_cast<std::size_t>(si)];
    if (h.epoch != s.epoch) {
      if (h.epoch < s.epoch) {  // stale epoch: the session moved on
        ++counters_.stale_dropped;
        return;
      }
      adopt_epoch(static_cast<std::uint32_t>(si), h.epoch);
    }
    if (h.seq < s.expected) {  // stale duplicate (FM-R dedup should prevent)
      ++counters_.stale_dropped;
      return;
    }
    const std::uint32_t gap = h.seq - s.expected;
    if (gap < kSeqWindow && (s.skip & (1ull << gap)) != 0) {
      // Cancelled before it arrived; the skip bit already advanced (or
      // will advance) the window past it.
      ++counters_.stale_dropped;
      return;
    }
    if (gap >= cfg_.session_inflight_cap) {
      shed(src, h, ShedReason::kSessionCap);
      return;
    }
    if (gap == 0) {
      ++counters_.requests_admitted;
      execute(src, static_cast<std::uint32_t>(si), h.method, h.seq, body,
              body_len);
      s.expected = h.seq + 1;
      s.skip >>= 1;
      advance(static_cast<std::uint32_t>(si));
      return;
    }
    // Out of order: park until the gap fills.
    if (pool_free_len_ == 0) {
      shed(src, h, ShedReason::kShardFull);
      return;
    }
    ++counters_.requests_admitted;
    ++counters_.ooo_parked;
    --pool_free_len_;
    Parked& p = pool_[pool_free_[pool_free_len_]];
    p.used = true;
    p.client = src;
    p.sess_idx = static_cast<std::uint32_t>(si);
    p.seq = h.seq;
    p.epoch = h.epoch;
    p.method = h.method;
    p.len = static_cast<std::uint32_t>(body_len);
    std::memcpy(p.buf.data(), body, body_len);
    ++s.parked;
  }

  FM_HOT_PATH void on_cancel(const WireHeader& h) {
    ++counters_.cancels_received;
    // create=true: a request shed BEFORE admission (too-large, congested,
    // draining) never materialized its session, but it did consume a seq
    // on the client — the owed kCancel must still plant the skip bit or
    // the session's next request parks forever behind a hole.
    const std::int64_t si = find_session(h.session, /*create=*/true);
    if (si < 0) return;
    SessionSlot& s = sessions_[static_cast<std::size_t>(si)];
    if (h.epoch < s.epoch) return;  // stale epoch: the session moved on
    if (h.epoch > s.epoch) adopt_epoch(static_cast<std::uint32_t>(si), h.epoch);
    if (h.seq < s.expected) return;  // already executed / advanced past
    const std::uint32_t gap = h.seq - s.expected;
    if (gap >= kSeqWindow) return;  // outside the representable window
    if (s.parked > 0) unpark_free(static_cast<std::uint32_t>(si), h.seq);
    s.skip |= 1ull << gap;
    ++counters_.cancels_applied;
    advance(static_cast<std::uint32_t>(si));
  }

  /// Frees a parked entry for (session slot, seq), if present.
  FM_HOT_PATH void unpark_free(std::uint32_t si, std::uint32_t seq) {
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      Parked& p = pool_[i];
      if (p.used && p.sess_idx == si && p.seq == seq) {
        p.used = false;
        pool_free_[pool_free_len_] = static_cast<std::uint32_t>(i);
        ++pool_free_len_;
        --sessions_[si].parked;
        return;
      }
    }
  }

  /// Executes skip-advances and parked requests now at the session head.
  FM_HOT_PATH void advance(std::uint32_t si) {
    SessionSlot& s = sessions_[si];
    for (;;) {
      if ((s.skip & 1ull) != 0) {
        s.skip >>= 1;
        ++s.expected;
        continue;
      }
      if (s.parked == 0) return;
      std::int64_t found = -1;
      for (std::size_t i = 0; i < pool_.size(); ++i) {
        const Parked& p = pool_[i];
        if (p.used && p.sess_idx == si && p.seq == s.expected) {
          found = static_cast<std::int64_t>(i);
          break;
        }
      }
      if (found < 0) return;
      Parked& p = pool_[static_cast<std::size_t>(found)];
      ++counters_.ooo_unparked;
      execute(p.client, si, p.method, p.seq, p.buf.data(), p.len);
      p.used = false;
      pool_free_[pool_free_len_] = static_cast<std::uint32_t>(found);
      ++pool_free_len_;
      --s.parked;
      ++s.expected;
      s.skip >>= 1;
    }
  }

  /// Drops every parked entry of a session (its epoch moved on).
  FM_COLD_PATH void drop_parked(std::uint32_t si) {
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      Parked& p = pool_[i];
      if (p.used && p.sess_idx == si) {
        p.used = false;
        pool_free_[pool_free_len_] = static_cast<std::uint32_t>(i);
        ++pool_free_len_;
      }
    }
    sessions_[si].parked = 0;
  }

  FM_COLD_PATH void adopt_epoch(std::uint32_t si, std::uint32_t epoch) {
    SessionSlot& s = sessions_[si];
    if (s.parked > 0) drop_parked(si);
    s.epoch = epoch;
    s.expected = 0;
    s.skip = 0;
    ++counters_.epochs_adopted;
  }

  FM_HOT_PATH void execute(NodeId client, std::uint32_t si,
                           std::uint16_t method, std::uint32_t seq,
                           const void* body, std::size_t body_len) {
    SessionSlot& s = sessions_[si];
    FM_CHECK_MSG(method < methods_.size(), "request for unregistered method");
    ResponseWriter w;
    w.srv_ = this;
    w.client_ = client;
    w.session_ = s.id;
    w.epoch_ = s.epoch;
    w.seq_ = seq;
    methods_[method](client, s.id, body, body_len, w);
    if (!w.replied_) w.reply(nullptr, 0);  // every request gets a terminal
    ++counters_.requests_completed;
  }

  /// Unary response: eager when it fits, chunked under credit otherwise.
  FM_HOT_PATH void respond(NodeId client, std::uint64_t session,
                           std::uint32_t epoch, std::uint32_t seq,
                           const void* data, std::size_t len) {
    if (len <= cfg_.eager_max_bytes) {
      ++counters_.responses_eager;
      send_control(client, Op::kResponse, 0, session, epoch, seq, 0, data,
                   len);
      return;
    }
    stream_open(client, session, epoch, seq, data, len);
  }

  FM_COLD_PATH std::int32_t stream_claim(NodeId client, std::uint64_t session,
                                         std::uint32_t epoch,
                                         std::uint32_t seq) {
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      if (streams_[i].used) continue;
      Stream& st = streams_[i];
      st.used = true;
      st.client = client;
      st.session = session;
      st.epoch = epoch;
      st.seq = seq;
      st.total = 0;
      st.sent = 0;
      st.credit = 0;
      st.sending = false;
      ++streams_active_;
      return static_cast<std::int32_t>(i);
    }
    return -1;
  }

  /// Large unary response -> the chunked (rendezvous) path: stage, then
  /// announce; the client pulls with credit so serving rings never see a
  /// fragment storm (PROTOCOL.md §11.4).
  FM_COLD_PATH void stream_open(NodeId client, std::uint64_t session,
                                std::uint32_t epoch, std::uint32_t seq,
                                const void* data, std::size_t len) {
    if (len > cfg_.max_response_bytes) {
      ++counters_.shed_too_large;
      send_control(client, Op::kShed,
                   static_cast<std::uint16_t>(ShedReason::kTooLarge), session,
                   epoch, seq, 0, nullptr, 0);
      return;
    }
    const std::int32_t i = stream_claim(client, session, epoch, seq);
    if (i < 0) {
      ++counters_.shed_shard_full;
      send_control(client, Op::kShed,
                   static_cast<std::uint16_t>(ShedReason::kShardFull), session,
                   epoch, seq, cfg_.retry_after_us, nullptr, 0);
      return;
    }
    Stream& st = streams_[static_cast<std::size_t>(i)];
    std::memcpy(st.buf.data(), data, len);
    st.total = static_cast<std::uint32_t>(len);
    stream_start(st);
  }

  FM_COLD_PATH void stream_append(ResponseWriter& w, const void* data,
                                  std::size_t len) {
    if (w.stream_ < 0) {
      w.stream_ = stream_claim(w.client_, w.session_, w.epoch_, w.seq_);
      // Stream exhaustion on the explicit path is a hard SPMD sizing bug,
      // not load: the test/bench declares its concurrency via max_streams.
      FM_CHECK_MSG(w.stream_ >= 0, "stream slots exhausted mid-append");
    }
    Stream& st = streams_[static_cast<std::size_t>(w.stream_)];
    FM_CHECK_MSG(st.total + len <= cfg_.max_response_bytes,
                 "streamed response exceeds max_response_bytes");
    std::memcpy(st.buf.data() + st.total, data, len);
    st.total += static_cast<std::uint32_t>(len);
  }

  FM_COLD_PATH void stream_end(ResponseWriter& w) {
    if (w.stream_ < 0) {
      // Nothing was appended: degenerate empty stream -> empty eager reply.
      ++counters_.responses_eager;
      send_control(w.client_, Op::kResponse, 0, w.session_, w.epoch_, w.seq_,
                   0, nullptr, 0);
      return;
    }
    stream_start(streams_[static_cast<std::size_t>(w.stream_)]);
  }

  FM_COLD_PATH void stream_start(Stream& st) {
    ++counters_.responses_streamed;
    st.sending = true;
    st.credit = static_cast<std::uint32_t>(cfg_.stream_credit_chunks);
    send_control(st.client, Op::kStreamBegin, 0, st.session, st.epoch, st.seq,
                 st.total, nullptr, 0);
    stream_pump(st);
  }

  FM_COLD_PATH void stream_pump(Stream& st) {
    while (st.credit > 0 && st.sent < st.total) {
      const std::uint32_t n = std::min(
          static_cast<std::uint32_t>(cfg_.chunk_bytes), st.total - st.sent);
      send_control(st.client, Op::kStreamChunk, 0, st.session, st.epoch,
                   st.seq, st.sent, st.buf.data() + st.sent, n);
      st.sent += n;
      --st.credit;
      ++counters_.stream_chunks_sent;
    }
    if (st.sent == st.total) {
      send_control(st.client, Op::kStreamEnd, 0, st.session, st.epoch, st.seq,
                   st.total, nullptr, 0);
      st.used = false;
      --streams_active_;
    }
  }

  FM_COLD_PATH void on_credit(NodeId src, const WireHeader& h) {
    for (Stream& st : streams_) {
      if (st.used && st.sending && st.client == src &&
          st.session == h.session && st.epoch == h.epoch && st.seq == h.seq) {
        st.credit += h.aux;
        stream_pump(st);
        return;
      }
    }
    // Credit for a finished stream: harmless straggler.
  }

  E& ep_;
  ServeConfig cfg_;
  HandlerId handler_ = 0;
  std::vector<Method> methods_;
  std::vector<SessionSlot> sessions_;
  std::size_t session_mask_ = 0;
  std::size_t sessions_active_ = 0;
  std::vector<Parked> pool_;
  std::vector<std::uint32_t> pool_free_;  // free-slot stack
  std::size_t pool_free_len_ = 0;
  std::vector<Stream> streams_;
  std::size_t streams_active_ = 0;
  std::vector<std::uint8_t> tx_hdr_;  // reusable header staging
  bool draining_ = false;
  ServerCounters counters_;
  // Declared last: gauges reference the members above (destroy first).
  obs::Registry registry_;
};

}  // namespace fm::serve
