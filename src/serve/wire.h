// FM-Serve wire format: the session-multiplexing protocol every serve
// message rides (one FM handler per engine, like rpc/stream/rma).
//
// Fields are fixed-width and memcpy'd — the FM layer beneath handles
// framing, segmentation, and (with FM-R) reliable delivery, so this header
// only needs to be self-describing.
#pragma once

#include <cstdint>
#include <cstring>

#include "common/annotate.h"
#include "common/check.h"

namespace fm::serve {

/// Width of the per-session skip/park window: seqs in
/// [expected, expected + 64) are representable on the wire, so
/// ServeConfig::session_inflight_cap must stay at or below this.
inline constexpr std::uint32_t kSeqWindow = 64;

/// Serve wire opcodes (WireHeader::op).
enum class Op : std::uint16_t {
  kRequest = 1,      ///< Client -> shard: invoke `method` (payload = args).
  kResponse = 2,     ///< Shard -> client: unary eager response (payload).
  kShed = 3,         ///< Shard -> client: admission control refused the
                     ///< request; `aux` = retry-after hint (us), `flags`
                     ///< carries the ShedReason.
  kCancel = 4,       ///< Client -> shard: abandon (session, seq) — the
                     ///< deadline expired or the caller cancelled.
  kStreamBegin = 5,  ///< Shard -> client: chunked response opens; `aux` =
                     ///< total byte length to expect.
  kStreamChunk = 6,  ///< Shard -> client: one chunk; `aux` = byte offset.
  kStreamEnd = 7,    ///< Shard -> client: chunked response complete.
  kCredit = 8,       ///< Client -> shard: grant `aux` more chunks.
  kDrainAdv = 9,     ///< Shard -> client: this shard is draining; move new
                     ///< traffic elsewhere (existing inflight completes).
};

/// Why a kShed reply refused the request (WireHeader::flags).
enum class ShedReason : std::uint16_t {
  kWindowFull = 1,    ///< Transport send window/ring congested (the
                      ///< return-to-sender signal, surfaced).
  kShardFull = 2,     ///< shard_inflight_cap or parking pool exhausted.
  kSessionCap = 3,    ///< Per-session inflight cap exceeded.
  kSessionTable = 4,  ///< No room for a new session on this shard.
  kDraining = 5,      ///< Shard is in the draining state.
  kTooLarge = 6,      ///< Request or response exceeds configured bounds.
};

/// Fixed preamble of every serve message.
struct WireHeader {
  std::uint16_t op = 0;       ///< Op.
  std::uint16_t method = 0;   ///< Method id (kRequest) / ShedReason (kShed).
  std::uint32_t seq = 0;      ///< Per-session, per-epoch request sequence.
  std::uint64_t session = 0;  ///< Logical session id.
  std::uint32_t epoch = 0;    ///< Session epoch (bumped on rebalance).
  std::uint32_t aux = 0;      ///< Op-specific (hint, offset, credit, len).
};

inline constexpr std::size_t kWireHeaderBytes = sizeof(WireHeader);
static_assert(kWireHeaderBytes == 24, "serve wire header layout drifted");

FM_HOT_PATH inline void encode_header(std::uint8_t* dst, const WireHeader& h) {
  std::memcpy(dst, &h, kWireHeaderBytes);
}

FM_HOT_PATH inline WireHeader decode_header(const void* src,
                                            std::size_t len) {
  FM_CHECK_MSG(len >= kWireHeaderBytes, "runt serve message");
  WireHeader h;
  std::memcpy(&h, src, kWireHeaderBytes);
  return h;
}

}  // namespace fm::serve
