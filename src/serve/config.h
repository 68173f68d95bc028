// FM-Serve layer configuration.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fm::serve {

/// Tunables of the sharded serving plane. The sizing fields are hard
/// preallocation bounds: the shard loop is allocation-free after
/// construction (the serve analogue of PROTOCOL.md §8.1's zero-copy
/// guarantee, enforced by tests/serve/serve_alloc_test), so every table is
/// a fixed slab and exhausting one is an admission decision (kOverload),
/// never a realloc.
struct ServeConfig {
  /// Logical sessions one shard will hold state for. A request for an
  /// unknown session past this bound is shed with kOverload.
  std::size_t max_sessions = 4096;

  /// Admitted-but-unfinished requests one session may have on its shard.
  /// The client enforces the same cap locally, so a well-behaved client
  /// never trips the server-side check; the server still enforces it
  /// (clients are not trusted to be well-behaved at scale).
  std::size_t session_inflight_cap = 8;

  /// Admitted-but-unfinished requests across the whole shard. This bounds
  /// the out-of-order parking pool (below) and is the serve-level analogue
  /// of FmConfig::pending_window.
  std::size_t shard_inflight_cap = 256;

  /// Largest request payload a client may issue (bounds the parking pool's
  /// per-slot slab).
  std::size_t max_request_bytes = 4096;

  /// Largest single response a method may produce. Responses above
  /// eager_max_bytes go through the chunked/credit path but still must fit
  /// one stream slot's staging buffer.
  std::size_t max_response_bytes = 64 * 1024;

  /// Unary responses at most this large ride one FM message (the eager
  /// leg); larger ones are chunked and pulled by the client under credit —
  /// the MPICH2 eager/rendezvous split one layer up, so a large response
  /// cannot fragment-storm the serving rings (PROTOCOL.md §11.4).
  std::size_t eager_max_bytes = 2048;

  /// Chunk size for the credit-pulled (rendezvous) response path.
  std::size_t chunk_bytes = 1024;

  /// Chunks of credit a client grants a stream at a time.
  std::size_t stream_credit_chunks = 4;

  /// Concurrent chunked/streaming responses one shard will stage. Each slot
  /// preallocates max_response_bytes, so keep it modest.
  std::size_t max_streams = 8;

  /// Send-window occupancy (fraction of FmConfig::pending_window, in
  /// percent) above which new requests are shed with kOverload instead of
  /// queueing behind a congested transport. This is the paper's
  /// return-to-sender signal surfaced as admission control: a full window
  /// means the receiver-side pools (or the ring) are already pushing back.
  std::size_t overload_window_pct = 75;

  /// Reject-queue depth above which the shard sheds. Frames parked for
  /// retransmission mean peers are actively bouncing our traffic.
  std::size_t overload_rejectq_depth = 32;

  /// Retry-after hint attached to kOverload shed replies, microseconds.
  /// Clients back off at least this long before retrying the session.
  std::uint32_t retry_after_us = 200;

  /// Client-side default deadline for a call, nanoseconds. 0 = no deadline.
  std::uint64_t default_deadline_ns = 50'000'000;  // 50 ms

  /// Outstanding calls one client engine may have across all sessions
  /// (bounds its preallocated call table).
  std::size_t client_inflight_cap = 1024;

  /// Client-side cap on sessions (bounds its preallocated session table).
  std::size_t client_max_sessions = 4096;

  /// Concurrent chunked responses one client engine will reassemble. Shards
  /// bound theirs by max_streams; a client talking to several shards needs
  /// headroom for the sum, and exhausting this is a sizing bug (checked),
  /// not load.
  std::size_t client_max_streams = 32;

  /// How often the client's poll() runs its deadline/liveness sweep.
  std::uint64_t sweep_interval_ns = 100'000;  // 100 us
};

}  // namespace fm::serve
