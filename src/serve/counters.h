// FM-Serve counter blocks: the `serve.node<i>` FM-Scope scope.
//
// One serving rank owns exactly one of these blocks — ServerCounters on a
// shard rank, ClientCounters on a load-issuing rank — registered into a
// rank-local obs::Registry and published into the RunReport alongside the
// endpoint's transport counters, so every serving artifact carries both
// the admission story (this scope) and the transport story (shm.*/net.*)
// for the same run. All names are documented in docs/OBSERVABILITY.md §1
// (the fm_lint counter-scope gate enforces that).
#pragma once

#include <cstdint>

#include "obs/registry.h"

namespace fm::serve {

/// Shard-side (server) counters. Plain uint64 fields; the hot shard loop
/// pays one increment per event (FM-Scope design rule).
struct ServerCounters {
  std::uint64_t requests_admitted = 0;   ///< Passed admission control.
  std::uint64_t requests_completed = 0;  ///< Executed and responded.
  std::uint64_t responses_eager = 0;     ///< Unary one-message responses.
  std::uint64_t responses_streamed = 0;  ///< Chunked/credit responses begun.
  std::uint64_t stream_chunks_sent = 0;  ///< kStreamChunk messages sent.
  std::uint64_t shed_window = 0;         ///< kOverload: transport window/ring
                                         ///< congested (return-to-sender
                                         ///< surfaced, PROTOCOL.md §11).
  std::uint64_t shed_shard_full = 0;     ///< kOverload: shard inflight pool
                                         ///< or stream slots exhausted.
  std::uint64_t shed_session_cap = 0;    ///< kOverload: per-session cap hit.
  std::uint64_t shed_table_full = 0;     ///< kOverload: session table full.
  std::uint64_t shed_draining = 0;       ///< Shed because shard is draining.
  std::uint64_t shed_too_large = 0;      ///< Request exceeded size bounds.
  std::uint64_t ooo_parked = 0;          ///< Out-of-order requests parked.
  std::uint64_t ooo_unparked = 0;        ///< Parked requests later executed.
  std::uint64_t cancels_received = 0;    ///< kCancel messages received.
  std::uint64_t cancels_applied = 0;     ///< Cancels that skipped a seq.
  std::uint64_t stale_dropped = 0;       ///< Stale-epoch / stale-seq drops.
  std::uint64_t sessions_opened = 0;     ///< Session slots first occupied.
  std::uint64_t epochs_adopted = 0;      ///< Rebalanced sessions adopted.

  void register_into(obs::Registry& r) const {
    r.assert_owner();
    r.counter("requests_admitted", &requests_admitted);
    r.counter("requests_completed", &requests_completed);
    r.counter("responses_eager", &responses_eager);
    r.counter("responses_streamed", &responses_streamed);
    r.counter("stream_chunks_sent", &stream_chunks_sent);
    r.counter("shed_window", &shed_window);
    r.counter("shed_shard_full", &shed_shard_full);
    r.counter("shed_session_cap", &shed_session_cap);
    r.counter("shed_table_full", &shed_table_full);
    r.counter("shed_draining", &shed_draining);
    r.counter("shed_too_large", &shed_too_large);
    r.counter("ooo_parked", &ooo_parked);
    r.counter("ooo_unparked", &ooo_unparked);
    r.counter("cancels_received", &cancels_received);
    r.counter("cancels_applied", &cancels_applied);
    r.counter("stale_dropped", &stale_dropped);
    r.counter("sessions_opened", &sessions_opened);
    r.counter("epochs_adopted", &epochs_adopted);
  }

  /// Total kOverload-class sheds (every reason except too-large, which is a
  /// caller bug rather than load).
  std::uint64_t shed_total() const {
    return shed_window + shed_shard_full + shed_session_cap +
           shed_table_full + shed_draining;
  }
};

/// Client-side (load-issuing) counters.
struct ClientCounters {
  std::uint64_t calls_issued = 0;        ///< Requests sent to a shard.
  std::uint64_t calls_completed = 0;     ///< Completed with kOk.
  std::uint64_t calls_shed_remote = 0;   ///< Completed kOverload via kShed.
  std::uint64_t calls_shed_local = 0;    ///< Refused before sending (local
                                         ///< window check, caps, backoff).
  std::uint64_t calls_deadline = 0;      ///< Completed kDeadline (timeout).
  std::uint64_t calls_dead_peer = 0;     ///< Completed kPeerDead.
  std::uint64_t calls_cancelled = 0;     ///< Completed kCancelled (caller).
  std::uint64_t cancels_sent = 0;        ///< kCancel messages issued.
  std::uint64_t rebalances = 0;          ///< Sessions moved to a new shard.
  std::uint64_t credits_sent = 0;        ///< kCredit grants issued.
  std::uint64_t chunks_received = 0;     ///< kStreamChunk messages received.
  std::uint64_t drain_advisories = 0;    ///< kDrainAdv / draining sheds seen.
  std::uint64_t orphan_responses = 0;    ///< Responses for already-released
                                         ///< calls (late after deadline).

  void register_into(obs::Registry& r) const {
    r.assert_owner();
    r.counter("calls_issued", &calls_issued);
    r.counter("calls_completed", &calls_completed);
    r.counter("calls_shed_remote", &calls_shed_remote);
    r.counter("calls_shed_local", &calls_shed_local);
    r.counter("calls_deadline", &calls_deadline);
    r.counter("calls_dead_peer", &calls_dead_peer);
    r.counter("calls_cancelled", &calls_cancelled);
    r.counter("cancels_sent", &cancels_sent);
    r.counter("rebalances", &rebalances);
    r.counter("credits_sent", &credits_sent);
    r.counter("chunks_received", &chunks_received);
    r.counter("drain_advisories", &drain_advisories);
    r.counter("orphan_responses", &orphan_responses);
  }
};

}  // namespace fm::serve
