// The shared endpoint counter block and its conservation invariant.
//
// Both backends (fm::SimEndpoint and shm::Endpoint) run the same protocol
// and used to carry two textually-identical ad-hoc Stats structs. This is
// the single definition, plus registration into an obs::Registry so every
// field is an enumerable named counter instead of a private struct member.
#pragma once

#include <cstdint>

#include "obs/registry.h"

namespace fm::obs {

/// Per-endpoint protocol counters. Plain uint64 fields so the hot paths pay
/// exactly one increment per event; the registry reads the cells lazily.
struct EndpointCounters {
  std::uint64_t frames_sent = 0;        ///< Data frames injected (incl. retransmits).
  std::uint64_t frames_received = 0;    ///< Frames taken from the receive queue.
  std::uint64_t messages_sent = 0;      ///< API-level sends accepted for delivery.
  std::uint64_t messages_delivered = 0; ///< Handler dispatches.
  std::uint64_t acks_piggybacked = 0;   ///< Acks carried on data frames.
  std::uint64_t acks_standalone = 0;    ///< Standalone ack frames sent.
  std::uint64_t rejects_issued = 0;     ///< Frames we returned to senders.
  std::uint64_t rejects_received = 0;   ///< Our frames returned to us.
  std::uint64_t retransmissions = 0;    ///< Frames re-injected (reject + timeout).
  std::uint64_t malformed_frames = 0;   ///< Undecodable wire garbage dropped.
  // FM-R reliability counters (all zero unless cfg.reliability/crc_frames).
  std::uint64_t retransmit_timeouts = 0;   ///< Timer-driven retransmissions.
  std::uint64_t duplicates_suppressed = 0; ///< Dup frames acked, not delivered.
  std::uint64_t crc_drops = 0;             ///< Frames failing CRC verification.
  std::uint64_t peers_dead = 0;            ///< Peers declared dead (max retries).
  std::uint64_t reassemblies_expired = 0;  ///< Half-assembled slots reclaimed.
  std::uint64_t probes_sent = 0;           ///< Liveness probes at silent peers.
  // Conservation accounting (see Conservation below).
  std::uint64_t messages_abandoned = 0;   ///< Sends that failed at a dead peer
                                          ///< after being counted sent.
  std::uint64_t frames_discarded_dead = 0;///< Frames dropped for a dead peer:
                                          ///< window/reject frames purged at
                                          ///< the verdict, and its frames
                                          ///< received after it.

  /// Registers every field as a named counter in `r`. The counters struct
  /// must outlive the registry (declare the Registry after it).
  void register_into(Registry& r) const {
    // The registering code registers into a registry it owns; claim the
    // role here so every backend constructor passes the thread-safety
    // build without each repeating the claim.
    r.assert_owner();
    r.counter("frames_sent", &frames_sent);
    r.counter("frames_received", &frames_received);
    r.counter("messages_sent", &messages_sent);
    r.counter("messages_delivered", &messages_delivered);
    r.counter("acks_piggybacked", &acks_piggybacked);
    r.counter("acks_standalone", &acks_standalone);
    r.counter("rejects_issued", &rejects_issued);
    r.counter("rejects_received", &rejects_received);
    r.counter("retransmissions", &retransmissions);
    r.counter("malformed_frames", &malformed_frames);
    r.counter("retransmit_timeouts", &retransmit_timeouts);
    r.counter("duplicates_suppressed", &duplicates_suppressed);
    r.counter("crc_drops", &crc_drops);
    r.counter("peers_dead", &peers_dead);
    r.counter("reassemblies_expired", &reassemblies_expired);
    r.counter("probes_sent", &probes_sent);
    r.counter("messages_abandoned", &messages_abandoned);
    r.counter("frames_discarded_dead", &frames_discarded_dead);
  }
};

/// The counter-conservation invariant over a closed set of endpoints: after
/// a full drain, every message counted sent was delivered at some peer or
/// abandoned at a dead one. Strict equality requires peers_dead == 0 across
/// the set — once a peer dies, frames already in flight to it vanish
/// without sender-side message accounting, so the check degrades to an
/// inequality (nothing is delivered that was never sent).
struct Conservation {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t peers_dead = 0;

  void add(const EndpointCounters& c) {
    sent += c.messages_sent;
    delivered += c.messages_delivered;
    abandoned += c.messages_abandoned;
    peers_dead += c.peers_dead;
  }

  /// True when the strict invariant holds (only guaranteed when
  /// peers_dead == 0 and all endpoints drained).
  bool balanced() const { return sent == delivered + abandoned; }
  /// Weak form that always holds in a closed, drained cluster.
  bool no_spontaneous_messages() const { return delivered + abandoned <= sent; }
  /// Signed imbalance (0 when balanced; positive = messages lost).
  std::int64_t imbalance() const {
    return static_cast<std::int64_t>(sent) -
           static_cast<std::int64_t>(delivered) -
           static_cast<std::int64_t>(abandoned);
  }
};

}  // namespace fm::obs
