// A 2-rank small model of the FM-R protocol, driven by the FM-Check
// decision-tree Explorer (chk/explore.h).
//
// Both ranks are real fm::Engines (fm/engine.h) — the protocol engine that
// shm::Endpoint and net::Endpoint run — joined by a model wire adapter:
// every frame an engine pushes lands in the explorer's in-flight list, and
// every fault decision (deliver which frame / drop / duplicate / advance
// time) is an Explorer choice instead of FM-San's seeded RNG. The model
// holds no protocol logic of its own, only the world around the engines
// and an oracle over them. run_proto_model() executes ONE path: an
// adversarial prefix of `depth` explored decisions, then a deterministic
// fair suffix that delivers every frame, drains owed acks and advances
// time until the system quiesces. Along the way it asserts FM-R's
// safety/liveness properties:
//
//  * exactly-once: the handlers record every delivered message id, so a
//    second delivery of one message fails the path;
//  * conservation: the engines' own counters balance — sent == delivered
//    + abandoned while no peer is dead, never more delivered than sent
//    once one is (obs::Conservation);
//  * no deadlock: the fair suffix reaches quiescence within a bounded
//    number of rounds from ANY adversarial prefix, and no engine ever
//    waits inside the model (the wire's idle pause fails the path);
//  * dead-peer convergence (kill_node1 variant): a silent receiver is
//    declared dead, nothing is delivered, and every sent frame is purged;
//  * congestion is not death (audible_peer variant): a peer whose frames
//    keep arriving is never declared dead, however many of ours are lost;
//  * a silent peer is found (silent_peer + probe): rank 0's liveness probes
//    alone declare dead a peer that acked everything, then went quiet.
//
// A violation unwinds via Explorer::fail, so the enumerating test gets a
// replayable decision trail (FM_CHK_SCHEDULE) pointing at the exact fault
// schedule that broke the invariant.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "chk/explore.h"
#include "fm/config.h"
#include "obs/counters.h"

namespace fm::chk {

struct ProtoParams {
  /// Both ranks' engine configuration: FM-R on, a 2-frame window (keep
  /// tiny: 2 explores full/bounce pressure), one reassembly slot (1 + two
  /// fragmented messages = reject path), and 8-byte frames, so a 16-byte
  /// message is two fragments. Model time is a plain counter.
  FmConfig cfg = {.frame_payload = 8, .pending_window = 2,
                  .reassembly_slots = 1, .reject_retry_delay = 1,
                  .reliability = true, .retransmit_timeout_ns = 1000,
                  .max_retries = 2};
  /// Messages rank 0 sends to rank 1 (and rank 1 to rank 0 with both_send).
  std::uint32_t msgs = 1;
  /// Frames per message (1 = unfragmented fast path, no Reassembler).
  std::uint16_t frags = 1;
  /// Drops + duplications the adversary may spend across the prefix.
  std::size_t fault_budget = 1;
  /// Explored adversarial decisions before the fair suffix takes over.
  std::size_t depth = 5;
  /// Receiver processes nothing: frames to it vanish (dead-peer variant).
  bool kill_node1 = false;
  /// Rank 1 sends `msgs` messages to rank 0 too, so either side may
  /// declare the other dead while frames are held across ticks.
  bool both_send = false;
  /// Rank 1 sends a message on every tick while rank 0 has frames in
  /// flight, and only rank 0's data frames may be dropped or held.
  bool audible_peer = false;
  /// Rank 0 calls probe(1) on every tick, as a wait on rank 1 does on its
  /// idle passes (fm::Engine::extract_until(peer, pred)).
  bool probe = false;
  /// Rank 1 delivers and acknowledges rank 0's messages, then processes
  /// nothing; rank 0 waits on it until it is declared dead.
  bool silent_peer = false;
};

/// Per-path outcome: each rank's engine counters at quiescence, for
/// aggregation across an enumeration (e.g. asserting the reject path was
/// actually exercised somewhere in the tree).
using ProtoStats = std::array<obs::EndpointCounters, 2>;

/// Runs one explored path of the model (call from Explorer::run_all).
/// Invariant violations unwind via ex.fail with a replayable trail.
ProtoStats run_proto_model(Explorer& ex, const ProtoParams& p);

}  // namespace fm::chk
