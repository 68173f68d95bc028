// shm::Endpoint — the FM API over shared memory, for real.
//
// The simulated endpoint reproduces the paper's *numbers*; this endpoint
// runs the same protocol (frames, return-to-sender, piggybacked acks,
// segmentation) between OS threads over lock-free SPSC rings, moving real
// bytes. It is what a downstream user of this library links against to get
// FM semantics on a modern shared-memory machine — the closest commodity
// stand-in for the paper's Myrinet testbed available here (see DESIGN.md's
// substitution table).
//
// The protocol itself is fm::Engine (fm/engine.h), shared with the net
// backend; this class is its wire adapter. It pushes a frame into the
// destination's ring without blocking, feeds the rings' frames to the
// engine in place, stages nothing, and yields when idle.
//
// Threading: each Endpoint belongs to exactly one thread (FM was
// single-threaded per node too). Handlers run inside extract() on the
// owning thread; a handler that wants to communicate uses post_send*()
// exactly as with the simulated endpoint.
#pragma once

#include <cstdint>

#include "common/annotate.h"
#include "common/types.h"
#include "fm/config.h"
#include "fm/engine.h"
#include "hw/fault.h"
#include "obs/registry.h"
#include "shm/spsc_ring.h"

namespace fm::shm {

class Cluster;

/// One node of the shared-memory FM cluster: the FM API of fm::Engine
/// (send/extract/post_send/drain and every accessor) over SPSC rings.
class Endpoint : public Engine<Endpoint> {
 private:
  friend class Cluster;
  friend class Engine<Endpoint>;
  Endpoint(Cluster& cluster, NodeId id, std::size_t nodes, const FmConfig& cfg,
           const hw::FaultParams& faults);

  // A ring never loses or garbles a frame; only the fault injector can.
  static constexpr bool kLosslessWire = true;
  // Frames consumed from a ring per head publish: the shm analogue of the
  // paper's receive aggregation (one cross-core index update amortized over
  // a burst), kept modest so a blocked producer sees freed slots promptly.
  static constexpr std::size_t kExtractBatch = 32;

  FM_HOT_PATH WireStatus wire_push(NodeId dest, const std::uint8_t* frame,
                                   std::size_t len);
  FM_HOT_PATH std::size_t wire_receive();
  // Frames go straight into the ring: nothing is ever staged.
  FM_HOT_PATH std::size_t wire_flush() { return 0; }
  // The explicit idle primitive: yielding is the one "blocking" act the
  // steady state is allowed, and only when there was no work at all.
  FM_COLD_PATH void wire_idle();
  FM_HOT_PATH static std::uint64_t wire_clock_ns();

  Cluster& cluster_;
  // Declared last on purpose: the registry's counters and gauges reference
  // the engine and the members above, so it must be destroyed first.
  obs::Registry registry_;
};

}  // namespace fm::shm

namespace fm {
// Compiled once in shm/endpoint.cc.
extern template class Engine<shm::Endpoint>;
}  // namespace fm
