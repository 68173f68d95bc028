#include "shm/endpoint.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "shm/cluster.h"

namespace fm {
template class Engine<shm::Endpoint>;
}  // namespace fm

namespace fm::shm {

Endpoint::Endpoint(Cluster& cluster, NodeId id, std::size_t nodes,
                   const FmConfig& cfg, const hw::FaultParams& faults)
    : Engine(id, nodes, cfg, faults, "shm.node" + std::to_string(id)),
      cluster_(cluster),
      registry_("shm.node" + std::to_string(id)) {
  // Construction happens on the cluster's setup thread before any node
  // thread exists, so this context owns the registry.
  registry_.assert_owner();
  register_metrics(registry_);
  // FM-Scope occupancy gauges for this wire (the SPSC rings stand in for
  // it). They use size_approx(), whose racy-snapshot contract (clamped,
  // possibly stale) is exactly right for monitoring; protocol decisions
  // never read it.
  registry_.gauge("q.tx_rings_depth", [this, id, nodes] {
    double n = 0;
    for (NodeId dst = 0; dst < nodes; ++dst)
      if (dst != id)
        n += static_cast<double>(cluster_.ring(id, dst).size_approx());
    return n;
  });
  registry_.gauge("q.rx_rings_depth", [this, id, nodes] {
    double n = 0;
    for (NodeId src = 0; src < nodes; ++src)
      if (src != id)
        n += static_cast<double>(cluster_.ring(src, id).size_approx());
    return n;
  });
}

void Endpoint::wire_idle() { std::this_thread::yield(); }

std::uint64_t Endpoint::wire_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

WireStatus Endpoint::wire_push(NodeId dest, const std::uint8_t* frame,
                               std::size_t len) {
  SpscRing& ring = cluster_.ring(id(), dest);
  // This endpoint is, by cluster construction, the only writer of its
  // outgoing rings: claim the producer side for the ownership analysis.
  ring.assert_producer();
  return ring.try_push(frame, len) ? WireStatus::kSent : WireStatus::kFull;
}

std::size_t Endpoint::wire_receive() {
  std::size_t count = 0;
  // Round-robin over every incoming ring, draining bursts. Frames are
  // processed *in place* in their ring slots, up to kExtractBatch per
  // cross-core head publish — the paper's receive aggregation, plus the
  // copy into a local scratch buffer eliminated. Rejects the burst owes
  // are injected between batches, once the consumed slots are published
  // and the ring is consistent again.
  for (NodeId src = 0; src < cluster_size(); ++src) {
    if (src == id()) continue;
    SpscRing& ring = cluster_.ring(src, id());
    // Mirror of wire_push(): we are the only consumer of our incoming rings.
    ring.assert_consumer();
    // Bounded drain: a producer refilling as fast as we consume must not
    // trap this loop and starve the post-receive retransmission/ack work.
    std::size_t budget = ring.capacity();
    while (budget > 0) {
      const std::size_t got = ring.try_consume_batch(
          std::min(budget, kExtractBatch),
          [&](const std::uint8_t* frame, std::size_t len) {
            receive(src, frame, len);
          });
      if (got == 0) break;
      heard_from(src);
      count += got;
      budget -= got;
      flush_deferred_tx();
    }
  }
  return count;
}

}  // namespace fm::shm
