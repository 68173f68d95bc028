// fm::ClusterRunner — the backend-independent SPMD contract.
//
// Two cluster harnesses run FM programs: shm::Cluster (one OS thread per
// node, SPSC rings) and net::Cluster (one forked OS process per node, UDP
// sockets). Both present the same shape — construct N endpoints, register
// handlers identically on every node, run `node_main(endpoint)` per node,
// barrier from inside node_main — and before this header each grew its own
// copy of the scaffolding (handler-agreement checking, per-node fault-seed
// decorrelation, run-result bookkeeping). This header is the single
// definition, so the backends cannot drift: the ClusterBackend concept pins
// the surface, and the helpers below are the shared implementations.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "hw/fault.h"
#include "obs/counters.h"
#include "obs/registry.h"

namespace fm {

/// How one rank of a cluster run ended. For the thread backend a rank is a
/// thread (always a clean exit unless the process died with it); for the
/// process backend it is a child process with a real wait(2) status.
struct RankStatus {
  NodeId id = 0;
  bool exited = true;    ///< Normal exit (false: killed by a signal).
  int exit_code = 0;     ///< Valid when `exited`.
  int term_signal = 0;   ///< Valid when !`exited` (e.g. SIGKILL).
  /// Last progress marker the rank announced via Cluster::note_phase()
  /// (e.g. "round 12" from the FM-San soak driver). When the watchdog
  /// SIGKILLs a hung run, this is where each rank was last seen.
  std::string last_phase;
  /// Barriers the harness saw this rank enter (net backend: counted by the
  /// parent; shm backend: always 0 — threads share a fate, so the phase
  /// marker carries the story there).
  std::uint64_t barriers_seen = 0;
  bool clean() const { return exited && exit_code == 0; }
};

/// The result of Cluster::run(): per-rank outcomes plus the merged FM-Scope
/// state of every rank, collected after the ranks quiesced. For the process
/// backend this is the only way counters cross the address-space boundary,
/// so the report — not the endpoints — is what multi-process tests and
/// benches assert on.
struct RunReport {
  std::vector<RankStatus> ranks;
  /// Per-rank registry snapshots, concatenated (names carry the
  /// "<backend>.node<id>." scope prefix, so ranks stay distinguishable).
  std::vector<obs::Sample> samples;
  /// Scalars reported by node_main bodies via Cluster::report().
  std::map<std::string, double> metrics;
  /// The run hit the harness wall-clock timeout and survivors were killed.
  bool timed_out = false;

  /// Every rank exited cleanly and nothing timed out.
  bool all_clean() const {
    if (timed_out) return false;
    for (const RankStatus& r : ranks)
      if (!r.clean()) return false;
    return true;
  }

  /// Sums every sample whose scope-qualified name ends in `.suffix`.
  double sum_counter(std::string_view suffix) const {
    std::string dotted = std::string(".") += std::string(suffix);
    double total = 0;
    for (const obs::Sample& s : samples) {
      if (s.name.size() > dotted.size() &&
          s.name.compare(s.name.size() - dotted.size(), dotted.size(),
                         dotted) == 0)
        total += s.value;
    }
    return total;
  }

  /// The conservation invariant rolled up from the merged samples — the
  /// cross-address-space analogue of obs::Conservation::add(stats).
  obs::Conservation conservation() const {
    obs::Conservation c;
    c.sent = static_cast<std::uint64_t>(sum_counter("messages_sent"));
    c.delivered = static_cast<std::uint64_t>(sum_counter("messages_delivered"));
    c.abandoned = static_cast<std::uint64_t>(sum_counter("messages_abandoned"));
    c.peers_dead = static_cast<std::uint64_t>(sum_counter("peers_dead"));
    return c;
  }
};

/// The surface an FM cluster backend must present (shm::Cluster and
/// net::Cluster both model it; backend-parameterized tests and mpi_mini
/// compile against exactly this).
template <class C>
concept ClusterBackend = requires(
    C& c, NodeId i, typename C::EndpointType::Handler h,
    const std::function<void(typename C::EndpointType&)>& body,
    const char* key, double value, const obs::Registry& reg,
    const std::string& phase) {
  { c.size() } -> std::convertible_to<std::size_t>;
  { c.endpoint(i) } -> std::same_as<typename C::EndpointType&>;
  { c.register_handler(h) } -> std::same_as<HandlerId>;
  { c.run(body) } -> std::same_as<RunReport>;
  c.barrier();
  c.barrier([] {});  // servicing flavor (see barrier_serviced)
  c.report(key, value);
  // Merges an extra registry snapshot (e.g. a node_main-local "san.node3"
  // scope) into RunReport::samples alongside the endpoint registries.
  c.publish(reg);
  // Progress marker for rank `i`: surfaces in RankStatus::last_phase and in
  // the watchdog kill report, so a hung or killed run says where each rank
  // was last seen.
  c.note_phase(i, phase);
};

/// Barrier that keeps `ep` network-responsive while waiting: extract()
/// picks up peers' retransmissions, drain() flushes the acks this rank
/// owes. With FM-R on, every rank whose peers might still have frames in
/// flight toward it MUST synchronize with this instead of the parking
/// barrier() — a parked rank that owes nothing can still be the target of
/// a retransmission whose previous ack was lost, and after max_retries of
/// silence the peer declares it dead. Once this barrier releases, every
/// rank has drained (empty send window), so only unwindowed standalone
/// acks remain in flight and parking becomes safe.
template <class C>
void barrier_serviced(C& c, typename C::EndpointType& ep) {
  c.barrier([&ep] {
    if (ep.extract() == 0) ep.idle_pause();
    ep.drain();
  });
}

/// Registers `fn` on nodes 0..n-1 via `endpoint_of(i)` and checks that every
/// node agreed on the handler id — the SPMD registration discipline both
/// backends enforce.
template <class EndpointOf, class Handler>
HandlerId register_handler_agreed(std::size_t nodes, EndpointOf&& endpoint_of,
                                  Handler fn) {
  HandlerId id = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    HandlerId got =
        endpoint_of(static_cast<NodeId>(i)).register_handler(fn);
    if (i == 0)
      id = got;
    else
      FM_CHECK_MSG(got == id, "handler registration diverged across nodes");
  }
  return id;
}

/// Per-node fault-seed decorrelation: each endpoint injects faults from its
/// own stream so runs stay bit-reproducible without the nodes failing in
/// lockstep. The multiplier is the 64-bit golden-ratio constant (Weyl
/// sequence), so nearby ids land in distant seed states.
inline hw::FaultParams decorrelate_faults(const hw::FaultParams& base,
                                          NodeId id) {
  hw::FaultParams mine = base;
  mine.seed = base.seed + 0x9e3779b97f4a7c15ull * (id + 1);
  return mine;
}

}  // namespace fm
