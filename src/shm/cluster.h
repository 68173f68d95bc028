// shm::Cluster — N FM endpoints wired all-to-all with SPSC rings, one
// OS thread per node.
//
// Usage (SPMD, like an FM program):
//
//   fm::shm::Cluster cluster(4);
//   fm::HandlerId h = cluster.register_handler(on_msg);   // on every node
//   cluster.run([&](fm::shm::Endpoint& ep) {
//     if (ep.id() == 0) ep.send4(1, h, 1, 2, 3, 4);
//     ep.extract_until([&] { ...; });
//   });
//
// Models fm::ClusterBackend (see fm/cluster_runner.h), the same contract
// the multi-process net::Cluster presents, so programs and tests can be
// written once against the concept and run over either substrate.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chk/shim.h"
#include "common/annotate.h"
#include "fm/cluster_runner.h"
#include "fm/config.h"
#include "hw/fault.h"
#include "shm/endpoint.h"

namespace fm::shm {

/// A shared-memory FM cluster.
class Cluster {
 public:
  using EndpointType = Endpoint;

  /// Builds `nodes` endpoints. Ring geometry: `ring_slots` frames of
  /// wire size (frame payload + header + ack trailer) per ordered pair of
  /// distinct nodes.
  /// `faults` turns on sender-side fault injection (drop/corrupt/duplicate/
  /// reorder/burst) with per-endpoint decorrelated seeds.
  explicit Cluster(std::size_t nodes, FmConfig cfg = FmConfig(),
                   std::size_t ring_slots = 256,
                   hw::FaultParams faults = hw::FaultParams());
  ~Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Number of nodes.
  std::size_t size() const { return endpoints_.size(); }

  /// Endpoint `i` (hand it only to the thread that will own it).
  Endpoint& endpoint(NodeId i) {
    FM_CHECK(i < endpoints_.size());
    return *endpoints_[i];
  }

  /// Registers `fn` on every endpoint; all must agree on the returned id.
  HandlerId register_handler(Endpoint::Handler fn) {
    return register_handler_agreed(
        size(), [this](NodeId i) -> Endpoint& { return *endpoints_[i]; },
        std::move(fn));
  }

  /// Runs `node_main(endpoint)` on one thread per node, joins them all,
  /// and returns the per-rank outcomes plus the merged registry snapshots
  /// (threads share the address space, so the snapshots are taken directly
  /// after the join).
  RunReport run(const std::function<void(Endpoint&)>& node_main);

  /// Thread barrier usable from inside node_main (phase synchronization
  /// for benchmarks/examples; not part of the FM API).
  void barrier() { barrier_->arrive_and_wait(); }

  /// Barrier that calls `service()` while waiting instead of parking.
  /// Rationale: with FM-R on, a rank that stops extracting can starve
  /// peers whose last ack was lost — they retransmit into a parked node
  /// until the retry budget declares it dead. Pass a service that keeps
  /// the endpoint responsive (see fm::barrier_serviced).
  template <class Service>
  void barrier(Service&& service) {
    const std::uint64_t gen = svc_gen_.load(std::memory_order_acquire);
    if (svc_arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == size()) {
      svc_arrived_.store(0, std::memory_order_relaxed);
      svc_gen_.fetch_add(1, std::memory_order_release);
    } else {
      while (svc_gen_.load(std::memory_order_acquire) == gen) service();
    }
  }

  /// Publishes a named scalar into the RunReport (callable from node_main
  /// bodies; thread-safe). Keys are cluster-global — rank-qualify the name
  /// if ranks must not collide.
  void report(const std::string& key, double value) FM_EXCLUDES(report_mu_) {
    fm::MutexLock lock(report_mu_);
    reported_[key] = value;
  }

  /// Merges a snapshot of `reg` into the RunReport samples (callable from
  /// node_main bodies for thread-local registries like the FM-San "san.*"
  /// scope; the caller's thread must own the registry).
  void publish(const obs::Registry& reg) FM_EXCLUDES(report_mu_) {
    reg.assert_owner();
    auto snap = reg.snapshot();
    fm::MutexLock lock(report_mu_);
    published_.insert(published_.end(), snap.begin(), snap.end());
  }

  /// Records where rank `i` currently is (surfaces in
  /// RankStatus::last_phase). Thread-safe; callable from node_main bodies.
  void note_phase(NodeId i, const std::string& phase) FM_EXCLUDES(report_mu_) {
    FM_CHECK(i < size());
    fm::MutexLock lock(report_mu_);
    if (phases_.size() < size()) phases_.resize(size());
    phases_[i] = phase;
  }

  /// The ring carrying frames from `src` to `dst` (a node never sends to
  /// itself, so there is no ring from a node to itself).
  FM_HOT_PATH SpscRing& ring(NodeId src, NodeId dst) {
    FM_CHECK(src < size() && dst < size() && src != dst);
    return *rings_[src * (size() - 1) + dst - (dst > src ? 1 : 0)];
  }

 private:
  // src-major, skipping src == dst: N * (N - 1) rings.
  std::vector<std::unique_ptr<SpscRing>> rings_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::unique_ptr<std::barrier<>> barrier_;
  // Sense-reversing state for the servicing barrier (independent of the
  // parking std::barrier so the two flavors can interleave freely).
  // chk::atomic IS std::atomic in production builds (chk/shim.h).
  chk::atomic<std::size_t> svc_arrived_{0};
  chk::atomic<std::uint64_t> svc_gen_{0};
  /// Guards report()/publish()/note_phase() calls racing in from
  /// concurrent node_main bodies.
  fm::Mutex report_mu_;
  std::map<std::string, double> reported_ FM_GUARDED_BY(report_mu_);
  std::vector<obs::Sample> published_ FM_GUARDED_BY(report_mu_);
  std::vector<std::string> phases_ FM_GUARDED_BY(report_mu_);
};

static_assert(ClusterBackend<Cluster>,
              "shm::Cluster must model the shared SPMD contract");

}  // namespace fm::shm
