#include "shm/cluster.h"

namespace fm::shm {

Cluster::Cluster(std::size_t nodes, FmConfig cfg, std::size_t ring_slots,
                 hw::FaultParams faults) {
  FM_CHECK_MSG(nodes >= 1, "empty cluster");
  // Slot size: one full wire frame (header + fragment extension + payload +
  // maximum piggybacked ack trailer + CRC trailer).
  const std::size_t slot = max_wire_bytes(cfg.frame_payload);
  rings_.reserve(nodes * (nodes - 1));
  for (std::size_t i = 0; i < nodes; ++i)
    for (std::size_t j = 0; j < nodes; ++j)
      if (i != j) rings_.push_back(std::make_unique<SpscRing>(ring_slots, slot));
  for (std::size_t i = 0; i < nodes; ++i)
    endpoints_.push_back(std::unique_ptr<Endpoint>(
        new Endpoint(*this, static_cast<NodeId>(i), nodes, cfg, faults)));
  barrier_ = std::make_unique<std::barrier<>>(static_cast<long>(nodes));
}

RunReport Cluster::run(const std::function<void(Endpoint&)>& node_main) {
  std::vector<std::thread> threads;
  threads.reserve(endpoints_.size());
  for (auto& ep : endpoints_)
    threads.emplace_back([&node_main, &ep] { node_main(*ep); });
  for (auto& t : threads) t.join();
  RunReport report;
  for (NodeId i = 0; i < endpoints_.size(); ++i) {
    RankStatus rs;
    rs.id = i;
    {
      fm::MutexLock lock(report_mu_);
      if (i < phases_.size()) rs.last_phase = phases_[i];
    }
    report.ranks.push_back(std::move(rs));
    // The node threads joined above: every registry's owner is quiescent.
    endpoints_[i]->registry().assert_owner();
    auto snap = endpoints_[i]->registry().snapshot();
    report.samples.insert(report.samples.end(), snap.begin(), snap.end());
  }
  {
    fm::MutexLock lock(report_mu_);
    report.metrics = reported_;
    report.samples.insert(report.samples.end(), published_.begin(),
                          published_.end());
  }
  return report;
}

}  // namespace fm::shm
