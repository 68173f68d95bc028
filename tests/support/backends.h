// Backend fixtures for tests that are generic over the FM transport.
//
// A test written against fm::ClusterBackend (see fm/cluster_runner.h) can
// run over shm threads and over the net backend's forked UDP processes;
// these adapters give gtest's typed-test machinery a uniform handle on
// both, and paper over the one real asymmetry: gtest assertion state is
// per-process, so a failure inside a net rank must travel back to the
// parent as a nonzero exit (plus an FM_OBS_DUMP_DIR artifact) instead of a
// shared HasFailure flag.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>

#include "fm/cluster_runner.h"
#include "fm/config.h"
#include "hw/fault.h"
#include "net/cluster.h"
#include "obs/dump.h"
#include "shm/cluster.h"

namespace fm::testing {

namespace detail {

/// Child-side failure artifact: when a net rank fails a gtest assertion,
/// dump its registry/trace state under FM_OBS_DUMP_DIR (rank-qualified
/// name) before the child exits — the parent-side listener never sees the
/// child's objects.
inline void dump_rank_failure(NodeId rank) {
  const char* dir = std::getenv("FM_OBS_DUMP_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = "unknown_test";
  if (info != nullptr)
    name = std::string(info->test_suite_name()) + "." + info->name();
  name += ".rank" + std::to_string(rank);
  (void)obs::write_failure_dump(dir, name);
}

inline std::string describe_ranks(const RunReport& r) {
  std::string s;
  for (const RankStatus& rs : r.ranks) {
    s += "rank" + std::to_string(rs.id) + ": ";
    if (rs.exited)
      s += "exit " + std::to_string(rs.exit_code);
    else
      s += "signal " + std::to_string(rs.term_signal);
    s += "; ";
  }
  if (r.timed_out) s += "TIMED OUT; ";
  return s;
}

}  // namespace detail

/// The thread/SPSC-ring backend.
struct ShmBackend {
  using Cluster = shm::Cluster;
  using Endpoint = shm::Endpoint;
  static constexpr const char* kName = "shm";
  /// Ranks are threads: a "killed" rank can only exit silently, and the
  /// cluster barrier (which waits for ALL ranks) must not be used after a
  /// kill. Chaos scenarios branch on this.
  static constexpr bool kProcessRanks = false;

  /// Backend-legal variant of a test's config (identity for shm).
  static FmConfig adapt(FmConfig cfg) { return cfg; }

  static std::unique_ptr<Cluster> make(std::size_t nodes,
                                       FmConfig cfg = FmConfig(),
                                       hw::FaultParams faults = {}) {
    return make_as_is(nodes, adapt(cfg), faults);
  }

  /// make() without adapt(): `cfg` exactly as given, for tests whose point
  /// is a setting adapt() would override (e.g. FM-R with CRC off).
  static std::unique_ptr<Cluster> make_as_is(std::size_t nodes, FmConfig cfg,
                                             hw::FaultParams faults = {}) {
    return std::make_unique<Cluster>(nodes, cfg, 256, faults);
  }

  /// Runs `body` on every rank and asserts every rank finished cleanly.
  static RunReport run(Cluster& c,
                       const std::function<void(Endpoint&)>& body) {
    return c.run(body);  // threads share HasFailure; nothing to relay
  }
};

/// The multi-process UDP backend. FM-R is mandatory on it, so adapt()
/// force-enables the reliability stack (CRC included): a config tuned for
/// the lossless backends gets the protection a lossy substrate requires.
struct NetBackend {
  using Cluster = net::Cluster;
  using Endpoint = net::Endpoint;
  static constexpr const char* kName = "net";
  /// Ranks are forked processes: a chaos kill is a literal SIGKILL, and
  /// the parent-brokered barrier releases survivors without the victim.
  static constexpr bool kProcessRanks = true;

  static FmConfig adapt(FmConfig cfg) {
    cfg.flow_control = true;
    cfg.reliability = true;
    cfg.crc_frames = true;
    return cfg;
  }

  static std::unique_ptr<Cluster> make(std::size_t nodes,
                                       FmConfig cfg = FmConfig(),
                                       hw::FaultParams faults = {}) {
    return make_as_is(nodes, adapt(cfg), faults);
  }

  /// make() without adapt(): `cfg` exactly as given (the endpoint still
  /// refuses a config without FM-R), e.g. FM-R with CRC off.
  static std::unique_ptr<Cluster> make_as_is(std::size_t nodes, FmConfig cfg,
                                             hw::FaultParams faults = {}) {
    net::NetConfig nc;
    // Tests must die well before ctest/CI timeouts so the failure artifact
    // is a RunReport, not a global hang.
    nc.run_timeout_ns = 60'000'000'000ull;
    return std::make_unique<Cluster>(nodes, cfg, nc, faults);
  }

  static RunReport run(Cluster& c,
                       const std::function<void(Endpoint&)>& body) {
    RunReport r = c.run([&body, &c](Endpoint& ep) {
      body(ep);
      if (::testing::Test::HasFailure()) {
        // This runs in the forked rank: persist the evidence and turn the
        // failure into an exit code the parent can assert on.
        detail::dump_rank_failure(ep.id());
        c.mark_child_failed();
      }
    });
    EXPECT_TRUE(r.all_clean())
        << "net rank(s) failed: " << detail::describe_ranks(r)
        << "(assertion details are in the rank's stderr and, when "
           "FM_OBS_DUMP_DIR is set, its dump artifacts)";
    return r;
  }
};

/// gtest typed-test name printer ("...Backends/CommTyped/shm.Bcast...").
struct BackendNames {
  template <typename T>
  static std::string GetName(int) {
    return T::kName;
  }
};

using BothBackends = ::testing::Types<ShmBackend, NetBackend>;

}  // namespace fm::testing
