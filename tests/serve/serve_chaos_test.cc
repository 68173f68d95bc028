// FM-San chaos leg for FM-Serve: a shard dies mid-run (SIGKILL for a
// forked net rank, protocol death for an shm thread). The invariants under
// test are the plane's failure semantics — the victim's inflight calls
// drain kPeerDead via FM-R's bounded dead-peer verdict (the client
// endpoint's liveness probes guarantee there is traffic to judge), its
// sessions rehash onto the surviving shard with a fresh epoch, per-session
// kOk cookie order survives the failover, and the survivor keeps serving
// throughout. Nothing hangs: the net watchdog turns a wedged run into a
// timed-out report.
#include "serve/client.h"
#include "serve/server.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <vector>

#include "serve/hash.h"
#include "support/backends.h"

namespace fm {
namespace {

using serve::CallResult;
using serve::Client;
using serve::Server;

constexpr std::uint32_t kShards = 2;
constexpr NodeId kVictim = 1;
constexpr NodeId kSurvivor = 0;
constexpr NodeId kClientRank = kShards;
constexpr std::size_t kSessions = 8;
constexpr std::uint64_t kOksPer = 60;

template <class B>
class ServeChaos : public ::testing::Test {};

TYPED_TEST_SUITE(ServeChaos, testing::BothBackends, testing::BackendNames);

TYPED_TEST(ServeChaos, KilledShardDrainsPeerDeadAndSessionsFailOver) {
  using B = TypeParam;
  using E = typename B::Endpoint;

  FmConfig cfg;
  // Death is only detectable through FM-R (mandatory on net; opted into on
  // shm): tight retransmit budget so the verdict lands fast.
  cfg.reliability = true;
  cfg.crc_frames = true;
  cfg.retransmit_timeout_ns = 1'000'000;  // 1 ms
  cfg.max_retries = 5;

  auto cluster = B::make(kShards + 1, cfg);
  auto* c = cluster.get();
  std::array<std::atomic<std::uint32_t>, 4> halt{};
  HandlerId halt_id = c->register_handler(
      [&halt](E& ep, NodeId, const void*, std::size_t) {
        halt[ep.id()].fetch_add(1);
      });

  const RunReport r = c->run([&](E& ep) {
    const NodeId me = ep.id();
    if (me < kShards) {
      Server<E> srv(ep);
      srv.register_method([](NodeId, std::uint64_t, const void* d,
                             std::size_t n,
                             typename Server<E>::ResponseWriter& w) {
        w.reply(d, n);
      });
      if (me == kVictim) {
        // Serve long enough for real traffic to be mid-flight, then die
        // the backend's death: SIGKILL for a forked net rank, a silent
        // return (never extracting again) for an shm thread.
        while (srv.counters().requests_completed < 10) srv.poll();
        if (B::kProcessRanks) std::raise(SIGKILL);
        return;
      }
      while (halt[me].load() < 1) srv.poll();
      EXPECT_GT(srv.counters().requests_completed, 0u);
      ep.drain();
      c->publish(srv.registry());
      if constexpr (B::kProcessRanks) {
        if (::testing::Test::HasFailure()) {
          testing::detail::dump_rank_failure(me);
          c->mark_child_failed();
        }
      }
      return;
    }

    // The client: deterministic placement, half the sessions on each shard
    // so the kill is guaranteed to strand real sessions.
    std::vector<std::uint64_t> sess;
    std::size_t per_shard[kShards] = {};
    for (std::uint64_t id = 3000; sess.size() < kSessions; ++id) {
      const std::uint32_t sh = serve::shard_for(id, kShards, 0b11);
      if (per_shard[sh] < kSessions / kShards) {
        sess.push_back(id);
        ++per_shard[sh];
      }
    }
    Client<E> cli(ep, kShards);
    std::array<std::uint64_t, kSessions> oks{};
    std::array<bool, kSessions> outstanding{};
    cli.set_completion([&](const CallResult& r2) {
      std::size_t idx = kSessions;
      for (std::size_t i = 0; i < kSessions; ++i)
        if (sess[i] == r2.session) idx = i;
      ASSERT_LT(idx, kSessions);
      outstanding[idx] = false;
      if (r2.status == Status::kOk) {
        // The invariant that must survive the failover: kOk completions of
        // one session are consecutive cookies, exactly once each, even
        // when the cookie was first issued to the shard that died.
        EXPECT_EQ(r2.cookie, oks[idx])
            << "session " << r2.session << " order broke across the kill";
        ++oks[idx];
      } else {
        EXPECT_TRUE(r2.status == Status::kOverload ||
                    r2.status == Status::kPeerDead)
            << "unexpected status " << static_cast<int>(r2.status);
      }
    });
    std::uint8_t body[16] = {};
    for (;;) {
      bool all_done = true;
      for (std::size_t i = 0; i < kSessions; ++i) {
        if (oks[i] >= kOksPer) continue;
        all_done = false;
        if (outstanding[i]) continue;
        if (cli.call(sess[i], 0, body, sizeof body, oks[i],
                     /*deadline_ns=*/0) == Status::kOk)
          outstanding[i] = true;
      }
      if (all_done) break;
      cli.poll();
    }
    while (!cli.quiesced()) cli.poll();

    EXPECT_TRUE(ep.peer_dead(kVictim));
    EXPECT_EQ(cli.live_mask(), 1u << kSurvivor);
    EXPECT_GE(cli.counters().calls_dead_peer, 1u)
        << "no inflight call drained kPeerDead";
    EXPECT_GE(cli.counters().rebalances, kSessions / kShards)
        << "the victim's sessions never rehashed";
    EXPECT_EQ(cli.counters().calls_completed, kSessions * kOksPer);
    EXPECT_GE(ep.stats().probes_sent, 1u);

    while (ep.send4(kSurvivor, halt_id, 0, 0, 0, 0) == Status::kAgain)
      ep.extract();
    ep.drain();
    c->publish(cli.registry());
    if constexpr (B::kProcessRanks) {
      if (::testing::Test::HasFailure()) {
        testing::detail::dump_rank_failure(me);
        c->mark_child_failed();
      }
    }
  });

  ASSERT_FALSE(r.timed_out) << "the plane hung instead of failing over";
  for (const RankStatus& rs : r.ranks) {
    if (rs.id == kVictim && B::kProcessRanks) {
      EXPECT_FALSE(rs.exited) << "victim was not killed";
      EXPECT_EQ(rs.term_signal, SIGKILL);
    } else if (rs.id != kVictim) {
      EXPECT_TRUE(rs.clean()) << "rank " << rs.id;
    }
  }
  // The failover is visible in the merged counters: dead-peer drains and
  // session rebalances on the client, service on the survivor.
  EXPECT_GE(r.sum_counter("calls_dead_peer"), 1.0);
  EXPECT_GE(r.sum_counter("rebalances"),
            static_cast<double>(kSessions / kShards));
  EXPECT_EQ(r.sum_counter("calls_completed"),
            static_cast<double>(kSessions * kOksPer));
}

}  // namespace
}  // namespace fm
