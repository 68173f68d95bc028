// FM-Serve protocol tests: the serving plane's API contract over both real
// backends — per-session FIFO completion order, eager vs chunked responses,
// deadlines with orphan tolerance, cancellation, remote shedding with
// retry-after backoff, open-loop overload degrading into sheds (never
// deadlock), out-of-order parking with skip-bit advance, and graceful drain
// rebalancing sessions onto the surviving shard with ordering preserved.
#include "serve/client.h"
#include "serve/server.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "serve/hash.h"
#include "serve/wire.h"
#include "support/backends.h"

namespace fm {
namespace {

using serve::CallResult;
using serve::Client;
using serve::ServeConfig;
using serve::Server;

/// Per-rank halt flags: the client bumps a shard's slot over FM when the
/// test traffic is done, so shard loops terminate without any shared-memory
/// assumption (each net rank sees only its own forked copy — which is
/// exactly the slot its own handler bumps).
struct HaltFlags {
  std::array<std::atomic<std::uint32_t>, 8> n{};
};

template <class E>
void send_halt(E& ep, HandlerId halt_id, NodeId dest) {
  while (ep.send4(dest, halt_id, 0, 0, 0, 0) == Status::kAgain) ep.extract();
}

/// The common shutdown ritual (mirrors bench/serve_loadgen): a serviced
/// barrier so every rank is done issuing, a drain to flush tail acks, the
/// engine registry published into the RunReport, and a final barrier so no
/// rank destroys its engine while a peer still needs its acks.
template <class C, class E>
void shutdown_ritual(C& c, E& ep, const obs::Registry& reg) {
  barrier_serviced(c, ep);
  ep.drain();
  c.publish(reg);
  barrier_serviced(c, ep);
}

std::uint8_t pat(std::uint64_t cookie, std::size_t j) {
  return static_cast<std::uint8_t>(cookie * 31 + j * 7 + 1);
}

template <class B>
class ServeTyped : public ::testing::Test {};

TYPED_TEST_SUITE(ServeTyped, testing::BothBackends, testing::BackendNames);

// ---------------------------------------------------------------------------
// Echo across two shards: every call completes kOk exactly once, and each
// session's completions fire in issue order (the plane's core invariant).
// ---------------------------------------------------------------------------
TYPED_TEST(ServeTyped, EchoCompletesInPerSessionOrderAcrossShards) {
  using B = TypeParam;
  using E = typename B::Endpoint;
  constexpr std::uint32_t kShards = 2;
  constexpr std::size_t kSessions = 4;
  constexpr std::uint64_t kCallsPer = 100;

  auto cluster = B::make(kShards + 1);
  auto* c = cluster.get();
  HaltFlags halt;
  HandlerId halt_id = c->register_handler(
      [&halt](E& ep, NodeId, const void*, std::size_t) {
        halt.n[ep.id()].fetch_add(1);
      });

  B::run(*c, [&](E& ep) {
    if (ep.id() < kShards) {
      Server<E> srv(ep);
      srv.register_method([](NodeId, std::uint64_t, const void* d,
                             std::size_t n,
                             typename Server<E>::ResponseWriter& w) {
        w.reply(d, n);
      });
      while (halt.n[ep.id()].load() < 1) srv.poll();
      EXPECT_GT(srv.counters().requests_completed, 0u);
      shutdown_ritual(*c, ep, srv.registry());
      return;
    }
    Client<E> cli(ep, kShards);
    // Deterministic placement: two sessions per shard, so "across shards"
    // is guaranteed rather than left to how 100..103 happen to hash.
    std::array<std::uint64_t, kSessions> sess{};
    {
      std::size_t per_shard[kShards] = {};
      std::size_t k = 0;
      for (std::uint64_t id = 100; k < kSessions; ++id) {
        const std::uint32_t sh = serve::shard_for(id, kShards, 0b11);
        if (per_shard[sh] < kSessions / kShards) {
          sess[k++] = id;
          ++per_shard[sh];
        }
      }
    }
    std::array<std::uint64_t, kSessions> oks{};
    std::array<bool, kSessions> outstanding{};
    cli.set_completion([&](const CallResult& r) {
      std::size_t idx = kSessions;
      for (std::size_t i = 0; i < kSessions; ++i)
        if (sess[i] == r.session) idx = i;
      ASSERT_LT(idx, kSessions);
      outstanding[idx] = false;
      if (r.status == Status::kOk) {
        EXPECT_EQ(r.cookie, oks[idx]) << "session " << r.session
                                      << " completed out of order";
        ASSERT_EQ(r.len, 16u);
        for (std::size_t j = 0; j < 16; ++j)
          ASSERT_EQ(static_cast<const std::uint8_t*>(r.data)[j],
                    pat(r.cookie, j));
        ++oks[idx];
      } else {
        EXPECT_EQ(r.status, Status::kOverload);  // retried below
      }
    });
    std::uint8_t body[16];
    for (;;) {
      bool all_done = true;
      for (std::size_t i = 0; i < kSessions; ++i) {
        if (oks[i] >= kCallsPer) continue;
        all_done = false;
        if (outstanding[i]) continue;
        for (std::size_t j = 0; j < 16; ++j) body[j] = pat(oks[i], j);
        if (cli.call(sess[i], 0, body, 16, /*cookie=*/oks[i],
                     /*deadline_ns=*/0) == Status::kOk)
          outstanding[i] = true;
      }
      if (all_done) break;
      cli.poll();
    }
    while (!cli.quiesced()) cli.poll();
    EXPECT_EQ(cli.counters().calls_completed, kSessions * kCallsPer);
    EXPECT_EQ(cli.counters().calls_deadline, 0u);
    EXPECT_EQ(cli.counters().orphan_responses, 0u);
    for (NodeId d = 0; d < kShards; ++d) send_halt(ep, halt_id, d);
    shutdown_ritual(*c, ep, cli.registry());
  });
}

// ---------------------------------------------------------------------------
// A response over eager_max_bytes rides the chunked credit-pulled path and
// reassembles byte-exact; a tiny append()/end() stream does too.
// ---------------------------------------------------------------------------
TYPED_TEST(ServeTyped, LargeResponsesStreamUnderCreditAndReassemble) {
  using B = TypeParam;
  using E = typename B::Endpoint;
  constexpr std::size_t kRespBytes = 8192;  // > eager_max (2048), 8 chunks

  auto cluster = B::make(2);
  auto* c = cluster.get();
  HaltFlags halt;
  HandlerId halt_id = c->register_handler(
      [&halt](E& ep, NodeId, const void*, std::size_t) {
        halt.n[ep.id()].fetch_add(1);
      });

  B::run(*c, [&](E& ep) {
    if (ep.id() == 0) {
      Server<E> srv(ep);
      std::vector<std::uint8_t> big(kRespBytes);
      srv.register_method([&big](NodeId, std::uint64_t, const void* d,
                                 std::size_t n,
                                 typename Server<E>::ResponseWriter& w) {
        ASSERT_EQ(n, 1u);
        const std::uint8_t cookie = *static_cast<const std::uint8_t*>(d);
        for (std::size_t j = 0; j < big.size(); ++j) big[j] = pat(cookie, j);
        w.reply(big.data(), big.size());
      });
      srv.register_method([](NodeId, std::uint64_t, const void*, std::size_t,
                             typename Server<E>::ResponseWriter& w) {
        w.append("alpha", 5);
        w.append("beta", 4);
        w.append("gamma", 5);
        w.end();
      });
      while (halt.n[0].load() < 1) srv.poll();
      EXPECT_EQ(srv.counters().responses_streamed, 3u);
      EXPECT_EQ(srv.counters().stream_chunks_sent,
                2 * (kRespBytes / 1024) + 1);
      shutdown_ritual(*c, ep, srv.registry());
      return;
    }
    Client<E> cli(ep, 1);
    std::size_t done = 0;
    std::uint64_t last_cookie = 0;
    cli.set_completion([&](const CallResult& r) {
      ASSERT_EQ(r.status, Status::kOk);
      if (r.cookie < 2) {  // the two large unary calls
        ASSERT_EQ(r.len, kRespBytes);
        for (std::size_t j = 0; j < kRespBytes; ++j)
          ASSERT_EQ(static_cast<const std::uint8_t*>(r.data)[j],
                    pat(r.cookie, j))
              << "byte " << j;
      } else {  // the explicit append()/end() stream
        ASSERT_EQ(r.len, 14u);
        EXPECT_EQ(0, std::memcmp(r.data, "alphabetagamma", 14));
      }
      last_cookie = r.cookie;
      ++done;
    });
    for (std::uint64_t i = 0; i < 3; ++i) {
      const std::uint8_t body = static_cast<std::uint8_t>(i);
      ASSERT_EQ(cli.call(7, i < 2 ? 0 : 1, &body, 1, i, 0), Status::kOk);
      const std::size_t want = done + 1;
      while (done < want) cli.poll();
    }
    EXPECT_EQ(done, 3u);
    EXPECT_EQ(last_cookie, 2u);
    EXPECT_EQ(cli.counters().chunks_received, 2 * (kRespBytes / 1024) + 1);
    EXPECT_GE(cli.counters().credits_sent, 2u);
    send_halt(ep, halt_id, 0);
    shutdown_ritual(*c, ep, cli.registry());
  });
}

// ---------------------------------------------------------------------------
// Deadlines: with the shard stalled, overdue calls resolve kDeadline in
// session order and release their window slots; when the shard wakes and
// answers anyway, the late responses are tolerated orphans, never a crash.
// ---------------------------------------------------------------------------
TYPED_TEST(ServeTyped, DeadlineExpiryReleasesInOrderAndLateRepliesAreOrphans) {
  using B = TypeParam;
  using E = typename B::Endpoint;
  constexpr std::size_t kCalls = 4;

  FmConfig fcfg;
  // Keep FM-R's dead-peer horizon far beyond the stall so the deadline is
  // the only failure that can fire.
  fcfg.retransmit_timeout_ns = 5'000'000;
  auto cluster = B::make(2, fcfg);
  auto* c = cluster.get();
  HaltFlags halt;
  HandlerId halt_id = c->register_handler(
      [&halt](E& ep, NodeId, const void*, std::size_t) {
        halt.n[ep.id()].fetch_add(1);
      });

  B::run(*c, [&](E& ep) {
    if (ep.id() == 0) {
      Server<E> srv(ep);
      srv.register_method([](NodeId, std::uint64_t, const void* d,
                             std::size_t n,
                             typename Server<E>::ResponseWriter& w) {
        w.reply(d, n);
      });
      c->barrier();  // stall: do not serve until the client saw deadlines
      while (halt.n[0].load() < 1) srv.poll();
      // The stalled requests executed on wake; their cancels arrived too
      // late to apply (the responses were already owed).
      EXPECT_EQ(srv.counters().requests_completed, kCalls);
      EXPECT_EQ(srv.counters().cancels_received, kCalls);
      EXPECT_EQ(srv.counters().cancels_applied, 0u);
      shutdown_ritual(*c, ep, srv.registry());
      return;
    }
    Client<E> cli(ep, 1);
    std::vector<CallResult> results;
    cli.set_completion([&](const CallResult& r) {
      CallResult copy = r;
      copy.data = nullptr;  // payload is callback-scoped
      results.push_back(copy);
    });
    std::uint8_t body[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (std::uint64_t i = 0; i < kCalls; ++i)
      ASSERT_EQ(cli.call(9, 0, body, sizeof body, i,
                         /*deadline_ns=*/2'000'000),
                Status::kOk);
    while (results.size() < kCalls) cli.poll();
    for (std::size_t i = 0; i < kCalls; ++i) {
      EXPECT_EQ(results[i].cookie, i) << "deadline completions out of order";
      EXPECT_EQ(results[i].status, Status::kDeadline);
    }
    EXPECT_EQ(cli.counters().calls_deadline, kCalls);
    EXPECT_EQ(cli.inflight(), 0u) << "deadline did not release the window";
    c->barrier();  // wake the shard; its answers are now all orphans
    while (cli.counters().orphan_responses < kCalls) cli.poll();
    EXPECT_EQ(results.size(), kCalls) << "an orphan fired a completion";
    send_halt(ep, halt_id, 0);
    shutdown_ritual(*c, ep, cli.registry());
  });
}

// ---------------------------------------------------------------------------
// cancel(): resolves kCancelled locally, completions still fire in session
// order around it, and the executed-anyway response becomes an orphan.
// ---------------------------------------------------------------------------
TYPED_TEST(ServeTyped, CancelResolvesInOrderAndItsLateReplyIsAnOrphan) {
  using B = TypeParam;
  using E = typename B::Endpoint;

  FmConfig fcfg;
  fcfg.retransmit_timeout_ns = 5'000'000;
  auto cluster = B::make(2, fcfg);
  auto* c = cluster.get();
  HaltFlags halt;
  HandlerId halt_id = c->register_handler(
      [&halt](E& ep, NodeId, const void*, std::size_t) {
        halt.n[ep.id()].fetch_add(1);
      });

  B::run(*c, [&](E& ep) {
    if (ep.id() == 0) {
      Server<E> srv(ep);
      srv.register_method([](NodeId, std::uint64_t, const void* d,
                             std::size_t n,
                             typename Server<E>::ResponseWriter& w) {
        w.reply(d, n);
      });
      c->barrier();  // stall until the cancel is in
      while (halt.n[0].load() < 1) srv.poll();
      EXPECT_EQ(srv.counters().requests_completed, 3u);
      shutdown_ritual(*c, ep, srv.registry());
      return;
    }
    Client<E> cli(ep, 1);
    std::vector<std::pair<std::uint64_t, Status>> results;
    cli.set_completion([&](const CallResult& r) {
      results.emplace_back(r.cookie, r.status);
    });
    std::uint8_t body[4] = {9, 9, 9, 9};
    for (std::uint64_t i = 0; i < 3; ++i)
      ASSERT_EQ(cli.call(11, 0, body, sizeof body, i, 0), Status::kOk);
    ASSERT_EQ(cli.cancel(11, 1), Status::kOk);
    // Ordered release: the cancelled seq 1 must NOT complete before seq 0.
    EXPECT_TRUE(results.empty());
    c->barrier();  // wake the shard
    while (results.size() < 3) cli.poll();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0], (std::pair<std::uint64_t, Status>{0, Status::kOk}));
    EXPECT_EQ(results[1],
              (std::pair<std::uint64_t, Status>{1, Status::kCancelled}));
    EXPECT_EQ(results[2], (std::pair<std::uint64_t, Status>{2, Status::kOk}));
    while (cli.counters().orphan_responses < 1) cli.poll();
    EXPECT_EQ(cli.counters().calls_cancelled, 1u);
    EXPECT_EQ(cli.counters().cancels_sent, 1u);
    send_halt(ep, halt_id, 0);
    shutdown_ritual(*c, ep, cli.registry());
  });
}

// ---------------------------------------------------------------------------
// Remote shed: a request over the SERVER's max_request_bytes is shed with
// kTooLarge; the client completes it kOverload, honors the retry-after
// backoff (local sheds meanwhile), and the owed kCancel advances the
// shard's FIFO window so the session's next call executes.
// ---------------------------------------------------------------------------
TYPED_TEST(ServeTyped, OversizeRequestShedsRemotelyBacksOffThenRecovers) {
  using B = TypeParam;
  using E = typename B::Endpoint;

  auto cluster = B::make(2);
  auto* c = cluster.get();
  HaltFlags halt;
  HandlerId halt_id = c->register_handler(
      [&halt](E& ep, NodeId, const void*, std::size_t) {
        halt.n[ep.id()].fetch_add(1);
      });

  B::run(*c, [&](E& ep) {
    if (ep.id() == 0) {
      ServeConfig scfg;
      scfg.max_request_bytes = 64;  // tighter than the client's bound
      // Long enough that the client's immediate retry below lands inside
      // the backoff however slowly the build runs.
      scfg.retry_after_us = 200'000;
      Server<E> srv(ep, scfg);
      srv.register_method([](NodeId, std::uint64_t, const void* d,
                             std::size_t n,
                             typename Server<E>::ResponseWriter& w) {
        w.reply(d, n);
      });
      while (halt.n[0].load() < 1) srv.poll();
      EXPECT_EQ(srv.counters().shed_too_large, 1u);
      EXPECT_EQ(srv.counters().cancels_applied, 1u)
          << "the shed seq's skip never advanced the FIFO window";
      EXPECT_EQ(srv.counters().requests_completed, 1u);
      shutdown_ritual(*c, ep, srv.registry());
      return;
    }
    Client<E> cli(ep, 1);
    std::vector<std::pair<std::uint64_t, Status>> results;
    cli.set_completion([&](const CallResult& r) {
      results.emplace_back(r.cookie, r.status);
    });
    std::uint8_t big[256] = {};
    ASSERT_EQ(cli.call(21, 0, big, sizeof big, 0, 0), Status::kOk);
    while (results.empty()) cli.poll();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0],
              (std::pair<std::uint64_t, Status>{0, Status::kOverload}));
    EXPECT_EQ(cli.counters().calls_shed_remote, 1u);
    // The session is backing off per the server's retry-after hint: an
    // immediate retry sheds locally without touching the wire.
    std::uint8_t small[8] = {};
    EXPECT_EQ(cli.call(21, 0, small, sizeof small, 1, 0), Status::kOverload);
    EXPECT_GE(cli.counters().calls_shed_local, 1u);
    // Once the backoff lapses the session recovers on the same shard.
    while (cli.call(21, 0, small, sizeof small, 1, 0) != Status::kOk)
      cli.poll();
    while (results.size() < 2) cli.poll();
    EXPECT_EQ(results[1], (std::pair<std::uint64_t, Status>{1, Status::kOk}));
    send_halt(ep, halt_id, 0);
    shutdown_ritual(*c, ep, cli.registry());
  });
}

// ---------------------------------------------------------------------------
// Out-of-order arrivals (hand-rolled wire client): later seqs park in the
// bounded pool, a kCancel for a parked seq frees it and sets its skip bit,
// and the head arrival executes-then-unparks in seq order.
// ---------------------------------------------------------------------------
TYPED_TEST(ServeTyped, OutOfOrderSeqsParkAndCancelledSeqIsSkipped) {
  using B = TypeParam;
  using E = typename B::Endpoint;
  constexpr std::uint64_t kSession = 0x4242;

  auto cluster = B::make(2);
  auto* c = cluster.get();
  HaltFlags halt;
  HandlerId halt_id = c->register_handler(
      [&halt](E& ep, NodeId, const void*, std::size_t) {
        halt.n[ep.id()].fetch_add(1);
      });

  B::run(*c, [&](E& ep) {
    if (ep.id() == 0) {
      Server<E> srv(ep);
      srv.register_method([](NodeId, std::uint64_t, const void*, std::size_t,
                             typename Server<E>::ResponseWriter& w) {
        w.reply("okay", 4);
      });
      while (halt.n[0].load() < 1) srv.poll();
      EXPECT_EQ(srv.counters().requests_admitted, 3u);
      EXPECT_EQ(srv.counters().ooo_parked, 2u);
      EXPECT_EQ(srv.counters().ooo_unparked, 1u);
      EXPECT_EQ(srv.counters().cancels_applied, 1u);
      EXPECT_EQ(srv.counters().requests_completed, 2u);
      shutdown_ritual(*c, ep, srv.registry());
      return;
    }
    // Raw-wire client: registered at the same point as the server's
    // handler, so this rank's handler id addresses the server engine.
    std::vector<std::uint32_t> got;
    HandlerId h = ep.register_handler(
        [&got](E&, NodeId, const void* d, std::size_t n) {
          const serve::WireHeader rh = serve::decode_header(d, n);
          ASSERT_EQ(static_cast<serve::Op>(rh.op), serve::Op::kResponse);
          got.push_back(rh.seq);
        });
    std::uint8_t wire[serve::kWireHeaderBytes + 8] = {};
    auto send_op = [&](serve::Op op, std::uint32_t seq, std::size_t body) {
      serve::WireHeader w;
      w.op = static_cast<std::uint16_t>(op);
      w.method = 0;
      w.seq = seq;
      w.session = kSession;
      w.epoch = 0;
      w.aux = 0;
      serve::encode_header(wire, w);
      while (ep.send(0, h, wire, serve::kWireHeaderBytes + body) ==
             Status::kAgain)
        ep.extract();
    };
    send_op(serve::Op::kRequest, 2, 8);  // parks (gap 2)
    send_op(serve::Op::kRequest, 1, 8);  // parks (gap 1)
    send_op(serve::Op::kCancel, 1, 0);   // unparks seq 1, sets its skip bit
    send_op(serve::Op::kRequest, 0, 8);  // executes, skips 1, unparks 2
    while (got.size() < 2) ep.extract();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], 0u);
    EXPECT_EQ(got[1], 2u);
    send_halt(ep, halt_id, 0);
    barrier_serviced(*c, ep);
    ep.drain();
    barrier_serviced(*c, ep);
  });
}

// ---------------------------------------------------------------------------
// Open-loop overload: issuing far past capacity degrades into kOverload
// sheds, every issued call still completes exactly once, the conservation
// ledger balances, and nothing deadlocks (the test terminating IS the
// liveness assertion — the net watchdog turns a hang into a failed report).
// ---------------------------------------------------------------------------
TYPED_TEST(ServeTyped, OpenLoopOverloadShedsConservesAndStaysLive) {
  using B = TypeParam;
  using E = typename B::Endpoint;
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kAttempts = 4000;

  auto cluster = B::make(2);
  auto* c = cluster.get();
  HaltFlags halt;
  HandlerId halt_id = c->register_handler(
      [&halt](E& ep, NodeId, const void*, std::size_t) {
        halt.n[ep.id()].fetch_add(1);
      });

  B::run(*c, [&](E& ep) {
    if (ep.id() == 0) {
      Server<E> srv(ep);
      srv.register_method([](NodeId, std::uint64_t, const void* d,
                             std::size_t n,
                             typename Server<E>::ResponseWriter& w) {
        w.reply(d, n);
      });
      while (halt.n[0].load() < 1) srv.poll();
      shutdown_ritual(*c, ep, srv.registry());
      return;
    }
    ServeConfig ccfg;
    ccfg.client_inflight_cap = 32;  // well under the open-loop offered rate
    Client<E> cli(ep, 1, ccfg);
    std::uint64_t done_ok = 0, done_shed = 0, done_other = 0;
    cli.set_completion([&](const CallResult& r) {
      if (r.status == Status::kOk)
        ++done_ok;
      else if (r.status == Status::kOverload)
        ++done_shed;
      else
        ++done_other;
    });
    std::uint64_t issued = 0, shed_at_call = 0;
    std::uint8_t body[8] = {};
    for (std::size_t i = 0; i < kAttempts; ++i) {
      const Status st =
          cli.call(500 + (i % kSessions), 0, body, sizeof body, i, 0);
      if (st == Status::kOk)
        ++issued;
      else
        ++shed_at_call;
      if ((i & 15) == 0) cli.poll();
    }
    while (!cli.quiesced()) cli.poll();
    EXPECT_GT(shed_at_call, 0u) << "open-loop load never hit admission";
    EXPECT_EQ(issued + shed_at_call, kAttempts);
    EXPECT_EQ(cli.counters().calls_issued, issued);
    EXPECT_EQ(done_ok + done_shed + done_other, issued)
        << "an issued call never completed (or completed twice)";
    EXPECT_EQ(done_other, 0u);
    EXPECT_EQ(cli.counters().calls_completed, done_ok);
    EXPECT_EQ(cli.counters().calls_shed_remote, done_shed);
    EXPECT_EQ(cli.counters().calls_shed_local, shed_at_call);
    send_halt(ep, halt_id, 0);
    shutdown_ritual(*c, ep, cli.registry());
  });
}

// ---------------------------------------------------------------------------
// Graceful drain: a method flips shard 0 into draining; its sessions ride
// the advisory sheds onto shard 1 with a fresh epoch, per-session cookie
// order survives the rebalance, and the drained shard quiesces cleanly.
// ---------------------------------------------------------------------------
TYPED_TEST(ServeTyped, DrainRebalancesSessionsPreservingPerSessionOrder) {
  using B = TypeParam;
  using E = typename B::Endpoint;
  constexpr std::uint32_t kShards = 2;
  constexpr std::size_t kSessions = 6;
  constexpr std::uint64_t kPhase = 40;  // kOk completions per session/phase

  auto cluster = B::make(kShards + 1);
  auto* c = cluster.get();
  HaltFlags halt;
  HandlerId halt_id = c->register_handler(
      [&halt](E& ep, NodeId, const void*, std::size_t) {
        halt.n[ep.id()].fetch_add(1);
      });

  B::run(*c, [&](E& ep) {
    if (ep.id() < kShards) {
      Server<E> srv(ep);
      srv.register_method([](NodeId, std::uint64_t, const void* d,
                             std::size_t n,
                             typename Server<E>::ResponseWriter& w) {
        w.reply(d, n);
      });
      srv.register_method([&srv](NodeId, std::uint64_t, const void*,
                                 std::size_t,
                                 typename Server<E>::ResponseWriter&) {
        srv.begin_drain();  // auto empty reply acks the drain request
      });
      while (halt.n[ep.id()].load() < 1) srv.poll();
      if (ep.id() == 0) {
        EXPECT_TRUE(srv.draining());
        EXPECT_TRUE(srv.drained());
        EXPECT_GE(srv.counters().shed_draining, 1u);
      } else {
        EXPECT_FALSE(srv.draining());
        // Rebalanced sessions arrived with a bumped epoch to adopt.
        EXPECT_GE(srv.counters().epochs_adopted, 3u);
      }
      shutdown_ritual(*c, ep, srv.registry());
      return;
    }
    // Deterministic placement: three sessions per shard, plus a dedicated
    // drain-trigger session owned by shard 0.
    std::vector<std::uint64_t> sess;
    std::size_t on0 = 0, on1 = 0;
    for (std::uint64_t id = 1000; sess.size() < kSessions; ++id) {
      const std::uint32_t sh = serve::shard_for(id, kShards, 0b11);
      if (sh == 0 && on0 < kSessions / 2) {
        sess.push_back(id);
        ++on0;
      } else if (sh == 1 && on1 < kSessions / 2) {
        sess.push_back(id);
        ++on1;
      }
    }
    std::uint64_t drain_sess = 2000;
    while (serve::shard_for(drain_sess, kShards, 0b11) != 0) ++drain_sess;

    Client<E> cli(ep, kShards);
    std::array<std::uint64_t, kSessions> oks{};
    std::array<bool, kSessions> outstanding{};
    bool drain_completed = false;
    Status drain_status = Status::kAgain;
    cli.set_completion([&](const CallResult& r) {
      if (r.session == drain_sess) {
        drain_completed = true;
        drain_status = r.status;
        return;
      }
      std::size_t idx = kSessions;
      for (std::size_t i = 0; i < kSessions; ++i)
        if (sess[i] == r.session) idx = i;
      ASSERT_LT(idx, kSessions);
      outstanding[idx] = false;
      if (r.status == Status::kOk) {
        EXPECT_EQ(r.cookie, oks[idx])
            << "session " << r.session << " order broke across the rebalance";
        ++oks[idx];
      } else {
        EXPECT_EQ(r.status, Status::kOverload);  // shed: retried below
      }
    });
    std::uint8_t body[8] = {};
    auto run_phase = [&](std::uint64_t target) {
      for (;;) {
        bool all_done = true;
        for (std::size_t i = 0; i < kSessions; ++i) {
          if (oks[i] >= target) continue;
          all_done = false;
          if (outstanding[i]) continue;
          if (cli.call(sess[i], 0, body, sizeof body, oks[i], 0) ==
              Status::kOk)
            outstanding[i] = true;
        }
        if (all_done) break;
        cli.poll();
      }
    };
    run_phase(kPhase);
    // Retire shard 0 via its drain method (retried if the request itself
    // gets shed), then keep serving through the rebalance.
    std::uint64_t drain_cookie = 0;
    do {
      drain_completed = false;
      while (cli.call(drain_sess, 1, body, 1, drain_cookie++, 0) !=
             Status::kOk)
        cli.poll();
      while (!drain_completed) cli.poll();
    } while (drain_status != Status::kOk);
    run_phase(2 * kPhase);
    while (!cli.quiesced()) cli.poll();
    EXPECT_EQ(cli.live_mask(), 0b10u) << "shard 0 was not retired";
    EXPECT_GE(cli.counters().drain_advisories, 1u);
    EXPECT_GE(cli.counters().calls_shed_remote, 1u);
    // The three shard-0 sessions and the drain session all rehashed once.
    EXPECT_EQ(cli.counters().rebalances, kSessions / 2 + 1);
    for (std::size_t i = 0; i < kSessions; ++i)
      EXPECT_EQ(oks[i], 2 * kPhase) << "session " << sess[i];
    for (NodeId d = 0; d < kShards; ++d) send_halt(ep, halt_id, d);
    shutdown_ritual(*c, ep, cli.registry());
  });
}

}  // namespace
}  // namespace fm
