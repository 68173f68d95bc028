// The net backend's basics: the FM three-call surface between real forked
// processes over real UDP sockets, plus the harness machinery the soak
// tests lean on (report() plumbing, child-failure propagation, watchdog).
// Cross-rank assertions work only through the RunReport — ranks share no
// memory here, which is the point of this backend.
#include "net/cluster.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <thread>

#include "metrics/multiproc.h"
#include "support/backends.h"

namespace fm::net {
namespace {

FmConfig net_cfg() { return testing::NetBackend::adapt(FmConfig()); }

TEST(NetEndpoint, Send4DeliversExactlyOnceAcrossProcesses) {
  constexpr int kMsgs = 200;
  Cluster cluster(2, net_cfg());
  // Child-local state: each forked rank sees its own copy-on-write copy.
  std::vector<int> seen(kMsgs, 0);
  int got = 0;
  HandlerId h = cluster.register_handler(
      [&](Endpoint& ep, NodeId src, const void* data, std::size_t len) {
        ASSERT_EQ(len, 16u);
        std::uint32_t w[4];
        std::memcpy(w, data, 16);
        EXPECT_EQ(src, 0u);
        EXPECT_EQ(ep.id(), 1u);
        ASSERT_LT(w[0], static_cast<std::uint32_t>(kMsgs));
        EXPECT_EQ(w[1], w[0] * 3 + 1);
        ++seen[w[0]];
        ++got;
      });
  RunReport r = testing::NetBackend::run(cluster, [&](Endpoint& ep) {
    if (ep.id() == 0) {
      for (int m = 0; m < kMsgs; ++m) {
        const auto u = static_cast<std::uint32_t>(m);
        ASSERT_TRUE(ok(ep.send4(1, h, u, u * 3 + 1, 0, 0)));
        if ((m & 7) == 7) ep.extract();
      }
    } else {
      ep.extract_until([&] { return got >= kMsgs; });
      for (int m = 0; m < kMsgs; ++m) EXPECT_EQ(seen[m], 1) << "tag " << m;
    }
    ep.drain();
    cluster.barrier();  // neither socket closes while the peer still drains
  });
  EXPECT_FALSE(r.timed_out);
  obs::Conservation k = r.conservation();
  EXPECT_TRUE(k.balanced())
      << "sent=" << k.sent << " delivered=" << k.delivered
      << " abandoned=" << k.abandoned;
  EXPECT_EQ(r.sum_counter("messages_delivered"), kMsgs);
  EXPECT_GE(r.sum_counter("datagrams_tx"), kMsgs);
  EXPECT_EQ(r.sum_counter("stray_datagrams"), 0.0);
}

TEST(NetEndpoint, SegmentedMessageReassembledAcrossProcesses) {
  constexpr std::size_t kLen = 5000;  // ~40 frames at the FM 1.0 frame size
  Cluster cluster(2, net_cfg());
  int got = 0;
  HandlerId h = cluster.register_handler(
      [&](Endpoint&, NodeId src, const void* data, std::size_t len) {
        EXPECT_EQ(src, 0u);
        ASSERT_EQ(len, kLen);
        const auto* p = static_cast<const std::uint8_t*>(data);
        for (std::size_t i = 0; i < kLen; ++i)
          ASSERT_EQ(p[i], static_cast<std::uint8_t>(i * 7 + 3)) << "byte " << i;
        ++got;
      });
  RunReport r = testing::NetBackend::run(cluster, [&](Endpoint& ep) {
    if (ep.id() == 0) {
      std::vector<std::uint8_t> buf(kLen);
      for (std::size_t i = 0; i < kLen; ++i)
        buf[i] = static_cast<std::uint8_t>(i * 7 + 3);
      ASSERT_TRUE(ok(ep.send(1, h, buf.data(), buf.size())));
    } else {
      ep.extract_until([&] { return got >= 1; });
    }
    ep.drain();
    cluster.barrier();
  });
  EXPECT_TRUE(r.conservation().balanced());
  EXPECT_EQ(r.sum_counter("messages_delivered"), 1.0);
  // Segmentation really happened: at least ceil(kLen / frame_payload) data
  // frames crossed the wire.
  EXPECT_GE(r.sum_counter("frames_sent"),
            static_cast<double>(kLen / kFmFramePayload));
}

TEST(NetEndpoint, PostedRepliesAndReportPlumbing) {
  constexpr std::size_t kPings = 100;
  Cluster cluster(2, net_cfg());
  std::size_t pings = 0, pongs = 0;
  HandlerId hpong = cluster.register_handler(
      [&](Endpoint&, NodeId, const void*, std::size_t) { ++pongs; });
  HandlerId hping = cluster.register_handler(
      [&](Endpoint& ep, NodeId src, const void* data, std::size_t) {
        std::uint32_t w0;
        std::memcpy(&w0, data, 4);
        ++pings;
        ep.post_send4(src, hpong, w0, 0, 0, 0);  // reply from handler context
      });
  RunReport r = testing::NetBackend::run(cluster, [&](Endpoint& ep) {
    if (ep.id() == 0) {
      for (std::size_t i = 0; i < kPings; ++i) {
        ASSERT_TRUE(
            ok(ep.send4(1, hping, static_cast<std::uint32_t>(i), 0, 0, 0)));
        ep.extract_until([&] { return pongs >= i + 1; });
      }
      cluster.report("rank0.pongs", static_cast<double>(pongs));
    } else {
      ep.extract_until([&] { return pings >= kPings; });
      cluster.report("rank1.pings", static_cast<double>(pings));
    }
    ep.drain();
    cluster.barrier();
  });
  // report() crossed the process boundary over the control channel.
  ASSERT_EQ(r.metrics.count("rank0.pongs"), 1u);
  ASSERT_EQ(r.metrics.count("rank1.pings"), 1u);
  EXPECT_EQ(r.metrics.at("rank0.pongs"), kPings);
  EXPECT_EQ(r.metrics.at("rank1.pings"), kPings);
  EXPECT_TRUE(r.conservation().balanced());
  EXPECT_EQ(r.sum_counter("messages_delivered"), 2.0 * kPings);
  // And the per-rank samples roll up: the merged total equals the sum of
  // the two node scopes (metrics/multiproc.h is what benches use).
  EXPECT_EQ(metrics::sum_suffix(metrics::merge_rank_samples(r.samples),
                                "messages_delivered"),
            2.0 * kPings);
}

TEST(NetEndpoint, BadArgumentsRejected) {
  Cluster cluster(2, net_cfg());
  HandlerId h = cluster.register_handler(
      [](Endpoint&, NodeId, const void*, std::size_t) {});
  RunReport r = testing::NetBackend::run(cluster, [&](Endpoint& ep) {
    if (ep.id() == 0) {
      EXPECT_EQ(ep.send4(7, h, 0, 0, 0, 0), Status::kBadArgument);
      EXPECT_EQ(ep.send(1, 99, "x", 1), Status::kBadArgument);
      EXPECT_EQ(ep.send(1, h, nullptr, 4), Status::kBadArgument);
      EXPECT_EQ(ep.send4(ep.id(), h, 0, 0, 0, 0), Status::kBadArgument);
      EXPECT_EQ(ep.stats().messages_sent, 0u);
      EXPECT_EQ(ep.unacked(), 0u);
    }
    ep.drain();
    cluster.barrier();
  });
  EXPECT_TRUE(r.all_clean());
  EXPECT_EQ(r.sum_counter("messages_sent"), 0.0);
}

TEST(NetEndpoint, StrayDatagramsAreCountedAndDropped) {
  Cluster cluster(2, net_cfg());
  int got = 0;
  HandlerId h = cluster.register_handler(
      [&](Endpoint&, NodeId, const void*, std::size_t) { ++got; });
  RunReport r = testing::NetBackend::run(cluster, [&](Endpoint& ep) {
    if (ep.id() == 1) {
      // A "port scan": raw datagrams from a socket no rank owns, aimed at
      // rank 0's data port. They must be counted and ignored, not crash the
      // endpoint or reach a handler.
      int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
      ASSERT_GE(fd, 0);
      const char junk[] = "not an FM frame at all";
      const sockaddr_in& dst = cluster.addr(0);
      for (int i = 0; i < 3; ++i)
        ASSERT_GT(::sendto(fd, junk, sizeof junk, 0,
                           reinterpret_cast<const sockaddr*>(&dst),
                           sizeof dst),
                  0);
      ::close(fd);
      ASSERT_TRUE(ok(ep.send4(0, h, 1, 2, 3, 4)));
    } else {
      ep.extract_until(
          [&] { return got >= 1 && ep.stray_datagrams() >= 3; });
      EXPECT_EQ(got, 1);
    }
    ep.drain();
    cluster.barrier();
  });
  EXPECT_EQ(r.sum_counter("stray_datagrams"), 3.0);
  EXPECT_EQ(r.sum_counter("messages_delivered"), 1.0);
  EXPECT_TRUE(r.conservation().balanced());
}

TEST(NetEndpoint, ChildFailureSurfacesInExitStatus) {
  Cluster cluster(2, net_cfg());
  RunReport r = cluster.run([&](Endpoint& ep) {
    if (ep.id() == 1) cluster.mark_child_failed();
    cluster.barrier();
  });
  EXPECT_FALSE(r.all_clean());
  ASSERT_EQ(r.ranks.size(), 2u);
  EXPECT_TRUE(r.ranks[0].clean());
  EXPECT_TRUE(r.ranks[1].exited);
  EXPECT_EQ(r.ranks[1].exit_code, 1);
}

TEST(NetEndpoint, WatchdogKillsHungRank) {
  NetConfig nc;
  nc.run_timeout_ns = 500'000'000ull;  // 0.5 s
  Cluster cluster(2, net_cfg(), nc);
  RunReport r = cluster.run([&](Endpoint& ep) {
    if (ep.id() == 1)
      for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  EXPECT_TRUE(r.timed_out);
  ASSERT_EQ(r.ranks.size(), 2u);
  EXPECT_TRUE(r.ranks[0].clean());
  EXPECT_FALSE(r.ranks[1].exited);
  EXPECT_EQ(r.ranks[1].term_signal, SIGKILL);
}

}  // namespace
}  // namespace fm::net
