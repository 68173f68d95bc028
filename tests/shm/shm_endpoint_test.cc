// Multi-threaded tests of the shared-memory FM endpoint: real concurrency,
// real bytes, same protocol semantics as the simulated endpoint.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <mutex>

#include "common/random.h"
#include "shm/cluster.h"

namespace fm::shm {
namespace {

TEST(ShmEndpoint, Send4RoundTrip) {
  Cluster cluster(2);
  std::atomic<int> sum{0};
  HandlerId h = cluster.register_handler(
      [&](Endpoint&, NodeId src, const void* data, std::size_t len) {
        EXPECT_EQ(src, 0u);
        EXPECT_EQ(len, 16u);
        std::uint32_t w[4];
        std::memcpy(w, data, 16);
        sum += static_cast<int>(w[0] + w[1] + w[2] + w[3]);
      });
  cluster.run([&](Endpoint& ep) {
    if (ep.id() == 0) {
      EXPECT_TRUE(ok(ep.send4(1, h, 1, 2, 3, 4)));
      ep.drain();
    } else {
      ep.extract_until([&] { return sum.load() == 10; });
      ep.drain();
    }
  });
  EXPECT_EQ(sum.load(), 10);
}

TEST(ShmEndpoint, LargeMessageRoundTripsIntact) {
  Cluster cluster(2);
  std::vector<std::uint8_t> received;
  std::atomic<bool> got{false};
  HandlerId h = cluster.register_handler(
      [&](Endpoint&, NodeId, const void* data, std::size_t len) {
        const auto* p = static_cast<const std::uint8_t*>(data);
        received.assign(p, p + len);
        got = true;
      });
  std::vector<std::uint8_t> message(100000);
  Xoshiro256 rng(3);
  for (auto& b : message) b = static_cast<std::uint8_t>(rng());
  cluster.run([&](Endpoint& ep) {
    if (ep.id() == 0) {
      EXPECT_TRUE(ok(ep.send(1, h, message.data(), message.size())));
      ep.drain();
    } else {
      ep.extract_until([&] { return got.load(); });
      ep.drain();
    }
  });
  EXPECT_EQ(received, message);
}

TEST(ShmEndpoint, PingPongPostedReplies) {
  Cluster cluster(2);
  std::atomic<int> pongs{0};
  // handler 1: pong counter (node 0); handler 2: echo (node 1).
  HandlerId hpong = cluster.register_handler(
      [&](Endpoint&, NodeId, const void*, std::size_t) { ++pongs; });
  HandlerId hping = cluster.register_handler(
      [&](Endpoint& ep, NodeId src, const void* data, std::size_t len) {
        ep.post_send(src, hpong, data, len);
      });
  const int kRounds = 50;
  cluster.run([&](Endpoint& ep) {
    if (ep.id() == 0) {
      for (int i = 0; i < kRounds; ++i) {
        EXPECT_TRUE(ok(ep.send4(1, hping, 1, 2, 3, 4)));
        int target = i + 1;
        ep.extract_until([&] { return pongs.load() >= target; });
      }
      ep.drain();
    } else {
      ep.extract_until([&] { return pongs.load() >= kRounds; });
      ep.drain();
    }
  });
  EXPECT_EQ(pongs.load(), kRounds);
}

TEST(ShmEndpoint, BadArgumentsRejected) {
  Cluster cluster(2);
  HandlerId h = cluster.register_handler(
      [](Endpoint&, NodeId, const void*, std::size_t) {});
  cluster.run([&](Endpoint& ep) {
    if (ep.id() == 0) {
      EXPECT_EQ(ep.send4(7, h, 0, 0, 0, 0), Status::kBadArgument);
      EXPECT_EQ(ep.send(1, 99, "x", 1), Status::kBadArgument);
      EXPECT_EQ(ep.send(1, h, nullptr, 4), Status::kBadArgument);
      // No node has a ring to itself: a self-send must be refused, not
      // accepted and never delivered (its window slot would never be
      // acked, so drain() would never return).
      EXPECT_EQ(ep.send4(ep.id(), h, 0, 0, 0, 0), Status::kBadArgument);
      EXPECT_EQ(ep.stats().messages_sent, 0u);
      EXPECT_EQ(ep.unacked(), 0u);
    }
  });
}

TEST(ShmEndpoint, AllToAllSoak) {
  const std::size_t kNodes = 4;
  const int kEach = 200;  // messages per directed pair
  Cluster cluster(kNodes);
  std::mutex mu;
  std::map<std::pair<NodeId, std::uint32_t>, int> delivered[kNodes];
  HandlerId h = cluster.register_handler(
      [&](Endpoint& ep, NodeId src, const void* data, std::size_t len) {
        ASSERT_EQ(len, 16u);
        std::uint32_t w[4];
        std::memcpy(w, data, 16);
        std::lock_guard<std::mutex> lock(mu);
        ++delivered[ep.id()][{src, w[0]}];
      });
  cluster.run([&](Endpoint& ep) {
    Xoshiro256 rng(ep.id() + 1);
    int sent = 0;
    const int total = kEach * static_cast<int>(kNodes - 1);
    std::uint32_t tag = 0;
    while (sent < total) {
      NodeId dest = static_cast<NodeId>(rng.below(kNodes));
      if (dest == ep.id()) continue;
      ASSERT_TRUE(ok(ep.send4(dest, h, tag++, ep.id(), 0, 0)));
      ++sent;
      if ((sent & 7) == 0) ep.extract();
    }
    ep.drain();
    // Keep servicing until everybody's traffic has landed.
    ep.extract_until([&] {
      std::lock_guard<std::mutex> lock(mu);
      std::size_t got = 0;
      for (auto& m : delivered) got += m.size();
      return got == kNodes * static_cast<std::size_t>(total);
    });
    ep.drain();
  });
  // Exactly-once delivery of every (sender, tag) pair.
  std::size_t total_msgs = 0;
  for (auto& m : delivered) {
    for (auto& [key, count] : m) {
      EXPECT_EQ(count, 1);
      ++total_msgs;
    }
  }
  EXPECT_EQ(total_msgs, kNodes * kEach * (kNodes - 1));
}

TEST(ShmEndpoint, ReturnToSenderUnderTinyReassemblyPool) {
  FmConfig cfg;
  cfg.reassembly_slots = 1;
  cfg.reject_retry_delay = 1;
  Cluster cluster(3, cfg);
  std::mutex mu;
  std::map<std::pair<NodeId, std::uint32_t>, int> delivered;
  HandlerId h = cluster.register_handler(
      [&](Endpoint& ep, NodeId src, const void* data, std::size_t len) {
        if (ep.id() != 2) return;
        ASSERT_GE(len, 4u);
        std::uint32_t tag;
        std::memcpy(&tag, data, 4);
        std::lock_guard<std::mutex> lock(mu);
        ++delivered[{src, tag}];
      });
  const int kMsgs = 20;
  const std::size_t kLen = 700;  // multi-fragment
  std::atomic<int> senders_done{0};
  cluster.run([&](Endpoint& ep) {
    if (ep.id() == 2) {
      ep.extract_until([&] {
        std::lock_guard<std::mutex> lock(mu);
        return delivered.size() == 2 * kMsgs;
      });
      ep.drain();
      return;
    }
    std::vector<std::uint8_t> buf(kLen, static_cast<std::uint8_t>(ep.id()));
    for (int i = 0; i < kMsgs; ++i) {
      std::uint32_t tag = static_cast<std::uint32_t>(i);
      std::memcpy(buf.data(), &tag, 4);
      ASSERT_TRUE(ok(ep.send(2, h, buf.data(), buf.size())));
    }
    ep.drain();
    ++senders_done;
    // Stay responsive until the receiver has everything (acks may still be
    // needed for the other sender's retransmissions).
    ep.extract_until([&] {
      std::lock_guard<std::mutex> lock(mu);
      return delivered.size() == 2 * kMsgs;
    });
  });
  EXPECT_EQ(delivered.size(), static_cast<std::size_t>(2 * kMsgs));
  for (auto& [key, count] : delivered) EXPECT_EQ(count, 1);
}

TEST(ShmEndpoint, StatsConsistency) {
  Cluster cluster(2);
  std::atomic<int> got{0};
  HandlerId h = cluster.register_handler(
      [&](Endpoint&, NodeId, const void*, std::size_t) { ++got; });
  cluster.run([&](Endpoint& ep) {
    if (ep.id() == 0) {
      for (int i = 0; i < 25; ++i)
        ASSERT_TRUE(ok(ep.send4(1, h, 1, 2, 3, 4)));
      ep.drain();
      EXPECT_EQ(ep.stats().messages_sent, 25u);
      EXPECT_EQ(ep.stats().frames_sent, 25u);
      EXPECT_EQ(ep.unacked(), 0u);
    } else {
      ep.extract_until([&] { return got.load() == 25; });
      ep.drain();
      EXPECT_EQ(ep.stats().messages_delivered, 25u);
    }
  });
}

}  // namespace
}  // namespace fm::shm
