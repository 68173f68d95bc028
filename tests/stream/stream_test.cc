// Tests of the byte-stream layer over FM (connect/accept, ordered delivery,
// windowed flow control, EOF semantics, bidirectional traffic, a dead
// writer).
#include "stream/stream.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>

#include "common/crc32.h"
#include "common/random.h"

namespace fm::stream {
namespace {

TEST(Stream, ConnectAcceptHandshake) {
  shm::Cluster cluster(2);
  std::atomic<bool> connected{false};
  cluster.run([&](shm::Endpoint& ep) {
    StreamMgr mgr(ep);
    if (ep.id() == 0) {
      mgr.listen(80);
      Connection& c = mgr.accept(80);
      EXPECT_EQ(c.peer(), 1u);
      connected = true;
      while (!connected) mgr.poll();
      ep.drain();
    } else {
      Connection& c = mgr.connect(0, 80);
      EXPECT_EQ(c.peer(), 0u);
      while (!connected.load()) mgr.poll();
      ep.drain();
    }
  });
  EXPECT_TRUE(connected.load());
}

TEST(Stream, BytesArriveInOrderAndIntact) {
  shm::Cluster cluster(2);
  const std::size_t kBytes = 50000;
  std::vector<std::uint8_t> sent(kBytes);
  Xoshiro256 rng(9);
  for (auto& b : sent) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t> received(kBytes, 0);
  cluster.run([&](shm::Endpoint& ep) {
    StreamMgr mgr(ep);
    if (ep.id() == 0) {
      mgr.listen(7);
      Connection& c = mgr.accept(7);
      EXPECT_EQ(c.read_exact(received.data(), kBytes), kBytes);
      c.close();
      ep.drain();
    } else {
      Connection& c = mgr.connect(0, 7);
      EXPECT_TRUE(c.write(sent.data(), sent.size()));
      c.close();
      while (!c.at_eof()) mgr.poll();  // wait for peer's FIN
      ep.drain();
    }
  });
  EXPECT_EQ(crc32(received.data(), received.size()),
            crc32(sent.data(), sent.size()));
  EXPECT_EQ(received, sent);
}

TEST(Stream, WindowThrottlesASlowReader) {
  // The writer pushes far more than one window; a reader that consumes
  // slowly must bound the writer via credits (no unbounded buffering).
  shm::Cluster cluster(2);
  const std::size_t kWindow = 4096;
  const std::size_t kTotal = 64 * 1024;
  std::atomic<std::size_t> reader_got{0};
  cluster.run([&](shm::Endpoint& ep) {
    StreamMgr mgr(ep, kWindow);
    if (ep.id() == 0) {
      mgr.listen(9);
      Connection& c = mgr.accept(9);
      std::vector<std::uint8_t> buf(512);
      std::size_t got = 0;
      while (got < kTotal) {
        std::size_t n = c.read(buf.data(), buf.size());
        ASSERT_GT(n, 0u);
        got += n;
        reader_got = got;
        // Receive-side invariant: buffered bytes never exceed the window.
        EXPECT_LE(c.readable(), kWindow);
      }
      ep.drain();
    } else {
      Connection& c = mgr.connect(0, 9);
      std::vector<std::uint8_t> chunk(kTotal, 0xAB);
      EXPECT_TRUE(c.write(chunk.data(), chunk.size()));
      while (reader_got.load() < kTotal) mgr.poll();
      ep.drain();
    }
  });
  EXPECT_EQ(reader_got.load(), kTotal);
}

TEST(Stream, EofAfterClose) {
  shm::Cluster cluster(2);
  cluster.run([&](shm::Endpoint& ep) {
    StreamMgr mgr(ep);
    if (ep.id() == 0) {
      mgr.listen(5);
      Connection& c = mgr.accept(5);
      std::uint8_t buf[64];
      std::size_t n = c.read_exact(buf, 5);
      EXPECT_EQ(n, 5u);
      EXPECT_EQ(std::memcmp(buf, "hello", 5), 0);
      // Next read returns EOF (0) once FIN arrives and data is drained.
      EXPECT_EQ(c.read(buf, sizeof buf), 0u);
      EXPECT_TRUE(c.at_eof());
      ep.drain();
    } else {
      Connection& c = mgr.connect(0, 5);
      EXPECT_TRUE(c.write("hello", 5));
      c.close();
      ep.drain();
    }
  });
}

TEST(Stream, BidirectionalEcho) {
  shm::Cluster cluster(2);
  const int kRounds = 50;
  cluster.run([&](shm::Endpoint& ep) {
    StreamMgr mgr(ep);
    if (ep.id() == 0) {
      mgr.listen(22);
      Connection& c = mgr.accept(22);
      std::uint32_t v;
      while (c.read_exact(&v, 4) == 4) {
        v *= 2;
        if (!c.write(&v, 4)) break;
      }
      ep.drain();
    } else {
      Connection& c = mgr.connect(0, 22);
      for (std::uint32_t i = 1; i <= kRounds; ++i) {
        ASSERT_TRUE(c.write(&i, 4));
        std::uint32_t echo = 0;
        ASSERT_EQ(c.read_exact(&echo, 4), 4u);
        EXPECT_EQ(echo, 2 * i);
      }
      c.close();
      ep.drain();
    }
  });
}

TEST(Stream, MultipleConnectionsMultiplexOnePort) {
  shm::Cluster cluster(3);
  std::atomic<int> served{0};
  cluster.run([&](shm::Endpoint& ep) {
    StreamMgr mgr(ep);
    if (ep.id() == 0) {
      mgr.listen(443);
      for (int i = 0; i < 2; ++i) {
        Connection& c = mgr.accept(443);
        std::uint32_t who = 0;
        ASSERT_EQ(c.read_exact(&who, 4), 4u);
        EXPECT_EQ(who, c.peer());
        ++served;
      }
      ep.drain();
    } else {
      Connection& c = mgr.connect(0, 443);
      std::uint32_t me = ep.id();
      ASSERT_TRUE(c.write(&me, 4));
      while (served.load() < 2) mgr.poll();
      ep.drain();
    }
  });
  EXPECT_EQ(served.load(), 2);
}

TEST(Stream, SurvivesFmLevelReorderingViaTinyReassemblyPool) {
  // Small FM frames force every chunk into multiple fragments; a tiny
  // reassembly pool forces rejects/retransmits, so chunks genuinely arrive
  // out of order at the stream layer — which must still deliver a clean
  // byte sequence.
  FmConfig cfg;
  cfg.frame_payload = 64;
  cfg.reassembly_slots = 2;
  cfg.reject_retry_delay = 1;
  shm::Cluster cluster(2, cfg);
  const std::size_t kBytes = 20000;
  std::vector<std::uint8_t> sent(kBytes);
  for (std::size_t i = 0; i < kBytes; ++i)
    sent[i] = static_cast<std::uint8_t>(i * 31 + 7);
  bool match = false;
  cluster.run([&](shm::Endpoint& ep) {
    StreamMgr mgr(ep, 8192);
    if (ep.id() == 0) {
      mgr.listen(1);
      Connection& c = mgr.accept(1);
      std::vector<std::uint8_t> got(kBytes);
      EXPECT_EQ(c.read_exact(got.data(), kBytes), kBytes);
      match = (got == sent);
      c.close();
      ep.drain();
    } else {
      Connection& c = mgr.connect(0, 1);
      EXPECT_TRUE(c.write(sent.data(), sent.size()));
      c.close();
      while (!c.at_eof()) mgr.poll();
      ep.drain();
    }
  });
  EXPECT_TRUE(match);
}

TEST(Stream, ReaderOfAWriterThatFellSilentGetsPeerDead) {
  // The writer's bytes arrive and are acked, then it stops for good without
  // a FIN (a killed rank). Nothing of the reader's is in flight to it, so
  // only the wait's liveness probe gives FM-R something to judge.
  FmConfig cfg;
  cfg.reliability = true;
  cfg.retransmit_timeout_ns = 1'000'000;  // 1 ms
  cfg.max_retries = 3;
  const std::uint64_t horizon = RetransmitTimer::detection_horizon_ns(
      cfg.retransmit_timeout_ns, cfg.max_retries);
  shm::Cluster cluster(2, cfg);
  Status st = Status::kOk;
  bool dead = false;
  std::size_t n = 1;
  cluster.run([&](shm::Endpoint& ep) {
    StreamMgr mgr(ep);
    std::uint8_t buf[64] = {};
    if (ep.id() == 0) {
      mgr.listen(5);
      Connection& c = mgr.accept(5);
      EXPECT_EQ(c.read_exact(buf, sizeof buf), sizeof buf);
      ep.drain();  // acks everything the writer sent
      st = c.read_deadline(buf, sizeof buf, &n, 100 * horizon);
      dead = c.peer_dead();
    } else {
      Connection& c = mgr.connect(0, 5);
      EXPECT_TRUE(c.write(buf, sizeof buf));
      ep.drain();  // then never extracts again
    }
  });
  EXPECT_EQ(st, Status::kPeerDead);
  EXPECT_TRUE(dead);
  EXPECT_EQ(n, 0u);
}

}  // namespace
}  // namespace fm::stream
